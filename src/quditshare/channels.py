"""Kraus-channel algebra: validation, dual map, unitality, one-sided action on
bipartite states, Choi states, and seeded random channel generation.

A channel acts on the second (transmitted) subsystem only. The dual map (Kraus
list of adjoints) is trace preserving exactly when the channel is unital; it is
represented by the same container with ``trace_preserving=False`` and may still
be applied one-sided, which is needed for the dual Choi state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ChannelCompletenessError, DimensionError, InvalidOperatorError
from .jsonio import dumps_fixed, json_int, load_json
from .states import DensityOperator, PureBipartiteState, max_entangled

COMPLETENESS_TOL = 1e-10
UNITAL_TOL = 1e-10
EIGVEC_DEFECT_TOL = 1e-10
DEGENERACY_GAP = 1e-10


def completeness_residual(ops) -> tuple[float, tuple[int, int]]:
    """Max-abs entry of sum_i A_i^dag A_i - I and its position."""
    d = ops[0].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for a in ops:
        acc += a.conj().T @ a
    dev = np.abs(acc - np.eye(d))
    pos = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[pos]), (int(pos[0]), int(pos[1]))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators on C^d.

    ``trace_preserving=True`` enforces completeness at construction; dual maps
    of nonunital channels carry ``trace_preserving=False`` and skip the check.
    """

    dim: int
    kraus_ops: tuple
    trace_preserving: bool = True

    def __post_init__(self):
        ops = tuple(np.array(a, dtype=complex) for a in self.kraus_ops)
        if not ops:
            raise InvalidOperatorError("channel needs at least one Kraus operator")
        for a in ops:
            if a.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"Kraus operator shape {a.shape} does not match dim {self.dim}"
                )
            if not np.isfinite(a).all():
                raise InvalidOperatorError("Kraus operator has a non-finite entry")
            a.setflags(write=False)
        if self.trace_preserving:
            residual, pos = completeness_residual(ops)
            if residual > COMPLETENESS_TOL:
                raise ChannelCompletenessError(
                    f"Kraus operators are not trace preserving: "
                    f"residual {residual:.6g} at entry {pos}",
                    residual=residual,
                    position=pos,
                )
        object.__setattr__(self, "kraus_ops", ops)


class TopChoiEigenpair(NamedTuple):
    value: float
    state: PureBipartiteState
    degenerate: bool


def kraus_validate(ops) -> KrausChannel:
    """Validate a raw Kraus list into a channel whose dimension is read from
    the first operator, or raise with the residual."""
    arrs = [np.asarray(a, dtype=complex) for a in ops]
    if not arrs:
        raise InvalidOperatorError("empty Kraus list")
    return KrausChannel(dim=arrs[0].shape[0], kraus_ops=tuple(arrs))


def is_unital(ch: KrausChannel) -> bool:
    """True iff sum_i A_i A_i^dag equals the identity within tolerance."""
    acc = np.zeros((ch.dim, ch.dim), dtype=complex)
    for a in ch.kraus_ops:
        acc += a @ a.conj().T
    return bool(np.abs(acc - np.eye(ch.dim)).max() < UNITAL_TOL)


def dual(ch: KrausChannel) -> KrausChannel:
    """Adjoint map with Kraus list {A_i^dag}; trace preserving iff ch is unital."""
    return KrausChannel(
        dim=ch.dim,
        kraus_ops=tuple(a.conj().T for a in ch.kraus_ops),
        trace_preserving=is_unital(ch),
    )


def apply_one_sided(ch: KrausChannel, psi: PureBipartiteState) -> DensityOperator:
    """sum_i (I (x) K_i) |psi><psi| (I (x) K_i^dag)."""
    if ch.dim != psi.dim:
        raise DimensionError(f"channel dim {ch.dim} does not match state dim {psi.dim}")
    d = ch.dim
    m = psi.coefficient_matrix()
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus_ops:
        v = (m @ k.T).reshape(-1)
        out += np.outer(v, v.conj())
    out = 0.5 * (out + out.conj().T)
    # Hermitian and PSD by construction from a validated channel and state
    return DensityOperator._trusted(d, d, out, unit_trace=ch.trace_preserving)


def choi_state(ch: KrausChannel) -> DensityOperator:
    """(I (x) ch)(|Phi+><Phi+|) for any Kraus map, dual maps included.

    Its first marginal is (sum K^dag K)^T / d, so for a trace-preserving
    channel it is I/d within the completeness tolerance over d.
    """
    return apply_one_sided(ch, max_entangled(ch.dim))


def top_choi_eigenpair(ch: KrausChannel) -> TopChoiEigenpair:
    """Largest eigenvalue and eigenvector of the (possibly dual) Choi state.

    The eigenvector phase is canonicalized so its largest-magnitude amplitude is
    real positive; ``degenerate`` flags a top eigenvalue within 1e-10 of the
    next one, in which case the returned vector is one arbitrary member of the
    eigenspace.
    """
    rho = choi_state(ch)
    eigs, vecs = np.linalg.eigh(rho.matrix)
    lam = float(eigs[-1])
    v = vecs[:, -1]
    degenerate = bool(eigs.size > 1 and (eigs[-1] - eigs[-2]) < DEGENERACY_GAP)
    j = int(np.argmax(np.abs(v)))
    phase = v[j] / abs(v[j])
    v = v * phase.conjugate()
    defect = np.linalg.norm(rho.matrix @ v - lam * v)
    if defect >= EIGVEC_DEFECT_TOL:
        raise ArithmeticError(f"eigenpair defect {defect} exceeds tolerance")
    return TopChoiEigenpair(lam, PureBipartiteState(ch.dim, v), degenerate)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * phases


def random_channel(d: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel from a Haar unitary dilation: completeness by construction.

    The first d columns of a Haar unitary on C^{d * n_kraus} form an isometry
    whose d x d blocks are the Kraus operators.
    """
    if n_kraus < 1:
        raise ValueError("need at least one Kraus operator")
    u = haar_unitary(d * n_kraus, rng)
    iso = u[:, :d]
    ops = tuple(iso[i * d : (i + 1) * d, :] for i in range(n_kraus))
    return KrausChannel(dim=d, kraus_ops=ops)


def channel_to_dict(ch: KrausChannel) -> dict:
    """JSON-ready form: {"d": int, "kraus": [[[[re, im], ...], ...], ...]}."""
    kraus = [
        [[[float(e.real), float(e.imag)] for e in row] for row in np.asarray(a)]
        for a in ch.kraus_ops
    ]
    return {"d": ch.dim, "kraus": kraus}


def channel_from_dict(data: dict) -> KrausChannel:
    """Parse and validate the channel JSON schema (completeness enforced)."""
    try:
        d = json_int(data["d"], "d")
        ops = tuple(
            np.array([[complex(float(e[0]), float(e[1])) for e in row] for row in mat])
            for mat in data["kraus"]
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise InvalidOperatorError(f"malformed channel data: {exc}") from exc
    return KrausChannel(dim=d, kraus_ops=ops)


def save_channel(ch: KrausChannel, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_fixed(channel_to_dict(ch)))


def load_channel(path) -> KrausChannel:
    return channel_from_dict(load_json(path))
