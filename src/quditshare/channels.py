"""Kraus-channel algebra: validation, dual map, unitality, one-sided action on
bipartite states, Choi states, and seeded random channel generation.

A channel acts on the second (transmitted) subsystem only. Its Kraus list is
one read-only complex (K, d, d) array, ``KrausChannel.kraus_ops``, the stack
every kernel below takes as it is. The dual map (Kraus list of adjoints,
``kraus_ops.conj().mT``) is trace preserving exactly when the channel is
unital; it is represented by the same container with
``trace_preserving=False`` and may still be applied one-sided, which is
needed for the dual Choi state.

The Kraus-stack kernels are written once here, on stacks, and a function on
one channel is the kernel's one-row case (``kraus_ops[None]``), so every
member of a stack gets the bits it gets alone and ``audit`` can run a batch
of channels as a few stacked calls:
- ``one_sided_stack`` maps n Kraus lists, held as one (n, K, d, d) array
  (a shorter list padded with zero operators), on n inputs, in real
  arithmetic when the lists and inputs are real; ``apply_one_sided`` is its
  one-row case. It is ``branch_sum`` of the ``branch_vectors``
  (I (x) K_i)|psi>, which ``audit`` also reads, for each output's
  lambda_max;
- ``completeness_residual`` (and ``check_completeness``) takes one list or
  such a stack; ``KrausChannel`` checks its list with it;
- ``top_eigenpairs`` solves a stack of Hermitian matrices with one ``eigh``
  and checks each top eigenvector, for the paths that read one;
  ``top_choi_eigenpair`` is its one-row case. The dual map's Choi state is
  SWAP conj(J) SWAP for the channel's J, as the dual's branch vectors at
  Phi+ are SWAP conj of J's, entry for entry; so the best input psi', its
  top eigenvector, is read off J's one ``eigh`` (``_psi_prime``);
- ``haar_from_gaussian`` makes a stack of Haar unitaries with one QR, and
  ``haar_dilation_kraus`` blocks the first d columns of the unitaries of a
  stack of Gaussian dilations into Kraus lists, with one QR of those
  columns alone; ``random_channel`` is its one-row case, and ``audit``
  draws its channels with it, from Gaussians that ``ginibre_from_normals``
  assembles from drawn normals.
In the stacked paths Phi+'s coefficient matrix is written as I / sqrt(d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ChannelCompletenessError, DimensionError, InvalidOperatorError
from .jsonio import dumps_fixed, json_complex, json_int, load_json
from .states import DensityOperator, PureBipartiteState, max_entangled

COMPLETENESS_TOL = 1e-10
UNITAL_TOL = 1e-10
EIGVEC_DEFECT_TOL = 1e-10
DEGENERACY_GAP = 1e-10


def completeness_residual(ops) -> tuple[float, tuple]:
    """Max-abs entry of sum_i A_i^dag A_i - I and its position (i, j), for
    one Kraus list (K, d, d); over a stack (n, K, d, d) of lists, the largest
    and its position (list, i, j); inf or NaN, without warnings, on overflow."""
    ops = np.asarray(ops)
    with np.errstate(over="ignore", invalid="ignore"):
        # a sum over an outer axis adds the terms in order, as a loop would
        acc = (ops.conj().mT @ ops).sum(axis=-3)
    dev = np.abs(acc - np.eye(ops.shape[-1]))
    pos = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[pos]), tuple(map(int, pos))


def check_completeness(ops) -> None:
    """Raise ChannelCompletenessError, with the residual, unless one Kraus
    list, or every list of a stack, is trace preserving within
    COMPLETENESS_TOL (see ``completeness_residual``); a NaN residual fails."""
    residual, pos = completeness_residual(ops)
    if not residual <= COMPLETENESS_TOL:
        raise ChannelCompletenessError(
            f"Kraus operators are not trace preserving: "
            f"residual {residual:.6g} at entry {pos}",
            residual=residual,
            position=pos,
        )


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators on C^d, held as one read-only complex
    (K, d, d) array ``kraus_ops``, the stack the kernels take.

    The constructor takes any sequence of d x d operators (a list, a tuple
    or an array) and stacks a copy. ``trace_preserving=True`` enforces
    completeness at construction; dual maps of nonunital channels carry
    ``trace_preserving=False`` and skip the check.
    """

    dim: int
    kraus_ops: np.ndarray
    trace_preserving: bool = True

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError(f"channel dimension must be >= 2, got {self.dim}")
        if not _kraus_count(self.kraus_ops):
            raise InvalidOperatorError("channel needs at least one Kraus operator")
        for a in self.kraus_ops:
            if np.shape(a) != (self.dim, self.dim):
                raise DimensionError(
                    f"Kraus operator shape {np.shape(a)} does not match dim {self.dim}"
                )
        # a copy in C order, also of a transposed view such as the dual's
        ops = np.array(self.kraus_ops, dtype=complex, order="C")
        if not np.isfinite(ops).all():
            raise InvalidOperatorError("Kraus operator has a non-finite entry")
        if self.trace_preserving:
            check_completeness(ops)
        ops.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)


class TopChoiEigenpair(NamedTuple):
    value: float
    state: PureBipartiteState
    degenerate: bool


def _kraus_count(ops) -> int:
    """len(ops), or a DimensionError naming the shape of an object that is
    no sequence of operators, such as a bare number."""
    try:
        return len(ops)
    except TypeError:
        raise DimensionError(f"Kraus list shape {np.shape(ops)} is not (K, d, d)") from None


def kraus_validate(ops) -> KrausChannel:
    """Validate a raw Kraus list into a channel whose dimension is read from
    the first operator, or raise with the residual."""
    if not _kraus_count(ops):
        raise InvalidOperatorError("empty Kraus list")
    shape = np.shape(ops[0])
    if len(shape) != 2:
        raise DimensionError(f"Kraus operator shape {shape} is not (d, d)")
    return KrausChannel(dim=shape[0], kraus_ops=ops)


def is_unital(ch: KrausChannel) -> bool:
    """True iff sum_i A_i A_i^dag equals the identity within tolerance: the
    completeness residual of the adjoint list."""
    return completeness_residual(ch.kraus_ops.conj().mT)[0] < UNITAL_TOL


def dual(ch: KrausChannel) -> KrausChannel:
    """Adjoint map with Kraus list {A_i^dag}; trace preserving iff ch is unital."""
    return KrausChannel(
        dim=ch.dim,
        kraus_ops=ch.kraus_ops.conj().mT,
        trace_preserving=is_unital(ch),
    )


def one_sided_stack(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i (I (x) K_i) |psi><psi| (I (x) K_i^dag) for a stack: ``kraus``
    (n, K, d, d) holds n Kraus lists, ``m`` (n, d, d) the inputs' coefficient
    matrices, or (1, d, d) one input for all; returns the (n, d^2, d^2)
    outputs, each exactly Hermitian. When ``kraus`` and ``m`` are both real,
    so are the outputs (real symmetric); complex input gives complex output.
    It is ``branch_sum`` of the ``branch_vectors``.
    """
    return branch_sum(branch_vectors(kraus, m))


def branch_vectors(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The (n, K, d^2) vectors (I (x) K_i)|psi> of ``one_sided_stack``'s
    terms: row i of list r is vec(M_r K_i^T)."""
    n, count, d, _ = kraus.shape
    return np.matmul(m[:, None], kraus.swapaxes(-1, -2)).reshape(n, count, d * d)


def branch_sum(v: np.ndarray) -> np.ndarray:
    """sum_i v_i v_i^dag of each stack of vectors (n, K, D), made exactly
    Hermitian, shape (n, D, D).

    A list padded with zero operators has zero vectors, which is exact: the
    sum starts from +0 and never holds -0, so adding a term of zeros leaves
    every bit. Each output is the one its vectors give alone.
    """
    n, count, size = v.shape
    vc = v.conj()
    out = np.zeros((n, size, size), dtype=v.dtype)
    for j in range(count):
        out += v[:, j, :, None] * vc[:, j, None, :]
    # 0.5 (out + out^dag), in place
    out += out.conj().swapaxes(-1, -2)
    out *= 0.5
    return out


def apply_one_sided(ch: KrausChannel, psi: PureBipartiteState) -> DensityOperator:
    """sum_i (I (x) K_i) |psi><psi| (I (x) K_i^dag): ``one_sided_stack``
    with n = 1."""
    if ch.dim != psi.dim:
        raise DimensionError(f"channel dim {ch.dim} does not match state dim {psi.dim}")
    out = one_sided_stack(ch.kraus_ops[None], psi.coefficient_matrix()[None])
    # Hermitian and PSD by construction from a validated channel and state
    return DensityOperator._trusted(ch.dim, out[0], unit_trace=ch.trace_preserving)


def choi_state(ch: KrausChannel) -> DensityOperator:
    """(I (x) ch)(|Phi+><Phi+|) for any Kraus map, dual maps included.

    Its first marginal is (sum K^dag K)^T / d, so for a trace-preserving
    channel it is I/d within the completeness tolerance over d.
    """
    return apply_one_sided(ch, max_entangled(ch.dim))


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Each vector of a stack (n, D) times the phase that makes its
    largest-magnitude amplitude (the first, on a tie) real positive."""
    top = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
    # hypot rounds as the scalar abs does; numpy's complex abs on arrays may not
    return v * (top / np.hypot(top.real, top.imag)).conj()[:, None]


def top_eigenpairs(mats: np.ndarray):
    """Largest eigenvalue, its eigenvector and a degeneracy flag of each
    Hermitian matrix in a stack (n, D, D), D >= 2, from one ``eigh``.

    Each eigenvector's phase is canonicalized so its largest-magnitude
    amplitude is real positive; a flag marks a top eigenvalue within
    DEGENERACY_GAP of the next one, where the vector is one arbitrary member
    of the eigenspace. Raises ArithmeticError when any vector's residual
    |A v - lambda v| reaches EIGVEC_DEFECT_TOL.
    """
    eigs, vecs = np.linalg.eigh(mats)
    lam = eigs[:, -1]
    degenerate = eigs[:, -1] - eigs[:, -2] < DEGENERACY_GAP
    v = _canonical_phase(vecs[:, :, -1])
    r = np.matmul(mats, v[..., None])[..., 0] - lam[:, None] * v
    worst = np.sqrt(np.vecdot(r, r).real.max())
    if worst >= EIGVEC_DEFECT_TOL:
        raise ArithmeticError(f"eigenpair defect {worst} exceeds tolerance")
    return lam, v, degenerate


def top_choi_eigenpair(ch: KrausChannel) -> TopChoiEigenpair:
    """Largest eigenvalue and eigenvector of the (possibly dual) Choi state,
    from ``top_eigenpairs``: the eigenvector's largest-magnitude amplitude is
    real positive, and ``degenerate`` flags a top eigenvalue within 1e-10 of
    the next one."""
    lam, v, degenerate = top_eigenpairs(choi_state(ch).matrix[None])
    return TopChoiEigenpair(float(lam[0]), PureBipartiteState(ch.dim, v[0]),
                            bool(degenerate[0]))


def _swap_conj(v: np.ndarray, d: int) -> np.ndarray:
    """SWAP conj(v) of each vector of a stack (..., d^2) on C^d (x) C^d:
    SWAP transposes the coefficient matrix."""
    return v.conj().reshape(*v.shape[:-1], d, d).swapaxes(-1, -2).reshape(v.shape)


def _psi_prime(v: np.ndarray, d: int) -> PureBipartiteState:
    """The best input psi', the dual map's top Choi eigenvector, from the top
    eigenvector v (d^2,) of the channel's own Choi state J: the dual's Choi
    state is SWAP conj(J) SWAP, its branch vectors (I (x) K_i^dag)|Phi+>
    being SWAP conj of J's, so it has J's spectrum and the top eigenvector
    SWAP conj(v). That keeps each amplitude's magnitude and conjugates v's
    top amplitude, real positive up to rounding, in place; the phase rule is
    applied again, which also settles two amplitudes of one magnitude that
    meet ``argmax`` in the other order after SWAP."""
    return PureBipartiteState(d, _canonical_phase(_swap_conj(v, d)[None])[0])


def complex_gaussian(d: int, rng: np.random.Generator) -> np.ndarray:
    """d x d matrix of i.i.d. standard complex Gaussians (the Ginibre ensemble)."""
    return ginibre_from_normals(rng.standard_normal(2 * d * d), d)


def ginibre_from_normals(normals: np.ndarray, d: int) -> np.ndarray:
    """Complex Gaussian d x d matrices (re + i im) / sqrt(2), shape (..., d, d),
    from real standard normals (..., 2 d^2): of each row the first d^2 are
    the real parts in row-major order, the rest the imaginary parts, the
    order ``complex_gaussian`` draws them in."""
    re, im = normals[..., :d * d], normals[..., d * d:]
    return ((re + 1j * im) / np.sqrt(2)).reshape(*normals.shape[:-1], d, d)


def haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack (..., d, d) of complex Gaussian matrices,
    or their first d columns from a stack (..., m, d) of first columns: QR
    with the phases of R's diagonal moved into Q, one batched QR call."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * phases[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary drawn from rng."""
    return haar_from_gaussian(complex_gaussian(d, rng))


def haar_dilation_kraus(z: np.ndarray, d: int) -> np.ndarray:
    """Kraus lists of Haar dilations, shape (..., k, d, d), from a stack
    (..., d k, d k) of complex Gaussian matrices: the first d columns of each
    Haar unitary (``haar_from_gaussian``) form an isometry whose k blocks of
    d rows are its d x d Kraus operators. They, and R's first d diagonal
    entries, depend on z's first d columns alone, so only those are factored."""
    return haar_from_gaussian(z[..., :d]).reshape(*z.shape[:-2], z.shape[-1] // d, d, d)


def random_channel(d: int, n_kraus: int, rng: np.random.Generator) -> KrausChannel:
    """Random channel from a Haar unitary dilation on C^{d * n_kraus}
    (``haar_dilation_kraus``): completeness by construction."""
    if n_kraus < 1:
        raise ValueError("need at least one Kraus operator")
    ops = haar_dilation_kraus(complex_gaussian(d * n_kraus, rng), d)
    return KrausChannel(dim=d, kraus_ops=ops)


def channel_to_dict(ch: KrausChannel) -> dict:
    """JSON-ready form: {"d": int, "kraus": [[[[re, im], ...], ...], ...]}."""
    ops = ch.kraus_ops
    return {"d": ch.dim, "kraus": np.stack((ops.real, ops.imag), -1).tolist()}


def channel_from_dict(data: dict) -> KrausChannel:
    """Parse and validate the channel JSON schema (completeness enforced)."""
    try:
        d = json_int(data["d"], "d")
        ops = [np.array([[json_complex(e, "Kraus entry") for e in row] for row in mat])
               for mat in data["kraus"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidOperatorError(f"malformed channel data: {exc}") from exc
    return KrausChannel(dim=d, kraus_ops=ops)


def save_channel(ch: KrausChannel, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_fixed(channel_to_dict(ch)))


def load_channel(path) -> KrausChannel:
    return channel_from_dict(load_json(path))
