"""Entanglement figures of merit for channel outputs.

Negativity is computed from the partial-transpose spectrum. The fully entangled
fraction (FEF), the largest overlap of rho with a maximally entangled state, is
exact at d = 2 and a seeded ascent at d >= 3.

At d = 2 the real unit combinations of the magic basis are exactly the
maximally entangled states up to a global phase (Hill & Wootters, PRL 78, 5022
(1997)), so the FEF is lambda_max of the real part of rho in that basis
(Verstraete & Verschelde, PRA 66, 022307 (2002)): one real 4 x 4 eigensolve.

At d >= 3 it is maximized over the manifold of maximally entangled states by
a projected power iteration: every maximally entangled state is (W (x) I)|Phi+>
for a unitary W, the overlap is a positive-semidefinite quadratic form in the
entries of W, and alternating a power step with polar projection to the nearest
unitary ascends that form monotonically. ``fef`` runs its seeded starts as one
stack: each iteration makes a single stacked SVD over the starts still
climbing, and a start drops out when its own gain falls below DEFAULT_TOL. So
every start takes the steps it would take alone, and the result is bit-for-bit
the one a start-by-start loop gives. The result is reported as a heuristic
lower bound together with the certified ceiling min(lambda_max, (tr rho + 2N)/d)
(tr rho is 1 unless ``unit_trace`` is False); no fixed-point scheme certifies
global optimality on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import complex_gaussian, haar_from_gaussian
from .states import (
    EIG_CLAMP,
    DensityOperator,
    fidelity_with,
    mes_from_unitary,
    partial_transpose_matrix,
)

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-9

# Hill & Wootters' magic basis, scaled by sqrt(2), as columns over |00>, |01>,
# |10>, |11>. For a real unit x, reshape(_MAGIC x) is the unitary
# W = x_1 I + i x_2 Z + i x_3 X + x_4 iY, built without rounding, and (W (x) I)
# |Phi+> runs over every two-qubit maximally entangled state.
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]])


@dataclass(frozen=True, eq=False)
class FefResult:
    """Best maximally entangled overlap found, with its maximizer."""

    value: float
    maximizer_unitary: np.ndarray
    converged: bool


def negativity_of_matrix(matrix: np.ndarray, d: int) -> float:
    """Negativity from a raw d^2 x d^2 density matrix (no container checks)."""
    eigs = np.linalg.eigvalsh(partial_transpose_matrix(matrix, d))
    eigs = np.where((eigs > -EIG_CLAMP) & (eigs < 0.0), 0.0, eigs)
    return float(-eigs[eigs < 0.0].sum())


def negativity(rho: DensityOperator) -> float:
    """Absolute sum of negative partial-transpose eigenvalues.

    Eigenvalues in (-1e-12, 0) are treated as eigensolver noise and clamped to
    zero.
    """
    return negativity_of_matrix(rho.matrix, rho.dim)


def fstar_upper_bound(rho: DensityOperator) -> float:
    """(tr rho + 2 * negativity) / d = ||rho^{T_B}||_1 / d: ceiling on the FEF
    and on the best singlet fraction reachable by trace-preserving local
    processing. tr rho is taken as 1 unless ``unit_trace`` is False."""
    trace = 1.0 if rho.unit_trace else rho.matrix.trace().real
    return (trace + 2.0 * negativity(rho)) / rho.dim


def _ascend_unitaries(r: np.ndarray, d: int, w0: np.ndarray):
    """Monotone ascent of w -> Re(w^dag R w) over unitary-reshaped w, for a
    stack of starts w0 of shape (n, d, d).

    Each iteration polar-projects the power steps of the starts still
    climbing with one stacked SVD; a start leaves at the first step whose gain
    is below DEFAULT_TOL. matmul against w[..., None] and vecdot round as the
    start-by-start r @ w and np.vdot do (einsum and a GEMM do not), so every
    start ends bit-identical to a run on its own. Returns the per-start
    values, unitaries and converged flags.
    """
    n = w0.shape[0]
    w = w0.reshape(n, d * d).astype(complex)
    y = np.matmul(r, w[..., None])[..., 0]
    val = np.vecdot(w, y).real
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(DEFAULT_MAX_ITER):
        u, _, vh = np.linalg.svd(y[active].reshape(-1, d, d))
        w_new = (u @ vh).reshape(-1, d * d)
        y_new = np.matmul(r, w_new[..., None])[..., 0]
        val_new = np.vecdot(w_new, y_new).real
        old = val[active]
        up = val_new > old
        kept = active[up]
        w[kept], y[kept], val[kept] = w_new[up], y_new[up], val_new[up]
        done = ~up | (val_new - old < DEFAULT_TOL)
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    return val, w.reshape(n, d, d), converged


def _seeded_starts(d: int, restarts: int, seed: int) -> np.ndarray:
    """The ascent's starts, shape (restarts, d, d): the identity, then a Haar
    unitary from default_rng([seed, k]) for each k >= 1, with one batched QR."""
    starts = np.empty((restarts, d, d), dtype=complex)
    starts[0] = np.eye(d)
    if restarts > 1:
        gaussians = [complex_gaussian(d, np.random.default_rng([seed, k]))
                     for k in range(1, restarts)]
        starts[1:] = haar_from_gaussian(np.stack(gaussians))
    return starts


def fef(rho: DensityOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> FefResult:
    """Fully entangled fraction of rho: max over maximally entangled |Phi> of
    <Phi|rho|Phi>.

    At d = 2 the value is exact: the top eigenvector x of Re(M^dag rho M) in
    the magic basis M gives the maximizer W = sqrt(2) reshape(M x), with no
    ascent, so ``converged`` is true and ``restarts``/``seed`` are not used;
    the value is the overlap of that maximizer, equal to the top eigenvalue up
    to rounding.
    At d >= 3 it is the best value over seeded restarts: start 0 is the
    identity, start k >= 1 a Haar unitary drawn from default_rng([seed, k]);
    all starts ascend together as one stack, and the first start with the
    highest value wins. Deterministic for fixed (seed, restarts). Either way
    value >= <Phi+|rho|Phi+>, and ``restarts`` must be at least 1.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    d = rho.dim
    if d == 2:
        _, vecs = np.linalg.eigh((_MAGIC.conj().T @ rho.matrix @ _MAGIC).real)
        w = (_MAGIC @ vecs[:, -1]).reshape(2, 2)
        return FefResult(value=fidelity_with(rho, mes_from_unitary(w)),
                         maximizer_unitary=w, converged=True)
    vals, ws, converged = _ascend_unitaries(rho.matrix / d, d, _seeded_starts(d, restarts, seed))
    best = int(np.argmax(vals))
    w = ws[best]
    value = fidelity_with(rho, mes_from_unitary(w))
    return FefResult(value=value, maximizer_unitary=w, converged=bool(converged[best]))
