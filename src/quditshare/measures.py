"""Entanglement figures of merit for channel outputs.

Negativity is computed from the partial-transpose spectrum. The fully entangled
fraction (FEF) is maximized over the manifold of maximally entangled states by
a projected power iteration: every maximally entangled state is (W (x) I)|Phi+>
for a unitary W, the overlap is a positive-semidefinite quadratic form in the
entries of W, and alternating a power step with polar projection to the nearest
unitary ascends that form monotonically. The result is reported as a heuristic
lower bound together with the certified ceiling min(lambda_max, (1 + 2N)/d);
no fixed-point scheme certifies global optimality on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import haar_unitary
from .errors import DimensionError
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


@dataclass(frozen=True, eq=False)
class FefResult:
    """Best maximally entangled overlap found, with its maximizer."""

    value: float
    maximizer_unitary: np.ndarray
    converged: bool


def negativity_of_matrix(matrix: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Negativity from a raw bipartite density matrix (no container checks)."""
    eigs = np.linalg.eigvalsh(partial_transpose_matrix(matrix, dim_a, dim_b, "second"))
    eigs = np.where((eigs > -EIG_CLAMP) & (eigs < 0.0), 0.0, eigs)
    return float(-eigs[eigs < 0.0].sum())


def negativity(rho: DensityOperator) -> float:
    """Absolute sum of negative partial-transpose eigenvalues.

    Eigenvalues in (-1e-12, 0) are treated as eigensolver noise and clamped to
    zero.
    """
    return negativity_of_matrix(rho.matrix, rho.dim_a, rho.dim_b)


def fstar_upper_bound(rho: DensityOperator) -> float:
    """(1 + 2 * negativity) / d: ceiling on the best singlet fraction reachable
    by trace-preserving local processing."""
    if rho.dim_a != rho.dim_b:
        raise DimensionError("bound requires equal subsystem dimensions")
    return (1.0 + 2.0 * negativity(rho)) / rho.dim_a


def _ascend_unitary(r: np.ndarray, d: int, w0: np.ndarray):
    """Monotone ascent of w -> Re(w^dag R w) over unitary-reshaped w.

    One power step followed by polar projection per iteration; for PSD R each
    step cannot decrease the form.
    """
    w = np.asarray(w0, dtype=complex).reshape(-1)
    y = r @ w
    val = float(np.vdot(w, y).real)
    converged = False
    for _ in range(DEFAULT_MAX_ITER):
        u, _, vh = np.linalg.svd(y.reshape(d, d))
        w_new = (u @ vh).reshape(-1)
        y_new = r @ w_new
        val_new = float(np.vdot(w_new, y_new).real)
        if val_new > val:
            gain = val_new - val
            w, y, val = w_new, y_new, val_new
        else:
            gain = 0.0
        if gain < DEFAULT_TOL:
            converged = True
            break
    return val, w.reshape(d, d), converged


def fef(rho: DensityOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> FefResult:
    """Fully entangled fraction of rho: max over maximally entangled |Phi> of
    <Phi|rho|Phi>, reported as the best value over seeded restarts.

    Restart 0 starts from the identity, the rest from Haar unitaries with
    counter-derived seeds. Deterministic for fixed (seed, restarts). The
    identity restart guarantees value >= <Phi+|rho|Phi+>.
    """
    if rho.dim_a != rho.dim_b:
        raise DimensionError("FEF requires equal subsystem dimensions")
    if restarts < 1:
        raise ValueError("need at least one restart")
    d = rho.dim_a
    r = rho.matrix / d
    best = None
    for k in range(restarts):
        if k == 0:
            w0 = np.eye(d, dtype=complex)
        else:
            w0 = haar_unitary(d, np.random.default_rng([seed, k]))
        val, w, conv = _ascend_unitary(r, d, w0)
        if best is None or val > best[0]:
            best = (val, w, conv)
    _, w, conv = best
    value = fidelity_with(rho, mes_from_unitary(w))
    return FefResult(value=value, maximizer_unitary=w, converged=conv)
