"""Entanglement figures of merit for channel outputs.

Negativity is computed from the partial-transpose spectrum. The fully entangled
fraction (FEF), the largest overlap of rho with a maximally entangled state, is
exact at d = 2; at d >= 3 an ascent finds it, certified within CERT_TOL of the
optimum when a dual bound closes the bracket.

At d = 2 the real unit combinations of the magic basis are exactly the
maximally entangled states up to a global phase (Hill & Wootters, PRL 78, 5022
(1997)), so the FEF is lambda_max of the real part of rho in that basis
(Verstraete & Verschelde, PRA 66, 022307 (2002)): one real 4 x 4 eigensolve.

At d >= 3 it is maximized over the manifold of maximally entangled states by
a projected power iteration: every maximally entangled state is (W (x) I)|Phi+>
for a unitary W, the overlap is a positive-semidefinite quadratic form in the
entries of W, and alternating a power step with polar projection to the nearest
unitary ascends that form monotonically. ``fef`` climbs from the identity
first. The Lagrange multiplier at its maximizer is a dual point of the
semidefinite relaxation of that problem, and when a Cholesky factorization
proves that point's bound within CERT_TOL of the value, the result is
returned as ``certified``. Only otherwise do the seeded starts run, as one
stack: each iteration makes a single stacked SVD over the starts still
climbing, and a start drops out when its own gain falls below DEFAULT_TOL. So
every start takes the steps it would take alone, and the result is
bit-for-bit the one a start-by-start loop gives. An uncertified result is a
heuristic lower bound, reported together with the certified ceiling
min(lambda_max, (tr rho + 2N)/d) (tr rho is 1 unless ``unit_trace`` is
False).

``fef_batch`` runs the same ascent for a list of operators of one d, and
``fef`` is its one-operator case. The identity starts of all operators climb
as one stack, each against its own operator; the seeded starts are drawn once
for the whole list and those of every operator whose bracket stays open climb
as a second stack. Each result is bit for bit the one-operator call's. A
stack of several operators holds one operator copy per start, so callers cut
long lists into batches of ``fef_batch_size(d, restarts)`` operators, which
keeps those copies within FEF_BATCH_BYTES.
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
# a certified FEF value is within CERT_TOL of the optimum
CERT_TOL = 1e-8
# splits a of the dual multiplier between the two marginal constraints, in
# the order _bracket_closed tries them
_CERT_SPLITS = (0.5, 0.75, 0.25, 1.0, 0.0)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# bytes of operator copies one fef_batch call may stack (fef_batch_size)
FEF_BATCH_BYTES = 1024 * 1024

# Hill & Wootters' magic basis, scaled by sqrt(2), as columns over |00>, |01>,
# |10>, |11>. For a real unit x, reshape(_MAGIC x) is the unitary
# W = x_1 I + i x_2 Z + i x_3 X + x_4 iY, built without rounding, and (W (x) I)
# |Phi+> runs over every two-qubit maximally entangled state.
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]])


@dataclass(frozen=True, eq=False)
class FefResult:
    """Best maximally entangled overlap found, with its maximizer.

    ``converged``: the winning start stopped on a gain below DEFAULT_TOL
    rather than at DEFAULT_MAX_ITER. ``certified``: no maximally entangled
    state beats ``value`` by more than CERT_TOL (always true at d = 2).
    """

    value: float
    maximizer_unitary: np.ndarray
    converged: bool
    certified: bool


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

    r is one operator shared by every start, shape (d^2, d^2), or one per
    start, shape (n, d^2, d^2), which is overwritten: a leaving start's
    operator is replaced by that of a start still climbing.
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
        leaving = np.count_nonzero(done)
        if leaving:
            converged[active[done]] = True
            if leaving == active.size:
                break
            # the last staying starts take the leaving ones' places, so a
            # per-start r shrinks in place; the stacked SVD factors each
            # matrix on its own, so the order changes no result
            stay = active.size - leaving
            dst = np.flatnonzero(done[:stay])
            src = stay + np.flatnonzero(~done[stay:])
            active[dst] = active[src]
            active = active[:stay]
            if r.ndim == 3:
                r[dst] = r[src]
                r = r[:stay]
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


def _bracket_closed(r: np.ndarray, w: np.ndarray, value: float) -> bool:
    """True when a dual point proves that no maximally entangled state beats
    ``value`` by more than CERT_TOL; r = rho / d, w the ascent's unitary.

    Relaxing ww^dag to X >= 0 with both marginals I (WW^dag = W^dag W = I)
    gives, for any Hermitian A and B (Nemirovski, Math. Program. 109, 283
    (2007)), FEF <= tr A + tr B + d lambda_max(R - A (x) I - I (x) B).
    The point is read off w: the multiplier Lam = Herm(Y W^dag) with
    Y = reshape(R w), and B_0 = Herm(W^dag Lam W)^T, split as A = a Lam and
    B = (1 - a) B_0 for each a in _CERT_SPLITS. As tr A + tr B is at most
    max(tr Lam, tr B_0) =: tau, the bracket is closed when some
    M_a = R - A (x) I - I (x) B has lambda_max(M_a) <= t0, where
    t0 = (value + CERT_TOL - tau) / d.

    That is proved by a Cholesky of t I - M_a, t = t0 - mu, that runs to
    completion, after Rump's verification of positive definiteness (BIT 46,
    433 (2006)): a completed floating-point Cholesky of a Hermitian matrix of
    order n = d^2 leaves it within c tr of positive semidefinite, where
    c = sqrt(2) gamma_{2n+2}, gamma_k = k u / (1 - k u): Rump's
    real-arithmetic gamma_{n+1}, as a complex inner product of length k
    rounds like a real one of length 2k in each part. Forming t I - M_a from
    rho costs at most seven more roundings per entry, on terms of absolute
    entry sum at most 2 S. The margin

        mu = 4 (n + 4) u S,  S = n |t0| + |value| + sum |R_ij|
                                 + d (sum |Lam_ij| + sum |B_0,ij|),

    u the unit roundoff, covers both (and the rounding of t0) for every
    n >= 1: S bounds the absolute entry sum, so the trace and the Frobenius
    norm, of every term of t I - M_a.
    """
    d = w.shape[0]
    n = d * d
    y = (r @ w.reshape(-1)).reshape(d, d)
    x = y @ w.conj().T
    lam = 0.5 * (x + x.conj().T)
    z = w.conj().T @ lam @ w
    b0 = 0.5 * (z + z.conj().T).T
    # cholesky reads one triangle only, so R is made exactly Hermitian
    rh = 0.5 * (r + r.conj().T)
    t0 = (value + CERT_TOL - max(lam.trace().real, b0.trace().real)) / d
    scale = (n * abs(t0) + abs(value) + np.abs(rh).sum()
             + d * (np.abs(lam).sum() + np.abs(b0).sum()))
    eye = np.eye(d)
    # Lam (x) I and I (x) B_0, entry [(i, k), (j, l)] at [i, k, j, l]
    lam_i = (lam[:, None, :, None] * eye[None, :, None, :]).reshape(n, n)
    i_b0 = (eye[:, None, :, None] * b0[None, :, None, :]).reshape(n, n)
    # t I - M_a = base + a (Lam (x) I - I (x) B_0)
    base = i_b0 - rh
    base.flat[::n + 1] += t0 - 4 * (n + 4) * _UNIT_ROUNDOFF * scale
    diff = lam_i - i_b0
    for a in _CERT_SPLITS:
        try:
            np.linalg.cholesky(base + a * diff)
        except np.linalg.LinAlgError:
            continue
        return True
    return False


def fef(rho: DensityOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> FefResult:
    """Fully entangled fraction of rho: max over maximally entangled |Phi> of
    <Phi|rho|Phi>.

    At d = 2 the value is exact: the top eigenvector x of Re(M^dag rho M) in
    the magic basis M gives the maximizer W = sqrt(2) reshape(M x), with no
    ascent, so ``converged`` and ``certified`` are true and
    ``restarts``/``seed`` are not used; the value is the overlap of that
    maximizer, equal to the top eigenvalue up to rounding.
    At d >= 3 the identity start ascends alone first. If its dual point
    closes the bracket (``_bracket_closed``), its result is returned with
    ``certified`` true: no maximally entangled state beats ``value`` by more
    than CERT_TOL. Otherwise the other ``restarts`` - 1 starts, Haar unitaries
    drawn from default_rng([seed, k]) for k >= 1, ascend together as one
    stack, and the first start with the highest value wins, with
    ``certified`` false. So ``restarts`` is a cap on the starts, and an open
    bracket gives the same result as ascending all starts at once.
    Deterministic for fixed (seed, restarts). Either way
    value >= <Phi+|rho|Phi+>, and ``restarts`` must be at least 1.
    This is ``fef_batch`` on one operator.
    """
    return fef_batch([rho], restarts, seed)[0]


def _fef_qubit(rho: DensityOperator) -> FefResult:
    _, vecs = np.linalg.eigh((_MAGIC.conj().T @ rho.matrix @ _MAGIC).real)
    w = (_MAGIC @ vecs[:, -1]).reshape(2, 2)
    return FefResult(value=fidelity_with(rho, mes_from_unitary(w)),
                     maximizer_unitary=w, converged=True, certified=True)


def fef_batch_size(d: int, restarts: int) -> int:
    """How many d^2 x d^2 operators one ``fef_batch`` call may take so that
    its stacks, one operator copy per start in the worst case that every
    bracket stays open, hold at most FEF_BATCH_BYTES (at least one)."""
    return max(1, FEF_BATCH_BYTES // (16 * d**4 * restarts))


def fef_batch(rhos: list[DensityOperator], restarts: int = DEFAULT_RESTARTS,
              seed: int = 0) -> list[FefResult]:
    """``fef(rho, restarts, seed)`` of every operator in ``rhos``, all of one
    dimension d, each result bit for bit the one-operator call's; the module
    docstring says how the starts are stacked. A lone operator is shared by
    all its starts, so a one-operator call copies no operator; a longer list
    holds a copy per start, so callers cut it into batches of
    ``fef_batch_size(d, restarts)``.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if not rhos:
        return []
    d = rhos[0].dim
    if d == 2:
        return [_fef_qubit(rho) for rho in rhos]
    rs = [rho.matrix / d for rho in rhos]
    identities = np.eye(d)[None].repeat(len(rs), axis=0)
    vals, ws, converged = _ascend_unitaries(_stack(rs, 1), d, identities)
    results = []
    for rho, r, w, conv in zip(rhos, rs, ws, converged):
        value = fidelity_with(rho, mes_from_unitary(w))
        closed = _bracket_closed(r, w, value)
        results.append(FefResult(value=value, maximizer_unitary=w, converged=bool(conv),
                                 certified=True) if closed else None)
    open_ = [i for i, res in enumerate(results) if res is None]
    k = restarts - 1
    if k and open_:
        # open operator j owns the seeded starts j k .. (j + 1) k - 1
        seeded = np.concatenate([_seeded_starts(d, restarts, seed)[1:]] * len(open_))
        more = _ascend_unitaries(_stack([rs[i] for i in open_], k), d, seeded)
    for j, i in enumerate(open_):
        # the identity start first, then the seeded ones, as one call stacks them
        start_vals, start_ws, start_conv = vals[i:i + 1], ws[i:i + 1], converged[i:i + 1]
        if k:
            own = slice(j * k, (j + 1) * k)
            start_vals, start_ws, start_conv = (
                np.concatenate((mine, part[own]))
                for mine, part in zip((start_vals, start_ws, start_conv), more))
        best = int(np.argmax(start_vals))
        w = start_ws[best]
        results[i] = FefResult(value=fidelity_with(rhos[i], mes_from_unitary(w)),
                               maximizer_unitary=w, converged=bool(start_conv[best]),
                               certified=False)
    return results


def _stack(rs: list, copies: int) -> np.ndarray:
    """The operators of a stack of starts: a lone operator as it is, shared
    by broadcast, else ``copies`` consecutive copies of each."""
    if len(rs) == 1:
        return rs[0]
    return np.stack([r for r in rs for _ in range(copies)])
