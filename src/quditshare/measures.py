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
entries of W, and polar projection of the power step R w to the nearest
unitary ascends that form monotonically. That plain step converges only
linearly, so the ascent takes safeguarded secant (depth-one Anderson) steps
on the map x -> R polar(x) (``_ascend_unitaries``): a step is kept only when
it raises the value, a secant step that gains less than DEFAULT_TOL is
followed by a plain one, and a start stops only on a plain step that gains
less than DEFAULT_TOL. ``fef`` climbs from the identity first. The Lagrange
multiplier at its maximizer gives a family of dual points of the
semidefinite relaxation of that problem, all stationary there, and when a
Cholesky factorization proves one point's bound within CERT_TOL of the
value, the result is returned as ``certified``. One search tries points
of the family: the least-squares point first, with no eigensolve, and, when
``restarts`` - 1 >= d^2, a short quasi-Newton polish from there, at most
_POLISH_POINTS points with one ``eigh`` each. Only when the bracket
stays open do the seeded starts run, as one stack: each iteration makes a
single stacked SVD over the starts still climbing, and a start drops out
when a plain step of its own gains less than DEFAULT_TOL. So every start
takes the steps it would take alone, and the result is bit-for-bit the one
a start-by-start loop gives. An uncertified result is a heuristic lower
bound, reported together with the certified ceiling
min(lambda_max, (tr rho + 2N)/d) (tr rho is 1 unless ``unit_trace`` is
False).

The polish runs only where it may spare a seeded stack of at least d^2
starts (restarts - 1 >= d^2): the 32 default starts of ``measures`` at
d <= 5; fewer starts try the least-squares point alone. The least-squares
point, with no eigensolve, closes most brackets, and the polish costs a
fraction of the seeded stack it may spare, even where it fails (CHANGES.md
records the counts and times measured on the benchmark's measures corpus).
The rule also keeps the polish's eigensolves at order <= 25 for the default
starts: above that numpy's ``eigh`` takes LAPACK's divide-and-conquer path,
which runs threaded BLAS and spends CPU time out of proportion to its wall
time.

One routine, ``_identity_starts``, runs the identity start on a stack
(n, d^2, d^2) of operators of one d: at d = 2 every magic-basis eigensolve
is one stacked ``eigh``; at d >= 3 the starts climb as one stack, each
against its own copy of rho / d. Every value is read from one stacked
overlap <Phi_W|rho|Phi_W>, with no maximally entangled state built per
result. ``fef`` runs it on its one operator, then tries the bracket and,
when it stays open, climbs the seeded starts as above. ``fef_batch`` runs
it on the stack ``audit`` holds and returns the values alone, each bit for
bit ``fef(rho, restarts=1).value``; it tries no bracket, as ``audit`` reads
no certificate. The copies cost 16 d^4 bytes per operator, so callers with
many operators pass them in batches (``audit`` sizes each batch by the
outputs and their copies alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import complex_gaussian, haar_from_gaussian
from .states import EIG_CLAMP, DensityOperator, kron_identity, overlaps, partial_transpose_matrix

DEFAULT_RESTARTS = 32
DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-9
# a certified FEF value is within CERT_TOL of the optimum
CERT_TOL = 1e-8
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# the dual-point search of _certified when it polishes: points tried at
# most, smoothing temperature of lambda_max, L-BFGS memory
_POLISH_POINTS = 16
_POLISH_MU = 1e-3
_POLISH_MEMORY = 6

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
    state beats ``value`` by more than CERT_TOL (always true at d = 2); at
    d >= 3 the least-squares or, when restarts - 1 >= d^2, a polished dual
    point proved it for the identity start's value, and no seeded start ran.
    """

    value: float
    maximizer_unitary: np.ndarray
    converged: bool
    certified: bool


def negativity_of_matrix(matrix: np.ndarray, d: int):
    """Negativity from a raw d^2 x d^2 density matrix (no container checks);
    for a stack (n, d^2, d^2), an array of the n negativities from one
    ``eigvalsh``."""
    eigs = np.linalg.eigvalsh(partial_transpose_matrix(matrix, d))
    sums = _negativity_of_spectra(eigs.reshape(-1, d * d))
    return float(sums[0]) if eigs.ndim == 1 else sums


def _negativity_of_spectra(eigs: np.ndarray) -> np.ndarray:
    """The negativities of the n partial-transpose spectra in the rows of
    eigs (n, m), in any order: eigenvalues in (-EIG_CLAMP, 0) are clamped to
    zero as eigensolver noise, and the rest of the negative ones summed."""
    eigs = np.where((eigs > -EIG_CLAMP) & (eigs < 0.0), 0.0, eigs)
    negative = eigs < 0.0
    # counted as an intp sum, and grouped by bincount: np.count_nonzero
    # along an axis sums through a cast that added 0.6 MB of peak RSS to a
    # sweep, and np.unique's first call adds 1.7 MB
    counts = negative.astype(np.intp).sum(axis=1)
    sizes = np.bincount(counts)
    sums = np.empty(len(eigs))
    # the rows with k negative eigenvalues are summed as one (rows, k) array
    # of their negatives in row order: a row sum of a contiguous array adds
    # in the order a sum of that row alone does, where a sum over a padded
    # or masked row could group the terms differently; 0.0 - sum gives
    # +0.0, not -0.0, when there is none (k = 0), and -sum otherwise. When
    # every row has the same k (one spectrum; a sweep chunk), the group is
    # the whole stack, taken with no row selection
    for k in np.flatnonzero(sizes):
        rows = slice(None) if sizes[k] == len(eigs) else counts == k
        sums[rows] = 0.0 - eigs[rows][negative[rows]].reshape(sizes[k], k).sum(axis=1)
    return sums


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

    Each iteration polar-projects one input x per climbing start with one
    stacked SVD, w_new = polar(x), and takes y_new = R w_new. The plain step
    takes x = y = R w of the start's point, a fixed-point iteration of
    G(x) = R polar(x). A depth-one Anderson (secant) step on G (Walker & Ni,
    SIAM J. Numer. Anal. 49, 1715 (2011)) takes x = y - gamma (y - y_prev),
    gamma = Re<df, f> / <df, df>, where f = y - x_y is the residual of the
    step that gave y, and y - y_prev and df are how y and f changed over the
    last kept step; a start's first step is from input w0, as polar(w0) =
    w0. gamma is 0, a plain step, when <df, df> is 0: at a start and after
    a cleared history. It is also 0 when gamma >= 1: for a residual that
    changes by a factor rho per step, gamma = rho / (rho - 1), so gamma >= 1
    means rho > 1, a mode the start climbs away from (a saddle), and the
    secant step would head back to it.

    A step is kept only if it raises the value, so the ascent is monotone.
    A secant step that gains less than DEFAULT_TOL, or loses, keeps any
    gain, clears the start's history (its next step is plain), and the
    start climbs on; a start leaves at the first plain step that gains less
    than DEFAULT_TOL, keeping that step only if it gained, so a converged
    start is one whose plain step gains less than DEFAULT_TOL, as without
    the secant steps. DEFAULT_MAX_ITER counts iterations, one stacked SVD
    each, and the ascent returns once no start is climbing (at once for an
    empty stack). The climbing starts' w, y, f, history, values and
    operators are kept as compact stacks, and a start is written to the
    results only when it leaves (or at DEFAULT_MAX_ITER). matmul against
    w[..., None] and vecdot round each start on its own (einsum and a GEMM
    do not), and gamma and every update are per start, so every start ends
    bit-identical to a run on its own. Returns the per-start values,
    unitaries and converged flags.
    """
    n = w0.shape[0]
    w = w0.reshape(n, d * d).astype(complex)
    y = np.matmul(r, w[..., None])[..., 0]
    val = np.vecdot(w, y).real
    # polar(w0) = w0, so the start is the step from input w0 to output y
    f = y - w
    dy, df = np.zeros_like(y), np.zeros_like(y)
    w_out, val_out = np.empty_like(w), np.empty_like(val)
    converged = np.zeros(n, dtype=bool)
    index = np.arange(n)
    for _ in range(DEFAULT_MAX_ITER):
        if not index.size:
            break
        # gamma is 0, a plain step (x = y), with no history (df = dy = 0)
        # and where gamma >= 1 models a mode the start climbs away from
        den = np.vecdot(df, df).real
        gamma = np.vecdot(df, f).real / np.where(den > 0, den, np.inf)
        gamma[gamma >= 1.0] = 0.0
        x = y - gamma[:, None] * dy
        u, _, vh = np.linalg.svd(x.reshape(-1, d, d))
        w_new = (u @ vh).reshape(-1, d * d)
        y_new = np.matmul(r, w_new[..., None])[..., 0]
        val_new = np.vecdot(w_new, y_new).real
        up = val_new > val
        small = ~up | (val_new - val < DEFAULT_TOL)
        f_new = y_new - x
        dy, df = y_new - y, f_new - f
        # a start keeps its point where the step lost
        if not up.all():
            lost = ~up
            for new, old in ((w_new, w), (y_new, y), (f_new, f), (val_new, val)):
                new[lost] = old[lost]
        # a step that gains less than DEFAULT_TOL clears its start's history
        if small.any():
            dy[small] = 0.0
            df[small] = 0.0
        w, y, f, val = w_new, y_new, f_new, val_new
        # only a plain step ends a start
        done = small & (gamma == 0)
        leaving = np.count_nonzero(done)
        if leaving:
            left = index[done]
            w_out[left], val_out[left] = w[done], val[done]
            converged[left] = True
            # the last staying starts take the leaving ones' places, so a
            # per-start r shrinks in place; the stacked SVD factors each
            # matrix on its own, so the order changes no result
            stay = index.size - leaving
            dst = np.flatnonzero(done[:stay])
            src = stay + np.flatnonzero(~done[stay:])
            for stack in (index, w, y, f, dy, df, val):
                stack[dst] = stack[src]
            index, w, y, f, dy, df, val = (
                stack[:stay] for stack in (index, w, y, f, dy, df, val))
            if r.ndim == 3:
                r[dst] = r[src]
                r = r[:stay]
    w_out[index], val_out[index] = w, val
    return val_out, w_out.reshape(n, d, d), converged


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


def _herm(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of m; exactly Hermitian, as fl(x + y) = fl(y + x)."""
    return 0.5 * (m + m.conj().T)


def _adjoint(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """L*(G) = tr_B G - W (tr_A G)^T W^dag, adjoint of the map
    L(C) = C (x) I - I (x) (W^dag C W)^T along which M(C) moves."""
    d = w.shape[0]
    g4 = g.reshape(d, d, d, d)
    return g4.trace(axis1=1, axis2=3) - w @ g4.trace(axis1=0, axis2=2).T @ w.conj().T


def _cholesky_proves(a: np.ndarray, shift: float, scale: float) -> bool:
    """True when a Cholesky proves A + shift I >= 0 for every A of a stack
    (..., n, n) of Hermitian matrices, ``a`` their computed images, exactly
    Hermitian (the Cholesky reads one triangle only); ``a`` is overwritten.

    The Cholesky is of B = a + (shift - mu) I, mu = 4 (n + 4) u ``scale``, u
    the unit roundoff, and must run to completion for every matrix. After
    Rump's verification of positive definiteness (BIT 46, 433 (2006)), a
    completed floating-point Cholesky of a Hermitian B of order n leaves
    B + c tr(B) I >= 0, where c = sqrt(2) gamma_{2n+2}, gamma_k =
    k u / (1 - k u): Rump's real-arithmetic gamma_{n+1}, as a complex inner
    product of length k rounds like a real one of length 2k in each part.
    So A + shift I >= 0 whenever mu >= c tr(B) + e, with e a bound on the
    spectral norm of B's rounding error B - (A + (shift - mu) I); the
    caller's ``scale`` makes it so. c < 0.71 * 4 (n + 4) u for every n, so
    scale >= 3 tr(B) / 4 + e / (4 (n + 4) u) is enough.
    """
    n = a.shape[-1]
    # a writable view of every diagonal, whatever a's strides
    np.einsum("...ii->...i", a)[...] += shift - 4 * (n + 4) * _UNIT_ROUNDOFF * scale
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _proves(neg_m: np.ndarray, tau: float, ab_abs: float, value: float,
            r_abs: float) -> bool:
    """True when ``_cholesky_proves`` shows lambda_max(M) <= t0 = (value +
    CERT_TOL - tau) / d, where M = R_h - A (x) I - I (x) B for a dual point
    (A, B) of exactly Hermitian matrices with tr A + tr B <= tau and
    sum |A_ij| + sum |B_ij| <= ab_abs, r_abs = sum |R_h,ij|, and ``neg_m``,
    which is overwritten, is -M formed from rho, A and B in at most six
    roundings per entry, R = rho / d and R_h among them: then no maximally
    entangled state beats ``value`` by more than CERT_TOL
    (``_certified`` gives the bound).

    The Cholesky is of t I - M, t = t0 - mu. Forming it from -M costs one
    more rounding per entry, so seven in all, on terms of absolute entry sum
    at most 2 S. The margin

        mu = 4 (n + 4) u S,  S = n |t0| + |value| + r_abs + d ab_abs,

    n = d^2, covers c tr + e (see ``_cholesky_proves``), and the rounding
    of t0, for every n >= 1: S bounds the absolute entry sum, so the trace
    and the Frobenius norm, of every term of t I - M, so c tr + e <=
    (2 sqrt(2) (n + 1) + 14) u S <= mu.
    """
    n = neg_m.shape[0]
    d = math.isqrt(n)
    t0 = (value + CERT_TOL - tau) / d
    return _cholesky_proves(neg_m, t0, n * abs(t0) + abs(value) + r_abs + d * ab_abs)


def _certified(r: np.ndarray, w: np.ndarray, value: float, points: int) -> bool:
    """True when a dual point proves that no maximally entangled state beats
    ``value`` by more than CERT_TOL, r = rho / d, w the ascent's unitary;
    at most ``points`` points are tried, each proved by ``_proves``.

    Relaxing ww^dag to X >= 0 with both marginals I (WW^dag = W^dag W = I)
    gives, for any Hermitian A and B (Nemirovski, Math. Program. 109, 283
    (2007)), FEF <= tr A + tr B + d lambda_max(R - A (x) I - I (x) B).
    At the ascent's maximizer, reshape(R w) = X W with the multiplier
    X = Herm(reshape(R w) W^dag) Hermitian, so every point A = X - C,
    B = Herm(W^dag C W)^T of the family over Hermitian C has
    tr A + tr B = tr X = ``value`` and M(C) = R_h - A (x) I - I (x) B with
    M(C) w = 0 (R_h is R made exactly Hermitian, as the Cholesky of
    ``_proves`` reads one triangle only): the bracket is closed where
    lambda_max(M(C)) <= CERT_TOL / d, up to ``_proves``'s margin.

    M(C) = M(0) + L(C) (see ``_adjoint``), and L*L C = 2 d C on traceless C
    while L(I) = 0, so the least-squares point, where ||M(C)||_F is least,
    is C = X/2 - Herm(L*(M(X/2))) / (2 d), with no eigensolve; it is tried
    first. L*(M(X/2)) = L*(R_h) exactly, so M(X/2) is never built: at
    C = X/2, A = X/2 and B = Herm(W^dag C W)^T, and L*(A (x) I) =
    d A - tr A I while L*(I (x) B) = tr B I - d W B^T W^dag = tr B I - d C,
    so the two cancel, as tr A = tr B = tr X / 2. From there an L-BFGS
    descent (memory _POLISH_MEMORY, Armijo backtracking) lowers
    lambda_max(M(C)) smoothed as mu log tr exp(M(C) / mu), mu = _POLISH_MU,
    whose gradient L*(softmax of M(C)'s spectrum) takes one ``eigh``; every
    point that fails, but the last allowed, takes that ``eigh``. Every point
    is a real combination of exactly Hermitian matrices, so A and B are
    exactly Hermitian, as ``_proves`` needs.
    """
    d = w.shape[0]
    x = _herm((r @ w.reshape(-1)).reshape(d, d) @ w.conj().T)
    rh = _herm(r)
    r_abs = np.abs(rh).sum()
    tried = 0

    def point(c):
        """(A, B, M) at C; M takes two roundings per entry after R_h."""
        a, b = x - c, _herm(w.conj().T @ c @ w).T
        return a, b, rh - (kron_identity(a) + kron_identity(b, first=False))

    def trial(c):
        """(proved, smoothed lambda_max, gradient); no eigh, and None for
        both, when C is proved or was the last point allowed."""
        nonlocal tried
        tried += 1
        a, b, m = point(c)
        tau = a.trace().real + b.trace().real
        if _proves(-m, tau, np.abs(a).sum() + np.abs(b).sum(), value, r_abs):
            return True, None, None
        if tried == points:
            return False, None, None
        lam, vecs = np.linalg.eigh(m)
        weights = np.exp((lam - lam[-1]) / _POLISH_MU)
        total = weights.sum()
        smooth = lam[-1] + _POLISH_MU * np.log(total)
        return False, smooth, _herm(_adjoint((vecs * (weights / total)) @ vecs.conj().T, w))

    c = _herm(0.5 * x - _adjoint(rh, w) / (2 * d))
    proved, f, grad = trial(c)
    memory = []
    while grad is not None:
        direction = -_lbfgs_apply(grad, memory, 1.0 / (2 * d))
        slope = np.vecdot(grad.ravel(), direction.ravel()).real
        step = 1.0
        while True:
            c_new = c + step * direction
            proved, f_new, grad_new = trial(c_new)
            if grad_new is None:
                return proved
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        s, y = (c_new - c).ravel(), (grad_new - grad).ravel()
        sy = np.vecdot(s, y).real
        if sy > 0:
            memory = [*memory[1 - _POLISH_MEMORY:], (s, y, 1.0 / sy)]
        c, f, grad = c_new, f_new, grad_new
    return proved


def _lbfgs_apply(grad: np.ndarray, memory: list, scale: float) -> np.ndarray:
    """The L-BFGS two-loop product H grad for the pairs (s, y, 1 / s.y) of
    flattened matrices in ``memory``, oldest first; H_0 = (s.y / y.y) I from
    the newest pair, or ``scale`` I when there is none."""
    q = grad.flatten()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * np.vecdot(s, q).real
        q -= alpha * y
        alphas.append(alpha)
    if memory:
        s, y, _ = memory[-1]
        scale = np.vecdot(s, y).real / np.vecdot(y, y).real
    q *= scale
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * np.vecdot(y, q).real) * s
    return q.reshape(grad.shape)


def _mes_overlaps(mats: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """``overlaps`` of a stack of operators (n, d^2, d^2) with Phi_W =
    (W (x) I)|Phi+>, whose amplitudes are W / sqrt(d), for their unitaries
    (n, d, d), or one (d, d) for all."""
    d = ws.shape[-1]
    return overlaps(mats, ws.reshape(*ws.shape[:-2], d * d) / np.sqrt(d))


def _identity_starts(mats: np.ndarray):
    """The identity start of ``fef`` for each operator of a stack (n, d^2,
    d^2) of one d: its ascent values against rho / d, its unitaries W and its
    converged flags. At d = 2 every W is exact, from one stacked magic-basis
    ``eigh``, and the values are None; at d >= 3 the starts climb as one
    stack, each against its own copy of rho / d.
    """
    n, d = mats.shape[0], math.isqrt(mats.shape[-1])
    if d == 2:
        _, vecs = np.linalg.eigh((_MAGIC.conj().T @ mats @ _MAGIC).real)
        return None, (_MAGIC @ vecs[..., -1:]).reshape(n, 2, 2), np.ones(n, dtype=bool)
    return _ascend_unitaries(mats / d, d, np.eye(d)[None].repeat(n, axis=0))


def fef(rho: DensityOperator, restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> FefResult:
    """Fully entangled fraction of rho: max over maximally entangled |Phi> of
    <Phi|rho|Phi>.

    At d = 2 the value is exact: the top eigenvector x of Re(M^dag rho M) in
    the magic basis M gives the maximizer W = sqrt(2) reshape(M x), with no
    ascent, so ``converged`` and ``certified`` are true and
    ``restarts``/``seed`` are not used; the value is the overlap of that
    maximizer, equal to the top eigenvalue up to rounding.
    At d >= 3 the identity start ascends alone first. If a dual point closes
    the bracket (``_certified``: the least-squares point, and, when
    ``restarts`` - 1 >= d^2, the polish from it), its result is returned with
    ``certified`` true: no maximally entangled state beats ``value`` by more
    than CERT_TOL. Otherwise the other ``restarts`` - 1 starts, Haar unitaries
    drawn from default_rng([seed, k]) for k >= 1, ascend together as one
    stack against rho, and the first start with the highest value wins, with
    ``certified`` false. So ``restarts`` is a cap on the starts, and an open
    bracket gives the same result as ascending all starts at once.
    Deterministic for fixed (seed, restarts). Either way
    value >= <Phi+|rho|Phi+>, and ``restarts`` must be at least 1.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    d, mats = rho.dim, rho.matrix[None]
    vals, ws, converged = _identity_starts(mats)
    value = _mes_overlaps(mats, ws)
    if d == 2:
        return FefResult(value.item(), ws[0], True, True)
    r = rho.matrix / d
    # the polish runs where it may spare a seeded stack of at least d^2 starts
    points = _POLISH_POINTS if restarts - 1 >= d * d else 1
    certified = _certified(r, ws[0], value.item(), points)
    if not certified and restarts > 1:
        more = _ascend_unitaries(r, d, _seeded_starts(d, restarts, seed)[1:])
        # the identity start first, then the seeded ones, as one stack of all orders them
        best = int(np.argmax(np.concatenate((vals, more[0]))))
        if best:
            ws, converged = more[1][best - 1:best], more[2][best - 1:best]
            value = _mes_overlaps(mats, ws)
    return FefResult(value.item(), ws[0], bool(converged[0]), certified)


def fef_batch(mats: np.ndarray) -> np.ndarray:
    """The (n,) array of ``fef(rho, restarts=1).value`` for every operator in
    a stack (n, d^2, d^2) of valid density matrices of one d, each bit for
    bit the one-operator call's; no seeded start runs and no bracket is
    tried. The ascent holds a copy of the stack, so a batch costs two
    complex d^2 x d^2 matrices per operator, and callers cut a long stack
    into batches of that footprint. A stack climbs until its slowest start
    stops, so larger batches take fewer iterations per operator.
    """
    return _mes_overlaps(mats, _identity_starts(mats)[1])
