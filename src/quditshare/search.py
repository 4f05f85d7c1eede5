"""Optimization over transmitted input states.

The best input for the Phi+ overlap of the channel output needs no search:
it is ``top_choi_eigenpair(dual(ch)).state``, the dual Choi state's top
eigenvector, with value its largest eigenvalue.

The best output negativity over pure inputs (Vidal & Werner, PRA 65, 032314
(2002)) is concave, and each iterate brackets it. Write psi = vec(A),
sigma = A^dag A, J the Choi state and M = -d J^Gamma. Then rho_psi^Gamma =
-(A (x) I) M (A (x) I)^dag is unitarily equivalent to -K,
K = (sqrt(sigma) (x) I) M (sqrt(sigma) (x) I), so N* = max over density
matrices sigma of g(sigma) = tr K_+, attained by vec(sqrt(sigma));
g(sigma) = max tr(QM) over 0 <= Q <= sigma (x) I is concave, so every local
maximum is global.

Dual point: by SDP weak duality (Watrous, The Theory of Quantum Information,
sec. 1.2), N* <= lambda_max(tr_B Y) for every Y >= M with Y >= 0. A full-rank
sigma gives Y = (sigma^-1/2 (x) I) K_+ (sigma^-1/2 (x) I), with
tr(sigma tr_B Y) = g(sigma); Y - M and Y are congruences of K_- and K_+, so
both are PSD in exact arithmetic. An iterate whose sigma was clipped at
SIGMA_FLOOR has no such Y (its sigma^-1/2 is no inverse of its sigma^1/2) and
gives no bound.

Float correction: each other iterate records a candidate bound
lambda_max(tr_B Y) + d delta + eta, read off the eigh of tr_B Y the step
needs anyway, without forming Y. delta and eta are a-priori rounding
allowances from numbers at hand (tr Y, lambda_max(tr_B Y), and |M|'s diagonal
sum and Frobenius norm, taken once per search), sized to pass the Cholesky
margins below with room. The best candidate is proved once, when it comes
within NEG_DEFAULT_TOL of the best lower, or at the end of a search that
never gets that close: Y is formed from its saved sigma^-1/2 and K_+ and made
exactly Hermitian, one batched Cholesky shows Y - M + delta I >= 0 and
Y + delta I >= 0, and one of order d shows lambda_max(tr_B (Y + delta I)) <=
the bound, each with the rounding margin of Rump's verification of positive
definiteness (BIT 46, 433 (2006); ``measures._cholesky_proves``, which also
proves the FEF certificate). Then Y + delta I is an exact dual point and
``upper`` is the candidate bound, proved for the M formed from the Kraus
list, taken as the data: the rounding in forming M from the Kraus operators
is not covered. When a Cholesky fails, that candidate's bound is the
unproved eigvalsh shift lambda_max(tr_B Y) + d eps, eps = max(0,
-lambda_min(Y - M), -lambda_min(Y)), and ``fallbacks`` counts it; so does an
iterate with g = 0, where K_+ = 0 and the bound 0 that concavity gives cannot
be shown with a margin. A near-singular sigma (condition ~1e11, seen on
searches left open at the iteration cap) magnifies Y's rounding past the
allowance, and its proof falls back.

Iteration: from sigma = I/d, the plain step goes to tr_B K_+ / tr K_+, a
Blahut-Arimoto style update that converges linearly at a rate set by the
channel. So steps are taken on x = log sigma and Anderson-mixed (Walker & Ni,
SIAM J. Numer. Anal. 49, 1715 (2011)) with real coefficients; exp(x) / tr is a
density matrix for any mixture. g need not rise at every step, so the best
iterate is kept. No restarts, no seed; maps that are not trace preserving work
too. If g(I/d) = 0, concavity gives g = 0 everywhere. An eigenvalue of sigma
near 0 grows back only geometrically, so at a rank-deficient optimum the
iterate can settle on a wrong face: ``converged`` is then False, the bracket
loose.

Cost: an iteration makes one eigh of K and one batched eigh of tr_B Y and
the step's target; each but the last also makes the eigh of the next x, and
each but the first and the last one least-squares solve for the Anderson
coefficients. k iterations make 3k - 1 eigh and k - 2 lstsq; the proof adds
two Cholesky calls (one batched pair, one of order d), a fallback one
batched eigvalsh, and the final negativity check one eigvalsh. When M is
real (the damping family, or any channel with a real Choi state) the loop
and the proof run in real arithmetic, as ``one_sided_stack`` does for real
inputs: sigma, K and Y are then real symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_one_sided, choi_state
from .errors import DimensionError, InvalidOperatorError
from .measures import _UNIT_ROUNDOFF, _cholesky_proves, _herm, negativity
from .states import PureBipartiteState, kron_identity, partial_trace_matrix, partial_transpose

NEG_DEFAULT_MAX_ITER = 2000
NEG_DEFAULT_TOL = 1e-9
SIGMA_FLOOR = 1e-12  # on sigma's eigenvalues (inverse root) and the step target's (log)
ANDERSON_DEPTH = 8  # iterates kept for Anderson mixing, at most d^2 - 1
# a candidate bound's shifts exceed the Cholesky margins they must pass by
# this fraction, the room left for the rounding of Y
_PROOF_ROOM = 0.35


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of an input-state search: ``best_state`` reaches ``best_value``
    and ``upper`` bounds the optimum. For the negativity solver ``upper`` is
    the proved bound of one candidate (see the module docstring) when
    ``fallbacks`` is 0; ``fallbacks`` counts the candidates that took the
    unproved eigvalsh shift instead. ``trace`` holds the negativity solver's
    (iteration, lower, candidate bound), one per iteration, the bound inf
    where sigma was clipped."""

    best_state: PureBipartiteState
    best_value: float
    upper: float
    converged: bool = True
    trace: tuple | None = None
    fallbacks: int = 0


def qubit_optimal_fidelity(ch: KrausChannel) -> float:
    """(1 + 2 * negativity(Choi)) / 2, exact for qubit channels only.

    The identity behind it is specific to d = 2; higher dimensions are
    rejected because the analogue fails there, and so are maps that are not
    trace preserving (duals of nonunital channels).
    """
    if ch.dim != 2:
        raise DimensionError(f"exact formula applies to qubit channels only, got d={ch.dim}")
    if not ch.trace_preserving:
        raise InvalidOperatorError("exact formula applies to trace-preserving channels only")
    return (1.0 + 2.0 * negativity(choi_state(ch))) / 2.0


def maximize_negativity_input(
    ch: KrausChannel, restarts: int | None = None, seed: int | None = None
) -> SearchResult:
    """Best output negativity over pure inputs, with a bracket whose ``upper``
    is proved unless ``fallbacks`` says otherwise.

    Runs the fixed point of the module docstring until [best lower, best
    upper] is within ``NEG_DEFAULT_TOL``, or an iterate has g = 0 (at I/d
    that is the optimum: an entanglement-breaking channel stops at [0, 0]),
    or for ``NEG_DEFAULT_MAX_ITER`` iterations. The best candidate bound is
    proved once it is within ``NEG_DEFAULT_TOL`` of the best lower, or at the
    end; each candidate at most once.
    ``best_state`` is vec(sqrt(sigma)) at the best iterate, as ``lower`` is not
    monotone. ``restarts`` and ``seed`` are accepted and ignored.
    """
    d = ch.dim
    m = -d * partial_transpose(choi_state(ch))
    if not m.imag.any():
        # a real M keeps every iterate real symmetric
        m = np.ascontiguousarray(m.real)
    m_terms = float(np.abs(m.diagonal()).sum()), float(np.linalg.norm(m))
    alpha, beta, g_top, g_tr = _allowance(d, m_terms)
    x = np.diag(np.full(d, -np.log(d))).astype(m.dtype)  # log sigma, sigma = I/d
    w, u = np.full(d, 1.0 / d), np.eye(d)  # eigenpairs of sigma, ascending
    best_lower, best_bound, best_upper = -np.inf, np.inf, np.inf
    pending, fallbacks = None, 0  # the best candidate while unproved
    history = []
    scales = np.empty((2, d))  # sigma's eigenvalues to the powers 1/2 and -1/2
    ts = np.empty((2, d, d), m.dtype)  # tr_B Y and t
    # Anderson history: the differences of the last iterates x and of the
    # steps f taken from them, as rows of real views; a ring, so once full
    # the least-squares columns come in ring order, not by age
    depth = min(ANDERSON_DEPTH, d * d - 1) - 1
    size = x.reshape(-1).view(float).size
    dxs, dfs = np.empty((depth, size)), np.empty((depth, size))
    for it in range(NEG_DEFAULT_MAX_ITER):
        np.sqrt(w, out=scales[0])
        np.reciprocal(np.sqrt(np.maximum(w, SIGMA_FLOOR)), out=scales[1])
        roots = (u * scales[:, None, :]) @ u.conj().T  # sigma^1/2 and sigma^-1/2
        lifted = kron_identity(roots[0])
        lam, vec = np.linalg.eigh(lifted @ m @ lifted)
        k_plus = (vec * np.maximum(lam, 0.0)) @ vec.conj().T
        t = ts[1]
        t[...] = partial_trace_matrix(k_plus, d)
        lower = float(np.trace(t).real)
        # one eigh for tr_B Y = sigma^-1/2 t sigma^-1/2 and for the step's
        # target t / lower
        np.matmul(roots[1] @ t, roots[1], out=ts[0])
        tw, tu = np.linalg.eigh(ts)
        bound = np.inf
        if w[0] >= SIGMA_FLOOR:
            # a clipped sigma^-1/2 is no inverse of sigma^1/2: no candidate
            top, tr_y = float(tw[0, -1]), float(tw[0].sum())
            delta = alpha * tr_y + beta
            bound = top + d * delta + (g_top * top + g_tr * tr_y)
        history.append((it, lower, bound))
        if lower > best_lower:
            best_lower, best_root = lower, roots[0]
        if bound < best_bound:
            best_bound, pending = bound, (lower, roots[1], k_plus, top, delta, bound)
        if pending and (best_bound - best_lower <= NEG_DEFAULT_TOL or lower <= 0.0):
            upper, proved = _dual_bound(m, m_terms, *pending)
            best_upper, fallbacks, pending = min(best_upper, upper), fallbacks + (not proved), None
        if best_upper - best_lower <= NEG_DEFAULT_TOL or lower <= 0.0:
            break
        log_target = (tu[1] * np.log(np.maximum(tw[1] / lower, SIGMA_FLOOR))) @ tu[1].conj().T
        xv, fv = x.reshape(-1).view(float), (log_target - x).reshape(-1).view(float)
        x = log_target
        if it:
            # Anderson mixing; real coefficients keep x Hermitian
            np.subtract(xv, xv_prev, out=dxs[(it - 1) % depth])
            np.subtract(fv, fv_prev, out=dfs[(it - 1) % depth])
            kept = min(it, depth)
            coef = np.linalg.lstsq(dfs[:kept].T, fv, rcond=None)[0]
            x = x - (coef @ (dxs[:kept] + dfs[:kept]).view(x.dtype)).reshape(d, d)
        xv_prev, fv_prev = xv, fv
        wx, u = np.linalg.eigh(x)
        shift = wx[-1] + np.log(np.exp(wx - wx[-1]).sum())  # so that tr exp(x) = 1
        x.flat[::d + 1] -= shift
        w = np.exp(wx - shift)
    if pending:
        upper, proved = _dual_bound(m, m_terms, *pending)
        best_upper, fallbacks = min(best_upper, upper), fallbacks + (not proved)
    state = PureBipartiteState(d, best_root.reshape(-1))
    return SearchResult(
        best_state=state,
        best_value=negativity(apply_one_sided(ch, state)),
        upper=best_upper,
        converged=best_upper - best_lower <= NEG_DEFAULT_TOL,
        trace=tuple(history),
        fallbacks=fallbacks,
    )


def _kappa(n: int) -> float:
    """c / (4 (n + 4) u) for the c = sqrt(2) gamma_{2n+2} of
    ``_cholesky_proves``, rounded up by a relative 1e-6, which covers
    1 / (1 - (2n + 2) u) and the rounding of the scales' terms."""
    return math.sqrt(2) * (n + 1) / (2 * (n + 4)) * (1 + 1e-6)


def _allowance(d: int, m_terms: tuple) -> tuple:
    """(alpha, beta, g_top, g_tr): an iterate with lambda_max(tr_B Y) = top
    and tr Y = tr_y gets the a-priori shift delta = alpha tr_y + beta and the
    candidate bound top + d delta + eta, eta = g_top top + g_tr tr_y.

    delta and eta are ``_dual_bound``'s two margins, 4 (order + 4) u times
    its scales, taken 1 + _PROOF_ROOM times, for a Y that is positive
    semidefinite, as in exact arithmetic: sum |Y_ii| = tr Y (and
    sum |Y_ij| <= d^2 tr Y), ||Y||_F <= tr Y, and the order-d matrix has
    trace d top - tr Y. The terms they drop (n delta, d delta, d eta and the
    rounding of the traces) are below 1e-12 of those kept.
    """
    n = d * d
    m_diag, m_fro = m_terms
    room = (1 + _PROOF_ROOM) * 4 * _UNIT_ROUNDOFF
    k_n, k_d = (n + 4) * _kappa(n), (d + 4) * _kappa(d)
    return (room * (k_n + 1), room * (k_n * m_diag + m_fro),
            room * (d * k_d + d), room * ((d + 4) * math.sqrt(d) / 4 - k_d))


def _dual_bound(m: np.ndarray, m_terms: tuple, lower: float, root_inv: np.ndarray,
                k_plus: np.ndarray, top: float, delta: float, bound: float) -> tuple:
    """(upper, proved) for the candidate of an iterate with g = ``lower``,
    sigma^-1/2 = ``root_inv``, K_+ = ``k_plus``, lambda_max(tr_B Y) = ``top``
    and ``_allowance``'s shift ``delta`` and ``bound``; ``m_terms`` =
    (sum |M_ii|, ||M||_F).

    H = (sigma^-1/2 (x) I) K_+ (sigma^-1/2 (x) I), made exactly Hermitian,
    takes one batched Cholesky of (H - M + delta I, H + delta I) and one of
    order d of (bound - d delta) I - tr_B H, both through
    ``_cholesky_proves``. When both complete, Y = H + delta I is an exact
    dual point of the M given (Y >= M, Y >= 0) with lambda_max(tr_B Y) <=
    ``bound``, so ``bound`` is proved. Otherwise, and at g = 0 (where
    K_+ = 0 and concavity gives the bound 0, which no margin can prove), the
    bound is the unproved eigvalsh shift top + d max(0, -lambda_min(H - M),
    -lambda_min(H)).

    The scales are kappa(order) times a bound on the trace of the matrix
    factored, plus a bound on its rounding error over 4 (order + 4) u. The
    pair takes two roundings per entry (H - M, and the shift, itself rounded
    once): trace at most sum |H_ii| + sum |M_ii| + n delta, error at most
    2.01 u (||H||_F + ||M||_F + sqrt(n) delta). The order-d matrix sums d
    entries of H, is made Hermitian, then shifted by bound - d delta - mu,
    which takes two roundings: its trace is d (bound - d delta) - tr H up to
    (n + d + 8) u (d top' + sum |H_ii|), top' = |bound| + d delta, and its
    error at most (d + 4) u sqrt(d) ||H||_F + 4.01 u sqrt(d) top', the
    rounding of bound - d delta counted in it.
    """
    d = root_inv.shape[0]
    n = d * d
    lifted_inv = kron_identity(root_inv)
    h = _herm(lifted_inv @ k_plus @ lifted_inv)
    pair = np.stack((h - m, h))
    if lower > 0.0:
        diag = h.diagonal().real
        h_tr, h_diag = float(diag.sum()), float(np.abs(diag).sum())
        h_fro = float(np.linalg.norm(h))
        m_diag, m_fro = m_terms
        scale = _kappa(n) * (h_diag + m_diag + n * delta) + (h_fro + m_fro + n * delta) / (n + 4)
        top_abs = abs(bound) + d * delta
        trace = (d * (bound - d * delta) - h_tr
                 + (n + d + 8) * _UNIT_ROUNDOFF * (d * top_abs + h_diag))
        reduced = _kappa(d) * max(trace, 0.0) + math.sqrt(d) * h_fro / 4 + d * top_abs / (d + 4)
        if (_cholesky_proves(pair.copy(), delta, scale)
                and _cholesky_proves(-_herm(partial_trace_matrix(h, d)), bound - d * delta,
                                     reduced)):
            return bound, True
    eps = max(0.0, -float(np.linalg.eigvalsh(pair)[:, 0].min()))
    return top + d * eps, False
