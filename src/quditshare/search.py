"""Optimization over transmitted input states.

The best input for the Phi+ overlap of the channel output is exact: the top
eigenvector of the dual-map Choi state, with value its largest eigenvalue.

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
tr(sigma tr_B Y) = g(sigma). Float correction: for
eps = max(0, -lambda_min(Y - M), -lambda_min(Y)), Y + eps I is feasible as
far as the computed eigenvalues tell, so upper = lambda_max(tr_B Y) + d eps
bounds N* for any computed Y up to eigensolver rounding. eps and
lambda_max(tr_B Y) come from floating-point eigensolves with no rounding
margin, so ``upper`` may sit below N* by an amount of order d^2 u ||M||
(u the unit roundoff). A rounding-proved ``upper`` waits for a
rounding-proved bound helper like the Cholesky test of ``measures``.

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

Cost: an iteration makes one eigh of K, one batched eigvalsh for
lambda_min(Y - M) and lambda_min(Y), and one batched eigh of tr_B Y and the
step's target; each but the last also makes the eigh of the next x, and
each but the first and the last one least-squares solve for the Anderson
coefficients. k iterations and the final negativity check make 3k - 1 eigh,
k + 1 eigvalsh and k - 2 lstsq. When M is real (the damping family, or any
channel with a real Choi state) the loop runs in real arithmetic, as
``one_sided_stack`` does for real inputs: sigma, K and Y are then real
symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _dual_top_choi_eigenpair, apply_one_sided, choi_state
from .errors import DimensionError, InvalidOperatorError
from .measures import negativity
from .states import PureBipartiteState, kron_identity, partial_trace_matrix, partial_transpose

NEG_DEFAULT_MAX_ITER = 2000
NEG_DEFAULT_TOL = 1e-9
SIGMA_FLOOR = 1e-12  # on sigma's eigenvalues (inverse root) and the step target's (log)
ANDERSON_DEPTH = 8  # iterates kept for Anderson mixing, at most d^2 - 1


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of an input-state search: ``best_state`` reaches ``best_value``,
    ``upper`` bounds the optimum up to eigensolver rounding (see the module
    docstring), and ``trace`` holds the negativity solver's (iteration,
    lower, upper), one per iteration."""

    best_state: PureBipartiteState
    best_value: float
    upper: float
    converged: bool = True
    trace: tuple | None = None


def best_phiplus_fidelity_input(ch: KrausChannel) -> SearchResult:
    """Exact maximizer of <Phi+| rho_{psi,ch} |Phi+> over pure inputs psi.

    The overlap equals <psi| rho_{Phi+, dual} |psi>, so the maximum is the top
    dual-Choi eigenpair; no heuristics involved. It is read off the
    channel's own Choi state, whose spectrum the dual's shares.
    """
    top = _dual_top_choi_eigenpair(ch)
    return SearchResult(best_state=top.state, best_value=top.value, upper=top.value)


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
    """Best output negativity over pure inputs, with a bracket that holds up
    to eigensolver rounding.

    Runs the fixed point of the module docstring until [best lower, best upper]
    is within ``NEG_DEFAULT_TOL``, or an iterate has g = 0 (at I/d that is the
    optimum: an entanglement-breaking channel stops at [0, 0]), or for
    ``NEG_DEFAULT_MAX_ITER`` iterations.
    ``best_state`` is vec(sqrt(sigma)) at the best iterate, as ``lower`` is not
    monotone. ``restarts`` and ``seed`` are accepted and ignored.
    """
    d = ch.dim
    m = -d * partial_transpose(choi_state(ch))
    if not m.imag.any():
        # a real M keeps every iterate real symmetric
        m = np.ascontiguousarray(m.real)
    x = np.diag(np.full(d, -np.log(d))).astype(m.dtype)  # log sigma, sigma = I/d
    w, u = np.full(d, 1.0 / d), np.eye(d)  # eigenpairs of sigma
    best_lower, best_upper = -np.inf, np.inf
    history = []
    scales = np.empty((2, d))  # sigma's eigenvalues to the powers 1/2 and -1/2
    ys = np.empty((2, d * d, d * d), m.dtype)  # Y - M and Y
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
        lifted, lifted_inv = kron_identity(roots)
        lam, vec = np.linalg.eigh(lifted @ m @ lifted)
        k_plus = (vec * np.maximum(lam, 0.0)) @ vec.conj().T
        t = ts[1]
        t[...] = partial_trace_matrix(k_plus, d)
        lower = float(np.trace(t).real)
        np.matmul(lifted_inv @ k_plus, lifted_inv, out=ys[1])
        np.subtract(ys[1], m, out=ys[0])
        # one batched call: lambda_min of Y - M and of Y
        eps = max(0.0, -float(np.linalg.eigvalsh(ys)[:, 0].min()))
        # and one eigh for tr_B Y and for the step's target t / lower
        np.matmul(roots[1] @ t, roots[1], out=ts[0])
        tw, tu = np.linalg.eigh(ts)
        upper = float(tw[0, -1]) + d * eps
        history.append((it, lower, upper))
        if lower > best_lower:
            best_lower, best_root = lower, roots[0]
        best_upper = min(best_upper, upper)
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
    state = PureBipartiteState(d, best_root.reshape(-1))
    return SearchResult(
        best_state=state,
        best_value=negativity(apply_one_sided(ch, state)),
        upper=best_upper,
        converged=best_upper - best_lower <= NEG_DEFAULT_TOL,
        trace=tuple(history),
    )
