"""Optimization over transmitted input states.

The best input for the Phi+ overlap of the channel output is exact: it is the
top eigenvector of the dual-map Choi state, with value equal to that state's
largest eigenvalue. Negativity maximization over pure inputs has no such
shortcut. By trace-norm duality the output negativity is

    N(psi) = max over 0 <= P <= I of -tr(P rho_psi^Gamma)
           = max over P of <psi| -(I (x) Lambda^dag)(P^Gamma) |psi>,

so a seeded multi-start ascent alternates two exact maximizations: P is the
projector onto the negative eigenspace of rho_psi^Gamma, and psi is the top
eigenvector of -(I (x) Lambda^dag)(P^Gamma). Neither step lowers N, for any
Kraus map, trace preserving or not; ascending ||rho^Gamma||_1 = tr(rho) + 2N
with sign(rho^Gamma) instead would track N only when tr(rho) is fixed. The
result is reported as a lower bound, never a claimed optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, choi_state, dual, top_choi_eigenpair
from .errors import DimensionError, InvalidOperatorError
from .measures import negativity, negativity_of_matrix
from .states import PureBipartiteState, max_entangled, partial_transpose_matrix

NEG_DEFAULT_RESTARTS = 64
NEG_DEFAULT_MAX_ITER = 2000
NEG_DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of an input-state search."""

    best_state: PureBipartiteState
    best_value: float
    converged: bool = True
    trace: tuple | None = None


def best_phiplus_fidelity_input(ch: KrausChannel) -> SearchResult:
    """Exact maximizer of <Phi+| rho_{psi,ch} |Phi+> over pure inputs psi.

    The overlap equals <psi| rho_{Phi+, dual} |psi>, so the maximum is the top
    dual-Choi eigenpair; no heuristics involved.
    """
    top = top_choi_eigenpair(dual(ch))
    return SearchResult(
        best_state=top.state,
        best_value=top.value,
        converged=True,
    )


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


def _negative_part(lifted, d, psi):
    """N(psi) and the projector onto the negative eigenspace of rho_psi^Gamma."""
    v = lifted @ psi
    eigs, vecs = np.linalg.eigh(partial_transpose_matrix(v.T @ v.conj(), d, d))
    neg = eigs < 0.0
    return float(-eigs[neg].sum()), vecs[:, neg] @ vecs[:, neg].conj().T


def _projector_ascent(lifted, d, psi, max_iter):
    """Monotone ascent of -tr(P rho_psi^Gamma) over (psi, P).

    One iteration sets psi to the top eigenvector of -(I (x) Lambda^dag)(P^Gamma)
    and P to the negative-eigenspace projector of the new rho_psi^Gamma; each
    step maximizes the form exactly in one argument, so neither lowers N.
    """
    adjoint = lifted.conj().transpose(0, 2, 1)
    val, proj = _negative_part(lifted, d, psi)
    history = [(0, val)]
    converged = False
    for it in range(1, max_iter + 1):
        form = -(adjoint @ partial_transpose_matrix(proj, d, d) @ lifted).sum(axis=0)
        psi_new = np.linalg.eigh(form)[1][:, -1]
        val_new, proj_new = _negative_part(lifted, d, psi_new)
        if val_new > val:
            gain = val_new - val
            psi, val, proj = psi_new, val_new, proj_new
        else:
            gain = 0.0
        history.append((it, val))
        if gain < NEG_DEFAULT_TOL:
            converged = True
            break
    return psi, val, converged, history


def maximize_negativity_input(
    ch: KrausChannel,
    restarts: int = NEG_DEFAULT_RESTARTS,
    max_iter: int = NEG_DEFAULT_MAX_ITER,
    seed: int = 0,
    record_trace: bool = False,
) -> SearchResult:
    """Heuristic lower bound on the best output negativity over pure inputs.

    Restart states are Phi+, the exact best-fidelity input, and Haar-random
    kets with counter-derived seeds, so the reported value is monotone in the
    restart count for a fixed seed and never below the Phi+ baseline.
    ``max_iter`` caps the projector iterations of each restart, and ``trace``
    holds (iteration, negativity) pairs of the winning restart.
    """
    d = ch.dim
    if restarts < 1:
        raise ValueError("need at least one restart")
    # I (x) K_i for every Kraus operator, shape (r, d*d, d*d)
    lifted = np.stack([np.kron(np.eye(d), k) for k in ch.kraus_ops])

    starts = [max_entangled(d).amplitudes, best_phiplus_fidelity_input(ch).best_state.amplitudes]
    for k in range(restarts - 2):
        v = np.random.default_rng([seed, k]).standard_normal(2 * d * d)
        v = v[: d * d] + 1j * v[d * d :]
        starts.append(v / np.linalg.norm(v))

    best = None
    for psi0 in starts[:restarts]:
        psi, val, conv, history = _projector_ascent(lifted, d, psi0, max_iter)
        if best is None or val > best[1]:
            best = (psi, val, conv, history)

    psi, _, conv, history = best
    state = PureBipartiteState(d, psi / np.linalg.norm(psi))
    v = lifted @ state.amplitudes
    return SearchResult(
        best_state=state,
        best_value=negativity_of_matrix(v.T @ v.conj(), d, d),
        converged=conv,
        trace=tuple(history) if record_trace else None,
    )
