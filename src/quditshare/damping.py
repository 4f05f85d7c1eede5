"""Level-damping qudit channel family and its advantage certificate.

The family on C^d (d >= 3) keeps level 0 intact and damps every excited level
m toward level 0: the diagonal Kraus operator diag(1, x_1, ..., x_{d-1})
retains amplitude x_m on level m, and one extra operator per level,
sqrt(1 - x_m^2) |0><m|, carries the decayed population. Completeness holds by
construction for any x in [0, 1]^{d-1}.

Closed forms are available for the entire Choi-state spectrum, the
partial-transpose spectrum, and the negativity, which makes the family a
machine-checkable witness that the best transmitted input can strictly beat
every maximally entangled input even after trace-preserving local
post-processing. The certificate assembles that inequality chain for one
parameter point and cross-checks every closed form against dense numerics.
The best input's output fidelity needs no optimizer: for psi' the top
eigenvector of the dual Choi state sigma, every maximally entangled Phi_W has
<Phi_W| rho_out |Phi_W> = <psi'| (W (x) I) sigma (W^dag (x) I) |psi'> <=
lambda_max(sigma), and W = I attains the bound, so the fully entangled
fraction of rho_out is its Phi+ overlap (acceptance criterion 04).
``fef_by_ascent`` recomputes it with the unitary ascent as an independent check.

Strict parameters (each 0 < x_i < 1, not all equal) are required for the
certificate; the closed-form evaluators also accept the closed cube
(``relaxed=True``) for boundary and limit studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import KrausChannel, apply_one_sided, choi_state, dual, top_choi_eigenpair
from .errors import ParameterError
from .measures import DEFAULT_RESTARTS, fef, negativity
from .states import PureBipartiteState, fidelity_with, max_entangled, schmidt

DISTINCTNESS_TOL = 1e-12
CLOSED_NUMERIC_TOL = 1e-10
SPREAD_TOL = 1e-8


def family_dimension(d) -> int:
    """d as an int, or ParameterError unless it is an integer >= 3."""
    if int(d) != d or d < 3:
        raise ParameterError(f"dimension violated: d must be an integer >= 3, got {d}")
    return int(d)


@dataclass(frozen=True, eq=False)
class DampingParams:
    """Dimension d >= 3 and retention amplitudes (x_1, ..., x_{d-1}).

    Strict mode (default) enforces 0 < x_i < 1 and at least one distinct pair
    (max pairwise gap above 1e-12). Relaxed mode admits the closed cube
    [0, 1]^{d-1} for limit studies; only the closed-form evaluators accept it.
    """

    d: int
    x: np.ndarray
    relaxed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "d", family_dimension(self.d))
        x = np.array(self.x, dtype=float).reshape(-1)
        if x.size != self.d - 1:
            raise ParameterError(
                f"length violated: x must have d-1 = {self.d - 1} entries, got {x.size}"
            )
        if not np.all(np.isfinite(x)):
            raise ParameterError(f"finiteness violated: x_i must be finite, got {x.tolist()}")
        if self.relaxed:
            if np.any(x < 0.0) or np.any(x > 1.0):
                raise ParameterError("range violated: relaxed x_i must lie in [0, 1]")
        else:
            if np.any(x <= 0.0) or np.any(x >= 1.0):
                raise ParameterError("open-interval violated: strict x_i must satisfy 0 < x_i < 1")
            if x.max() - x.min() <= DISTINCTNESS_TOL:
                raise ParameterError(
                    "distinctness violated: at least one pair x_i != x_j "
                    f"(max gap {x.max() - x.min():.3g} <= {DISTINCTNESS_TOL})"
                )
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def damping_channel(p: DampingParams) -> KrausChannel:
    """Kraus operators of the family; strict parameters required."""
    if p.relaxed:
        raise ParameterError("channel construction requires strict parameters")
    d = p.d
    a0 = np.diag(np.concatenate([[1.0], p.x])).astype(complex)
    ops = [a0]
    for m in range(1, d):
        a = np.zeros((d, d), dtype=complex)
        a[0, m] = np.sqrt(1.0 - p.x[m - 1] ** 2)
        ops.append(a)
    return KrausChannel(dim=d, kraus_ops=tuple(ops))


def damping_lambda_max(p: DampingParams) -> float:
    """Largest Choi-state eigenvalue, (1 + sum x_i^2) / d."""
    return float((1.0 + np.sum(p.x**2)) / p.d)


def _pair_sum(x: np.ndarray) -> float:
    return float(sum(x[i] * x[j] for i, j in combinations(range(x.size), 2)))


def damping_negativity(p: DampingParams) -> float:
    """Choi-state negativity, (sum x_i^2 + sum_{i<j} x_i x_j) / d."""
    return float((np.sum(p.x**2) + _pair_sum(p.x)) / p.d)


def damping_pt_spectrum(p: DampingParams) -> np.ndarray:
    """Partial-transpose spectrum of the Choi state, sorted ascending.

    Multiset: 1/d with multiplicity d, +-x_i^2/d, and +-x_i x_j/d for i < j.
    """
    d, x = p.d, p.x
    vals = [1.0 / d] * d
    for xi in x:
        vals += [xi * xi / d, -xi * xi / d]
    for i, j in combinations(range(x.size), 2):
        vals += [x[i] * x[j] / d, -x[i] * x[j] / d]
    return np.sort(np.array(vals))


def damping_gap(p: DampingParams) -> float:
    """(d-2) sum x_i^2 - 2 sum_{i<j} x_i x_j.

    Equals d^2 times (lambda_max - (1 + 2N)/d) for the Choi state, i.e. it is
    positive exactly when the largest Choi eigenvalue exceeds the
    maximally-entangled-input fidelity ceiling. It also equals
    sum_{i<j} (x_i - x_j)^2, so it vanishes only when all x_i coincide.
    """
    return float((p.d - 2) * np.sum(p.x**2) - 2.0 * _pair_sum(p.x))


@dataclass(frozen=True, eq=False)
class AdvantageCertificate:
    """All quantities and verdicts of the inequality chain for one parameter point.

    verdict_ceiling:  lambda_max exceeds the ceiling (1 + 2N(Choi))/d.
    verdict_advantage: the best-input state is certifiably nonmaximally
        entangled and its output fidelity exceeds that same ceiling.
    verdict_negativity_advantage: the best-input output carries strictly more
        negativity than the maximally entangled input's output.
    """

    params: DampingParams
    lambda_max_closed: float
    lambda_max_numeric: float
    negativity_phiplus_closed: float
    negativity_phiplus_numeric: float
    fstar_bound_phiplus: float
    gap: float
    psi_prime: PureBipartiteState
    psi_prime_schmidt_spread: float
    fef_psi_prime: float
    negativity_psi_prime: float
    verdict_ceiling: bool
    verdict_advantage: bool
    verdict_negativity_advantage: bool

    @property
    def all_verdicts_true(self) -> bool:
        return (
            self.verdict_ceiling
            and self.verdict_advantage
            and self.verdict_negativity_advantage
        )


def advantage_certificate(p: DampingParams) -> AdvantageCertificate:
    """Assemble the certificate for one strict parameter point.

    Closed forms are cross-checked against dense eigensolves (within 1e-10);
    the best input psi_prime is the top eigenvector of the dual Choi state.
    Its output is scored by negativity and by its fully entangled fraction,
    the exact Phi+ overlap (module docstring), so no unitary ascent is run.
    """
    ch = damping_channel(p)
    d = p.d

    lam_closed = damping_lambda_max(p)
    choi = choi_state(ch)
    lam_numeric = float(np.linalg.eigvalsh(choi.matrix)[-1])

    neg_closed = damping_negativity(p)
    neg_numeric = negativity(choi)

    if abs(lam_closed - lam_numeric) >= CLOSED_NUMERIC_TOL:
        raise ArithmeticError("closed-form lambda_max disagrees with eigensolve")
    if abs(neg_closed - neg_numeric) >= CLOSED_NUMERIC_TOL:
        raise ArithmeticError("closed-form negativity disagrees with eigensolve")

    fstar_bound = (1.0 + 2.0 * neg_closed) / d
    gap = damping_gap(p)

    top = top_choi_eigenpair(dual(ch))
    psi_prime = top.state
    spread = schmidt(psi_prime).spread

    rho_out = apply_one_sided(ch, psi_prime)
    fef_psi_prime = fidelity_with(rho_out, max_entangled(d))
    neg_psi_prime = negativity(rho_out)

    return AdvantageCertificate(
        params=p,
        lambda_max_closed=lam_closed,
        lambda_max_numeric=lam_numeric,
        negativity_phiplus_closed=neg_closed,
        negativity_phiplus_numeric=neg_numeric,
        fstar_bound_phiplus=fstar_bound,
        gap=gap,
        psi_prime=psi_prime,
        psi_prime_schmidt_spread=spread,
        fef_psi_prime=fef_psi_prime,
        negativity_psi_prime=neg_psi_prime,
        verdict_ceiling=lam_closed > fstar_bound,
        verdict_advantage=(fef_psi_prime > fstar_bound) and (spread > SPREAD_TOL),
        verdict_negativity_advantage=neg_psi_prime > neg_closed,
    )


def fef_by_ascent(
    cert: AdvantageCertificate, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> float:
    """``cert.fef_psi_prime`` recomputed by the seeded unitary ascent: an
    independent numerical check of the identity in the module docstring."""
    rho_out = apply_one_sided(damping_channel(cert.params), cert.psi_prime)
    return fef(rho_out, restarts=restarts, seed=seed).value


def certificate_to_dict(cert: AdvantageCertificate) -> dict:
    """JSON-ready form with fixed field order and 17-significant-digit reals."""
    amps = [
        [float(a.real), float(a.imag)] for a in np.asarray(cert.psi_prime.amplitudes)
    ]
    return {
        "d": cert.params.d,
        "x": [float(v) for v in cert.params.x],
        "lambda_max_closed": cert.lambda_max_closed,
        "lambda_max_numeric": cert.lambda_max_numeric,
        "negativity_phiplus_closed": cert.negativity_phiplus_closed,
        "negativity_phiplus_numeric": cert.negativity_phiplus_numeric,
        "fstar_bound_phiplus": cert.fstar_bound_phiplus,
        "gap": cert.gap,
        "psi_prime": amps,
        "psi_prime_schmidt_spread": cert.psi_prime_schmidt_spread,
        "fef_psi_prime": cert.fef_psi_prime,
        "negativity_psi_prime": cert.negativity_psi_prime,
        "verdict_ceiling": cert.verdict_ceiling,
        "verdict_advantage": cert.verdict_advantage,
        "verdict_negativity_advantage": cert.verdict_negativity_advantage,
    }


CERT_CSV_COLUMNS = (
    "lambda_max",
    "negativity_phiplus",
    "fstar_bound",
    "gap",
    "fef_psi_prime",
    "negativity_psi_prime",
    "verdict_ceiling",
    "verdict_advantage",
    "verdict_negativity_advantage",
)


def certificate_row(cert: AdvantageCertificate) -> dict:
    """Flat row (no state vector) for sweep tables, keyed by CERT_CSV_COLUMNS."""
    values = (
        cert.lambda_max_closed, cert.negativity_phiplus_closed, cert.fstar_bound_phiplus,
        cert.gap, cert.fef_psi_prime, cert.negativity_psi_prime, cert.verdict_ceiling,
        cert.verdict_advantage, cert.verdict_negativity_advantage,
    )
    return dict(zip(CERT_CSV_COLUMNS, values))
