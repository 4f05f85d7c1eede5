"""Level-damping qudit channel family and its advantage certificate.

The family on C^d (d >= 3) keeps level 0 intact and damps every excited level
m toward level 0: the diagonal Kraus operator A_0 = diag(1, x_1, ..., x_{d-1})
retains amplitude x_m on level m, and one extra operator per level,
A_m = sqrt(1 - x_m^2) |0><m|, carries the decayed population. Completeness
holds by construction for any x in [0, 1]^{d-1}.

Closed forms are available for the entire Choi-state spectrum, the
partial-transpose spectrum, and the negativity, which makes the family a
machine-checkable witness that the best transmitted input can strictly beat
every maximally entangled input even after trace-preserving local
post-processing. The certificate assembles that inequality chain for one
parameter point and cross-checks the Choi lambda_max and N(Phi+) against
eigensolves.

Every closed form below is written once, in ``_closed_forms``, on the rows
of an (n, d-1) array of points, and ``_certificates`` adds the cross-check.
The cross-check runs on the Choi state's symmetry sectors, never on a dense
d^2 x d^2 matrix (symmetry reduction after Vollbrecht & Werner, PRA 64,
062307 (2001)). Each Kraus operator carries a single phase charge under
diagonal unitaries: A_0 = diag(a), a = (1, x_1, ..., x_{d-1}), is diagonal,
and A_m has the one entry b_m = sqrt(1 - x_m^2) at (0, m). With
Phi+ = sum_i |ii> / sqrt(d), (I (x) A_0)|Phi+> = sum_i a_i |ii> / sqrt(d)
and (I (x) A_m)|Phi+> = b_m |m0> / sqrt(d), so the Choi state is

    J = (sum_{i,j} a_i a_j |ii><jj| + sum_{m>=1} b_m^2 |m0><m0|) / d:

one d x d block a a^T / d on span{|ii>}, and 1x1 blocks b_m^2 / d on the
|m0>, which lie outside that span. The partial transpose maps |ii><jj| to
|ij><ji| and fixes |m0><m0|, so J^T_B is the 1x1 blocks a_i^2 / d >= 0 on
|ii> and, for each pair i < j, one 2x2 block on {|ij>, |ji>},

    [[0, a_i a_j], [a_i a_j, b_j^2 if i = 0 else 0]] / d,

and only these blocks can carry negative eigenvalues. So lambda_max is read
from one stacked d x d ``eigvalsh`` and the 1x1 blocks, and N(Phi+) from one
stacked 2x2 ``eigvalsh`` over the d(d-1)/2 blocks: O(d^2) memory and O(d^3)
time per point, in place of O(d^4) and O(d^6) for the dense Choi state.
The blocks are built from the Kraus entries (``_kraus_entries``), not from
the closed forms, and completeness is checked on the same entries: each
A_k^dag A_k is diagonal, so sum_k A_k^dag A_k = diag(a_0^2, a_m^2 + b_m^2).
``_kraus_stack`` scatters those entries into the dense operators of
``damping_channel``, so the family is written once. Every entry is real,
and so is every block. ``advantage_certificate`` is the case n = 1;
``sweep`` passes a chunk of its grid and writes its rows from the arrays.
The sector eigensolves may round the two ``*_numeric`` fields differently
from a dense eigensolve of J in the last bit or two.

The best input is closed form too. Write x~ = (1, x_1, ..., x_{d-1}) and
s = |x~|^2 = 1 + sum x_i^2. The dual Choi state (Kraus list A_k^dag) is

    sigma = (|w><w| + sum_{m>=1} (1 - x_m^2) |0m><0m|) / d,  w = sum_i x~_i |ii>,

and w is orthogonal to every |0m> with m >= 1, so sigma's top eigenpair is
s/d with psi' = w / sqrt(s): real positive amplitudes x~_i / sqrt(s) on |ii>.
These amplitudes are the Schmidt coefficients of psi', so its Schmidt spread
is (1 - min x_i) / sqrt(s). Its output is

    rho_out = (|u><u| + sum_{m>=1} x_m^2 (1 - x_m^2) |m0><m0|) / s,  u = sum_i x~_i^2 |ii>,

and |m0> has no overlap with Phi+, so <Phi+| rho_out |Phi+> = s^2 / (d s) =
s/d. That overlap is also the fully entangled fraction of rho_out: every
maximally entangled Phi_W has <Phi_W| rho_out |Phi_W> = <psi'| (W (x) I) sigma
(W^dag (x) I) |psi'> <= lambda_max(sigma), and W = I attains the bound
(acceptance criterion 04). ``fef_by_ascent`` recomputes it with the unitary
ascent as an independent check.

N(psi') follows from 2x2 blocks. The partial transpose maps |ii><jj| to
|ij><ji|, so rho_out^{T_B} splits into the 1x1 blocks |ii> and 2x2 blocks on
span{|ij>, |ji>}, i < j. For 1 <= i < j the block is [[0, x_i^2 x_j^2],
[x_i^2 x_j^2, 0]] / s, with negative eigenvalue -x_i^2 x_j^2 / s. For i = 0,
j = m the block is [[0, x_m^2], [x_m^2, b_m]] / s with b_m = x_m^2 (1 - x_m^2),
with negative eigenvalue (b_m - sqrt(b_m^2 + 4 x_m^4)) / (2 s). Hence

    N(psi') = [sum_{1<=i<j} x_i^2 x_j^2
               + sum_m x_m^2 (sqrt((1 - x_m^2)^2 + 4) - (1 - x_m^2)) / 2] / s.

Both ceiling verdicts read one identity. With N = N(Choi) =
(sum x_i^2 + sum_{i<j} x_i x_j) / d,

    lambda_max - (1 + 2N)/d = ((d-2) sum x_i^2 - 2 sum_{i<j} x_i x_j) / d^2
                            = sum_{i<j} (x_i - x_j)^2 / d^2 = gap / d^2,

and ``fef_psi_prime`` = s/d is lambda_max, so lambda_max and the best
input's fidelity exceed the ceiling exactly when some x_i differ. The
reported ``gap`` is 0.0 when all x_i are equal and positive otherwise,
unless every difference is below about 1e-154 (``_closed_forms`` says why).

The negativity verdict reads a second identity. Write y_m = x_m^2,
c_m = 1 - y_m and h_m = sqrt(c_m^2 + 4) - 2 = c_m^2 / (sqrt(c_m^2 + 4) + 2),
which is >= 0. In the N(psi') above, each block term is y_m (1 + y_m + h_m) / 2:

    (sqrt(c_m^2 + 4) - c_m) / 2 = (h_m + 2 - c_m) / 2 = (1 + y_m + h_m) / 2,
    sum_{1<=i<j} y_i y_j + sum_m y_m^2 / 2 = (sum_m y_m)^2 / 2 = (s - 1) sum_m y_m / 2,
    so s N(psi') = s sum_m y_m / 2 + sum_m y_m h_m / 2,

while d N(Phi+) = d sum_m y_m / 2 - gap / 2 by the expanded gap above. Hence

    N(psi') - N(Phi+) = gap / (2d) + sum_m y_m h_m / (2 s).

Both terms are >= 0. The first is 0 only when all x_i are equal, and the
second only when each x_m is 0 or 1 (y_m = 0 or h_m = 0), so the difference
is 0 only at x = (0, ..., 0) and x = (1, ..., 1). So every verdict reads an
exact predicate of x, not a comparison of computed floats: the ceiling
verdict reads max x_i > min x_i, the advantage verdict that and a positive
spread (1 - min x_i > 0 is exact), and the negativity verdict
max x_i > 0 and min x_i < 1. No rounding or underflow can flip a verdict;
the reported numbers keep the forms above.

Every point of the closed cube [0, 1]^{d-1} is a channel, and every closed
form holds there. The theorem's hypotheses (each 0 < x_i < 1, not all x_i
equal) are needed only for the strict inequality chain, and they make all
three verdicts true. ``_hypotheses`` states them once, row-wise and exactly:
``advantage_certificate`` checks its point with it, and ``sweep`` takes its
strict rows from its mask.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .channels import COMPLETENESS_TOL, KrausChannel, apply_one_sided
from .errors import ParameterError
from .measures import DEFAULT_RESTARTS, _negativity_of_spectra, fef
from .states import PureBipartiteState

# absolute, though N(Phi+) grows about linearly in d: at d = 1,000 the sector
# eigensolves missed the closed forms by 1.1e-16 (lambda_max) and 5.7e-14
# (N(Phi+)) at x = linspace(0.05, 0.95, 999) and random sorted points
CLOSED_NUMERIC_TOL = 1e-10
# the largest d the family admits. A certify's time and peak memory grow as
# d^2 or faster, nearly all of them spent writing psi_prime's d^2 [re, im]
# pairs, the cross-check taking a small part; at this d one run already
# takes seconds and hundreds of MB (CHANGES.md records the measurements)
MAX_DIMENSION = 1000


def family_dimension(d) -> int:
    """d as an int, or ParameterError unless it is an integral real (not "3",
    inf or nan) in 3..MAX_DIMENSION; nothing of size d is built before it."""
    # abs(d) < inf, not math.isfinite(d), which overflows on ints past 1e308
    if not (isinstance(d, numbers.Real) and abs(d) < math.inf and int(d) == d) or d < 3:
        raise ParameterError(f"dimension violated: d must be an integer >= 3, got {d!r}")
    if d > MAX_DIMENSION:
        raise ParameterError(
            f"dimension violated: d must be at most MAX_DIMENSION = {MAX_DIMENSION}, got {d!r}")
    return int(d)


@dataclass(frozen=True, eq=False)
class DampingParams:
    """Dimension d in 3..MAX_DIMENSION and retention amplitudes x in [0, 1]^{d-1}.

    Equal entries and the boundary values 0 and 1 are admitted; the
    certificate's open-interval and distinctness hypotheses are checked by
    ``advantage_certificate``.
    """

    d: int
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", family_dimension(self.d))
        x = np.array(self.x, dtype=float).reshape(-1)
        if x.size != self.d - 1:
            raise ParameterError(
                f"length violated: x must have d-1 = {self.d - 1} entries, got {x.size}"
            )
        if not np.all(np.isfinite(x)):
            raise ParameterError(f"finiteness violated: x_i must be finite, got {x.tolist()}")
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ParameterError("range violated: x_i must lie in [0, 1]")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)


def _kraus_entries(xs: np.ndarray):
    """The family's nonzero Kraus entries at n points xs (n, d-1): A_0's
    diagonal a = (1, x_1, ..., x_{d-1}) as (n, d), and A_m's one entry
    b_m = sqrt(1 - x_m^2), at (0, m), as (n, d-1)."""
    return np.column_stack((np.ones(len(xs)), xs)), np.sqrt(1.0 - xs**2)


def _kraus_stack(xs: np.ndarray) -> np.ndarray:
    """The family's Kraus lists at n points xs (n, d-1) as one real
    (n, d, d, d) stack: ``_kraus_entries`` scattered into A_0 = diag(a) and
    A_m = b_m |0><m| for m = 1..d-1."""
    a, b = _kraus_entries(xs)
    n, d = a.shape
    levels = np.arange(1, d)
    ops = np.zeros((n, d, d, d))
    ops[:, 0, np.arange(d), np.arange(d)] = a
    ops[:, levels, 0, levels] = b
    return ops


def damping_channel(p: DampingParams) -> KrausChannel:
    """Kraus operators of the family."""
    return KrausChannel(dim=p.d, kraus_ops=_kraus_stack(p.x[None])[0])


def _pair_sum(xs: np.ndarray) -> np.ndarray:
    """sum_{i<j} x_i x_j of each row of xs in O(d), as
    sum_j x_j (x_1 + ... + x_{j-1}). Not ``np.vecdot``: its BLAS dot
    rounds by the CPU kernel and by the row's place in memory."""
    return (xs[:, 1:] * np.cumsum(xs, axis=1)[:, :-1]).sum(axis=1)


def _closed_forms(d: int, xs: np.ndarray) -> dict:
    """The certificate's closed-form fields at n points xs (n, d-1) of one d,
    as in the module docstring: one array per ``AdvantageCertificate`` field
    but the two ``*_numeric`` ones and ``params``, row k for the point
    xs[k]; ``psi_prime`` is the (n, d) array of its amplitudes on |ii>. Sums
    run along rows in numpy, never a BLAS dot, so a row does not depend on
    the rows beside it or on the CPU kernel.

    ``gap``, the pair sum sum_{i<j} (x_i - x_j)^2, is shift invariant, so it
    is computed in O(d) as (d-1) sum z_i^2 - (sum z_i)^2 with z = x - x_1:
    exactly zero when all x_i are equal. Otherwise fl(x_i - x_1) is nonzero
    for some i, and since z_1 = 0 the exact value for the rounded z is at
    least sum z_i^2 (the pairs with x_1), a 1/(d-1) share of the first term,
    while the two sums round by O(d u) of that term: the result is positive
    unless every difference is below about 1e-154, where its square
    underflows. The expanded form (d-2) sum x_i^2 - 2 sum_{i<j} x_i x_j
    cancels and can come out <= 0 at distinct x.
    """
    y = xs**2
    sq = y.sum(axis=1)
    s = 1.0 + sq
    lam = s / d
    neg = (sq + _pair_sum(xs)) / d
    # the docstring says why this pair sum of squared differences cannot cancel
    z = xs - xs[:, :1]
    gap = (d - 1) * (z * z).sum(axis=1) - z.sum(axis=1) ** 2
    root_s = np.sqrt(s)
    lo, hi = xs.min(axis=1), xs.max(axis=1)
    spread = (1.0 - lo) / root_s
    c = 1.0 - y
    # the block term (sqrt(c^2 + 4) - c) / 2 as 2 / (sqrt(c^2 + 4) + c): no cancellation
    blocks = (2.0 * y / (np.sqrt(c * c + 4.0) + c)).sum(axis=1)
    neg_psi_prime = (_pair_sum(y) + blocks) / s
    return {
        "lambda_max_closed": lam,
        "negativity_phiplus_closed": neg,
        "fstar_bound_phiplus": (1.0 + 2.0 * neg) / d,
        "gap": gap,
        "psi_prime": np.column_stack((np.ones(len(xs)), xs)) / root_s[:, None],
        "psi_prime_schmidt_spread": spread,
        "fef_psi_prime": lam,
        "negativity_psi_prime": neg_psi_prime,
        # by the module docstring's two identities, each verdict is an exact
        # predicate of x
        "verdict_ceiling": hi > lo,
        "verdict_advantage": (hi > lo) & (spread > 0.0),
        "verdict_negativity_advantage": (hi > 0.0) & (lo < 1.0),
    }


@dataclass(frozen=True, eq=False)
class AdvantageCertificate:
    """All quantities and verdicts of the inequality chain for one parameter point.

    Each verdict is an exact predicate of x, by the identities in the module
    docstring; none compares two computed floats.

    verdict_ceiling:  lambda_max exceeds the ceiling (1 + 2N(Choi))/d. As
        lambda_max - (1 + 2N)/d = gap/d^2, this reads max x_i > min x_i.
    verdict_advantage: the best-input state is nonmaximally entangled (its
        Schmidt spread (1 - min x_i)/sqrt(s) > 0, which holds in floating
        point too whenever min x_i < 1) and its output fidelity, lambda_max
        itself, exceeds that same ceiling (max x_i > min x_i).
    verdict_negativity_advantage: the best-input output carries strictly more
        negativity than the maximally entangled input's output. As
        N(psi') - N(Phi+) = gap/(2d) + sum_m y_m h_m/(2s), this reads
        max x_i > 0 and min x_i < 1.

    ``gap`` is the reported pair sum: it can read 0.0 at distinct x when
    every |x_i - x_j| is below about 1e-154, and the verdicts stay true.
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


def _hypotheses(xs: np.ndarray):
    """The theorem's hypotheses, row-wise over xs (..., d-1), checked exactly:
    whether each 0 < x_i < 1, and whether some x_i differ (max > min). Every
    point that meets both gets three true verdicts."""
    inside = np.all((0.0 < xs) & (xs < 1.0), axis=-1)
    return inside, xs.max(axis=-1) > xs.min(axis=-1)


def advantage_certificate(p: DampingParams) -> AdvantageCertificate:
    """Assemble the certificate for one parameter point.

    ParameterError unless the point meets the theorem's hypotheses
    (``_hypotheses``; the open interval is checked first). The closed-form
    Choi lambda_max and N(Phi+) are cross-checked against the eigensolves of
    the Choi state's symmetry sectors (within CLOSED_NUMERIC_TOL), else
    ArithmeticError. The best input psi_prime and every field derived from
    it are the O(d) closed forms of the module docstring, so no dual
    eigensolve, Schmidt SVD, output state or unitary ascent is run. This is
    ``_certificates`` with one point.
    """
    inside, distinct = _hypotheses(p.x)
    if not inside:
        raise ParameterError("open-interval violated: strict x_i must satisfy 0 < x_i < 1")
    if not distinct:
        raise ParameterError("distinctness violated: at least one pair x_i != x_j, "
                             f"got every x_i = {p.x[0].item()!r}")
    cert = {name: col[0] for name, col in _certificates(p.d, p.x[None]).items()}
    amps = np.zeros(p.d * p.d, dtype=complex)
    amps[:: p.d + 1] = cert.pop("psi_prime")
    return AdvantageCertificate(params=p, psi_prime=PureBipartiteState(p.d, amps),
                                **{name: value.item() for name, value in cert.items()})


def _certificates(d: int, xs: np.ndarray, rows=None) -> dict:
    """The certificates of n points xs (n, d-1) of one d that meet the
    theorem's hypotheses (callers check ``_hypotheses``): the arrays of
    ``_closed_forms`` and the two ``*_numeric`` ones of their stacked
    cross-check on the Choi state's symmetry sectors.

    The sectors are the module docstring's, built from the Kraus entries a
    and b of ``_kraus_entries``, not from the closed forms, and scaled by
    Phi+'s coefficient 1/sqrt(d) (u = a / sqrt(d), w = b / sqrt(d)):
    - completeness: each A_k^dag A_k is diagonal, so the check reads
      a_0^2 and a_m^2 + b_m^2 against 1, within COMPLETENESS_TOL;
    - lambda_max: the larger of the top eigenvalue of J's block u u^T on
      span{|ii>}, from one stacked d x d ``eigvalsh``, and the largest 1x1
      block w_m^2 on |m0>;
    - N(Phi+): the negative sum of J^T_B's 2x2 blocks
      [[0, u_i u_j], [u_i u_j, w_j^2 if i = 0 else 0]] on {|ij>, |ji>},
      i < j, from one stacked 2x2 ``eigvalsh``; its 1x1 blocks u_i^2 on
      |ii> are >= 0.
    Each value is the one its point gives alone. A completeness residual
    above COMPLETENESS_TOL, or a closed form that misses its eigensolve by
    CLOSED_NUMERIC_TOL or more, raises ArithmeticError: the family's own
    entries are at fault, not an input. It names the first such point, by d
    and x in the form ``certify --x`` reads, and by ``rows[k]``, its sweep
    row, when ``rows`` is given.
    """

    def point(k):
        text = f"d = {d}, x = {','.join(repr(v) for v in xs[k].tolist())}"
        return text if rows is None else f"sweep row {rows[k]} ({text})"

    cert = _closed_forms(d, xs)
    a, b = _kraus_entries(xs)
    n = len(xs)
    acc = a * a
    acc[:, 1:] += b * b
    dev = np.abs(acc - 1.0)
    bad = np.argwhere(dev > COMPLETENESS_TOL)
    if bad.size:
        k, m = bad[0]
        raise ArithmeticError(f"Kraus operators are not trace preserving: residual "
                              f"{dev[k, m].item()!r} at entry ({m}, {m}) at {point(k)}")
    # Phi+'s coefficient 1 / sqrt(d), rounded as in I / sqrt(d), so each
    # block entry has the bits of the dense Choi state's
    scale = 1.0 / np.sqrt(d)
    u, w = a * scale, b * scale
    lam = np.maximum(np.linalg.eigvalsh(u[:, :, None] * u[:, None, :])[:, -1],
                     (w * w).max(axis=1))
    # np.triu_indices lists the pairs (0, j) first
    i, j = np.triu_indices(d, 1)
    blocks = np.zeros((n, i.size, 2, 2))
    blocks[:, :, 0, 1] = blocks[:, :, 1, 0] = u[:, i] * u[:, j]
    blocks[:, : d - 1, 1, 1] = w * w
    # n is 0 for a sweep chunk with no strict point, so no -1 in the shape
    neg = _negativity_of_spectra(np.linalg.eigvalsh(blocks).reshape(n, 2 * i.size))

    miss = np.abs(np.column_stack((cert["lambda_max_closed"] - lam,
                                   cert["negativity_phiplus_closed"] - neg)))
    bad = np.argwhere(miss >= CLOSED_NUMERIC_TOL)
    if bad.size:
        k, j = bad[0]
        raise ArithmeticError(
            f"closed-form {('lambda_max', 'negativity')[j]} disagrees with eigensolve by "
            f"{miss[k, j]:.3g} at {point(k)}")
    return {**cert, "lambda_max_numeric": lam, "negativity_phiplus_numeric": neg}


def fef_by_ascent(
    cert: AdvantageCertificate, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> float:
    """``cert.fef_psi_prime`` recomputed by the seeded unitary ascent: an
    independent numerical check of the identity in the module docstring."""
    rho_out = apply_one_sided(damping_channel(cert.params), cert.psi_prime)
    return fef(rho_out, restarts=restarts, seed=seed).value


def certificate_to_dict(cert: AdvantageCertificate) -> dict:
    """JSON-ready form: the certificate's fields in declared order, params as
    d and x, psi_prime as [re, im] pairs; reals keep 17 significant digits."""
    out = {}
    for field in fields(cert):
        value = getattr(cert, field.name)
        if isinstance(value, DampingParams):
            out.update(d=value.d, x=[float(v) for v in value.x])
        elif isinstance(value, PureBipartiteState):
            out[field.name] = [[float(a.real), float(a.imag)] for a in value.amplitudes]
        else:
            out[field.name] = value
    return out


# sweep-table column -> certificate field; the state vector is left out
CERT_CSV_COLUMNS = {
    "lambda_max": "lambda_max_closed",
    "negativity_phiplus": "negativity_phiplus_closed",
    "fstar_bound": "fstar_bound_phiplus",
    "gap": "gap",
    "fef_psi_prime": "fef_psi_prime",
    "negativity_psi_prime": "negativity_psi_prime",
    "verdict_ceiling": "verdict_ceiling",
    "verdict_advantage": "verdict_advantage",
    "verdict_negativity_advantage": "verdict_negativity_advantage",
}
