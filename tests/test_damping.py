"""Level-damping family: construction, closed forms, and the certificate."""

import re
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest

from helpers import (
    closed_form_row,
    damping_kraus_oracle,
    negativity_oracle,
    one_sided_oracle,
    phi_plus_vector,
    pt_spectrum_oracle,
    random_strict_params,
)
from quditshare import (
    DampingParams,
    ParameterError,
    advantage_certificate,
    apply_one_sided,
    certificate_to_dict,
    choi_state,
    damping,
    damping_channel,
    dual,
    fef_by_ascent,
    fidelity_with,
    max_entangled,
    negativity,
    schmidt,
    top_choi_eigenpair,
)
from quditshare.channels import completeness_residual, one_sided_stack
from quditshare.damping import (
    CLOSED_NUMERIC_TOL,
    _certificates,
    _closed_forms,
    _hypotheses,
    _kraus_stack,
)
from quditshare.measures import negativity_of_matrix


def test_channel_reference_point_operators():
    ch = damping_channel(DampingParams(3, [0.5, 0.9]))
    a0, a1, a2 = ch.kraus_ops
    assert np.abs(a0 - np.diag([1.0, 0.5, 0.9])).max() < 1e-15
    expected1 = np.zeros((3, 3))
    expected1[0, 1] = np.sqrt(0.75)
    assert np.abs(a1 - expected1).max() < 1e-15
    expected2 = np.zeros((3, 3))
    expected2[0, 2] = np.sqrt(0.19)
    assert np.abs(a2 - expected2).max() < 1e-15


def test_params_reject_equal_entries():
    with pytest.raises(ParameterError, match="distinctness"):
        advantage_certificate(DampingParams(3, [0.5, 0.5]))


def test_near_equal_points_certify():
    # distinctness is exact: entries 1e-13 or one ulp apart meet it
    for x in ([0.5 + 1e-13, 0.5], [0.3, np.nextafter(0.3, 1.0)]):
        assert advantage_certificate(DampingParams(3, x)).all_verdicts_true


def test_params_reject_boundary_values():
    with pytest.raises(ParameterError, match="open-interval"):
        advantage_certificate(DampingParams(3, [0.0, 0.5]))
    with pytest.raises(ParameterError, match="open-interval"):
        advantage_certificate(DampingParams(3, [1.0, 0.5]))
    # the open interval is checked before distinctness
    with pytest.raises(ParameterError, match="open-interval"):
        advantage_certificate(DampingParams(3, [1.0, 1.0]))


def test_params_reject_wrong_length_and_dim():
    with pytest.raises(ParameterError, match="length"):
        DampingParams(3, [0.5])
    with pytest.raises(ParameterError, match="dimension"):
        DampingParams(2, [0.5])


@pytest.mark.parametrize("d", [float("inf"), float("nan"), None, "3"])
def test_params_reject_a_dimension_that_is_no_integral_real(d):
    # int(d) must not raise OverflowError, ValueError or TypeError past the
    # check, and "3" must not read as 3 in the message
    message = f"d must be an integer >= 3, got {re.escape(repr(d))}$"
    with pytest.raises(ParameterError, match=message):
        DampingParams(d, [0.5, 0.6])


@pytest.mark.parametrize("bad_first", [False, True])
def test_params_reject_non_finite(bad_first):
    # NaN fails every range comparison, so it needs its own clause
    for bad in (np.nan, np.inf, -np.inf):
        x = [bad, 0.5] if bad_first else [0.5, bad]
        with pytest.raises(ParameterError, match="finiteness"):
            DampingParams(3, x)


def test_relaxed_params_accept_cube():
    for x in ([0.5, 0.5], [0.0, 0.5], [1.0, 0.5], [0.0, 0.0]):
        assert DampingParams(3, x).x.tolist() == x
    for bad in ([-0.1, 0.5], [0.5, 1.0 + 1e-15]):
        with pytest.raises(ParameterError, match=r"range violated: x_i must lie in \[0, 1\]"):
            DampingParams(3, bad)
    p = DampingParams(3, [1.0, 1.0])
    row = closed_form_row(p)
    assert abs(row["lambda_max_closed"] - 1.0) < 1e-15
    assert abs(row["negativity_phiplus_closed"] - 1.0) < 1e-15  # (d-1)/2 at the identity limit
    # at x = (1, 1) the family is the identity channel: its Choi state is Phi+
    phi = phi_plus_vector(3)
    choi = choi_state(damping_channel(p)).matrix
    assert np.abs(choi - np.outer(phi, phi.conj())).max() < 1e-15


def test_channel_completeness_d4():
    ch = damping_channel(DampingParams(4, [0.3, 0.6, 0.9]))
    assert len(ch.kraus_ops) == 4
    acc = sum(a.conj().T @ a for a in ch.kraus_ops)
    assert np.abs(acc - np.eye(4)).max() < 1e-12


def test_lambda_max_reference_values():
    p3, p4 = DampingParams(3, [0.5, 0.9]), DampingParams(4, [0.3, 0.6, 0.9])
    assert abs(closed_form_row(p3)["lambda_max_closed"] - 2.06 / 3) < 1e-15
    assert abs(closed_form_row(p4)["lambda_max_closed"] - (1 + 0.09 + 0.36 + 0.81) / 4) < 1e-15


def test_negativity_reference_values():
    p3, p4 = DampingParams(3, [0.5, 0.9]), DampingParams(4, [0.3, 0.6, 0.9])
    assert abs(closed_form_row(p3)["negativity_phiplus_closed"] - 1.51 / 3) < 1e-15
    expected = (1.26 + 0.18 + 0.27 + 0.54) / 4
    assert abs(closed_form_row(p4)["negativity_phiplus_closed"] - expected) < 1e-15


def test_pt_spectrum_reference_point():
    spec = pt_spectrum_oracle(DampingParams(3, [0.5, 0.9]))
    expected = np.sort(
        [1 / 3] * 3 + [0.25 / 3, -0.25 / 3, 0.81 / 3, -0.81 / 3, 0.45 / 3, -0.45 / 3]
    )
    assert np.abs(spec - expected).max() < 1e-15
    assert abs(spec.sum() - 1.0) < 1e-12


def test_pt_spectrum_sums_to_one():
    rng = np.random.default_rng(61)
    for d in (3, 4, 5):
        p = random_strict_params(d, rng)
        assert abs(pt_spectrum_oracle(p).sum() - 1.0) < 1e-12


def test_pt_spectrum_matches_pair_loop():
    # the array form gives the multiset built pair by pair, bit for bit
    rng = np.random.default_rng(62)
    for d in range(3, 12):
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, d - 1)
            vals = [1.0 / d] * d
            for xi in x:
                vals += [xi * xi / d, -xi * xi / d]
            for i, j in combinations(range(d - 1), 2):
                vals += [x[i] * x[j] / d, -x[i] * x[j] / d]
            assert np.array_equal(pt_spectrum_oracle(DampingParams(d, x)), np.sort(vals))


def test_pt_spectrum_near_ppt_at_small_x():
    eps = 1e-3
    p = DampingParams(3, [eps, 2 * eps])
    neg_part = pt_spectrum_oracle(p)
    neg_part = -neg_part[neg_part < 0].sum()
    assert neg_part < 10 * eps**2
    assert abs(neg_part - (eps**2 + 4 * eps**2 + 2 * eps**2) / 3) < 1e-15


def test_gap_values():
    assert abs(closed_form_row(DampingParams(3, [0.5, 0.9]))["gap"] - 0.16) < 1e-12
    assert abs(closed_form_row(DampingParams(3, [0.1, 0.9]))["gap"] - 0.64) < 1e-12
    for d in (3, 4, 5):
        equal = DampingParams(d, [0.4] * (d - 1))
        assert closed_form_row(equal)["gap"] == 0.0


def test_gap_positive_iff_distinct():
    rng = np.random.default_rng(63)
    for d in (3, 4, 5, 6):
        for _ in range(20):
            p = random_strict_params(d, rng)
            assert closed_form_row(p)["gap"] > 0.0


def _exact_gap(x):
    """sum_{i<j} (x_i - x_j)^2 of the floats x, exactly."""
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in combinations(x, 2))


def _gap_draws(rng, per_kind):
    """(d, x) at d = 3..11: uniform, within 1e-6..1e-14 of 0.5, all equal but
    one entry one ulp above, all below 1e-9, and all equal."""
    for k in range(per_kind):
        d = 3 + k % 9
        n = d - 1
        yield d, rng.uniform(0.0, 1.0, n)
        yield d, 0.5 + rng.uniform(-1.0, 1.0, n) * 10.0 ** -rng.uniform(6.0, 14.0)
        one_ulp = np.full(n, rng.uniform(0.0, 1.0))
        one_ulp[rng.integers(n)] = np.nextafter(one_ulp[0], 1.0)
        yield d, one_ulp
        yield d, rng.uniform(0.0, 1e-9, n)
        yield d, np.full(n, rng.uniform(0.0, 1.0))


def test_gap_matches_exact_pair_sum():
    # the expanded (d-2) sum x^2 - 2 sum x_i x_j cancels and comes out <= 0
    # on many of these distinct draws; the pair sum keeps its sign and its
    # relative accuracy
    for d, x in _gap_draws(np.random.default_rng(66), 300):
        gap, exact = closed_form_row(DampingParams(d, x))["gap"], _exact_gap(x)
        if np.all(x == x[0]):
            assert gap == 0.0 and exact == 0
        else:
            assert gap > 0.0
            assert abs(Fraction(gap) - exact) <= Fraction(1e-13) * exact, (d, x.tolist())


def test_ceiling_identity_is_exact_on_rational_x():
    # lambda_max - (1 + 2N)/d = gap / d^2 with the closed forms
    # (1 + sum x^2)/d, (sum x^2 + sum_{i<j} x_i x_j)/d and
    # sum_{i<j} (x_i - x_j)^2 in exact arithmetic, and the float functions
    # evaluate those forms
    rng = np.random.default_rng(67)
    for d in range(3, 9):
        for _ in range(10):
            x = [Fraction(int(k), 97) for k in rng.integers(1, 97, d - 1)]
            sq = sum(v * v for v in x)
            lam = (1 + sq) / d
            neg = (sq + sum(a * b for a, b in combinations(x, 2))) / d
            gap = sum((a - b) ** 2 for a, b in combinations(x, 2))
            assert lam - (1 + 2 * neg) / d == gap / d**2
            p = DampingParams(d, [float(v) for v in x])
            row = closed_form_row(p)
            for got, exact in ((row["lambda_max_closed"], lam),
                               (row["negativity_phiplus_closed"], neg)):
                assert abs(Fraction(got) - exact) <= Fraction(1e-15) * exact
            assert abs(Fraction(row["gap"]) - gap) <= Fraction(1e-14) * max(gap, 1)


def test_ceiling_verdicts_read_the_gap():
    # on strict points, also within 1e-9 of 0.5 and below 1e-9, where the
    # two rounded sides of lambda_max > (1 + 2N)/d can tie or cross
    rng = np.random.default_rng(68)
    for d in (3, 4, 5, 6):
        for x in (random_strict_params(d, rng).x,
                  0.5 + np.linspace(0.0, 1e-9, d - 1),
                  np.linspace(1e-9, 2e-9, d - 1)):
            cert = advantage_certificate(DampingParams(d, x))
            assert cert.verdict_ceiling == (cert.gap > 0) == cert.verdict_advantage
            assert cert.verdict_ceiling and cert.psi_prime_schmidt_spread > 0


def _negativity_margins(x):
    """N(psi') - N(Phi+) at the floats x, in mpmath: directly from the two
    negativities with 50 guard digits against their cancellation near x = 1,
    and from the identity gap/(2d) + sum_m y_m h_m/(2s) at 50 digits."""
    d = len(x) + 1
    with mpmath.workdps(100):
        xm = [mpmath.mpf(v) for v in x]
        y = [v * v for v in xm]
        s = 1 + sum(y)
        pairs_y = sum(a * b for a, b in combinations(y, 2))
        blocks = sum(v * (mpmath.sqrt((1 - v) ** 2 + 4) - (1 - v)) / 2 for v in y)
        direct = (pairs_y + blocks) / s - (sum(y) + sum(a * b for a, b in combinations(xm, 2))) / d
    with mpmath.workdps(50):
        xm = [mpmath.mpf(v) for v in x]
        y = [v * v for v in xm]
        s = 1 + sum(y)
        h = [(1 - v) ** 2 / (mpmath.sqrt((1 - v) ** 2 + 4) + 2) for v in y]
        gap = sum((a - b) ** 2 for a, b in combinations(xm, 2))
        identity = gap / (2 * d) + sum(v * w for v, w in zip(y, h)) / (2 * s)
    return direct, identity


def _margin_draws(rng, per_kind):
    """(d, x) at d = 3..9: uniform; 1 - x_i log-uniform in [1e-12, 1e-3];
    x_i log-uniform in [1e-300, 1e-3]; entries 0 or 1 of the closed cube,
    with the all-0 and all-1 points."""
    for d in range(3, 10):
        n = d - 1
        for _ in range(per_kind):
            yield d, rng.uniform(0.0, 1.0, n)
            yield d, 1.0 - 10.0 ** rng.uniform(-12.0, -3.0, n)
            yield d, 10.0 ** rng.uniform(-300.0, -3.0, n)
            yield d, rng.integers(0, 2, n).astype(float)
        yield d, np.zeros(n)
        yield d, np.ones(n)


def test_negativity_margin_identity():
    # N(psi') - N(Phi+) = gap/(2d) + sum_m y_m h_m/(2s) (module docstring),
    # a sum of two terms >= 0 that is 0 only at x = 0 and x = 1; the
    # negativity verdict reads that predicate of x
    for d, x in _margin_draws(np.random.default_rng(72), 15):
        direct, identity = _negativity_margins(x)
        verdict = _closed_forms(d, x[None])["verdict_negativity_advantage"][0]
        if np.all(x == 0.0) or np.all(x == 1.0):
            assert direct == 0 and identity == 0 and not verdict
        else:
            assert identity > 0 and verdict, (d, x.tolist())
            assert abs(direct - identity) <= mpmath.mpf(10) ** -40 * identity, (d, x.tolist())


def test_verdicts_true_at_strict_points_near_the_corner():
    # 1 - x_i log-uniform in [1e-9, 1e-3], where N(psi') - N(Phi+) is
    # O((1 - x)^2) and the two rounded negativities can tie or cross
    rng = np.random.default_rng(2026)
    for d in range(3, 9):
        xs = 1.0 - 10.0 ** rng.uniform(-9.0, -3.0, (2000, d - 1))
        cols = _closed_forms(d, xs)
        for name in ("verdict_ceiling", "verdict_advantage", "verdict_negativity_advantage"):
            assert cols[name].all(), (d, name)


def test_choi_spectrum_closed_form():
    # the Choi state is rank d with eigenvalues (1 + sum x^2)/d and (1 - x_m^2)/d
    p = DampingParams(3, [0.5, 0.9])
    ops = damping_kraus_oracle(3, p.x)
    rho = one_sided_oracle(ops, phi_plus_vector(3), 3)
    eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
    expected = np.sort([2.06 / 3, 0.75 / 3, 0.19 / 3] + [0.0] * 6)[::-1]
    assert np.abs(eigs - expected).max() < 1e-12


def test_closed_forms_match_dense_oracles():
    rng = np.random.default_rng(65)
    for d in (3, 4, 5):
        for _ in range(10):
            p = random_strict_params(d, rng)
            ops = damping_kraus_oracle(d, p.x)
            rho = one_sided_oracle(ops, phi_plus_vector(d), d)
            lam = np.linalg.eigvalsh(rho)[-1]
            row = closed_form_row(p)
            assert abs(row["lambda_max_closed"] - lam) < 1e-10
            assert abs(row["negativity_phiplus_closed"] - negativity_oracle(rho, d)) < 1e-10


def test_monotone_limit_toward_identity():
    d = 4
    x0 = np.array([0.2, 0.5, 0.7])
    lams, negs = [], []
    for t in np.linspace(0.0, 1.0, 11):
        p = DampingParams(d, x0 + t * (1.0 - x0))
        row = closed_form_row(p)
        lams.append(row["lambda_max_closed"])
        negs.append(row["negativity_phiplus_closed"])
    assert all(b >= a for a, b in zip(lams, lams[1:]))
    assert all(b >= a for a, b in zip(negs, negs[1:]))
    assert abs(lams[-1] - 1.0) < 1e-12
    assert abs(negs[-1] - (d - 1) / 2) < 1e-12


def test_certificate_reference_point():
    cert = advantage_certificate(DampingParams(3, [0.5, 0.9]))
    assert abs(cert.lambda_max_closed - 0.6866666666666666) < 1e-12
    assert abs(cert.fstar_bound_phiplus - 0.6688888888888889) < 1e-12
    assert abs(cert.gap - 0.16) < 1e-12
    expected = np.zeros(9)
    expected[0], expected[4], expected[8] = 1.0, 0.5, 0.9
    expected /= np.sqrt(2.06)
    overlap = abs(np.vdot(cert.psi_prime.amplitudes, expected))
    assert abs(overlap - 1.0) < 1e-10
    assert cert.psi_prime_schmidt_spread > 1e-8
    assert cert.verdict_ceiling
    assert cert.verdict_advantage
    assert cert.verdict_negativity_advantage
    assert cert.all_verdicts_true


def test_certificate_closed_numeric_agreement():
    rng = np.random.default_rng(67)
    for d in (3, 5):
        cert = advantage_certificate(random_strict_params(d, rng))
        assert abs(cert.lambda_max_closed - cert.lambda_max_numeric) < 1e-10
        assert abs(cert.negativity_phiplus_closed - cert.negativity_phiplus_numeric) < 1e-10


def test_real_choi_stack_is_the_complex_choi_state():
    # the dense reference of the sector cross-check: its real Choi states
    # are the complex ones bit for bit, whose imaginary parts are exactly zero
    rng = np.random.default_rng(70)
    for d in (3, 5, 8):
        params = [random_strict_params(d, rng) for _ in range(4)]
        phi = max_entangled(d).coefficient_matrix().real[None]
        stack = one_sided_stack(_kraus_stack(np.stack([p.x for p in params])), phi)
        assert stack.dtype == np.float64
        for real, p in zip(stack, params):
            choi = choi_state(damping_channel(p)).matrix
            assert np.array_equal(real, choi.real)
            assert not choi.imag.any()


def test_sector_check_matches_dense_choi_reference():
    # the cross-check's sector eigensolves against the dense d^2 x d^2 Choi
    # state of the same Kraus entries, its two eigvalsh and
    # negativity_of_matrix, within a few ulps of order d
    rng = np.random.default_rng(72)
    for d in range(3, 10):
        xs = rng.uniform(0.02, 0.98, size=(200, d - 1))
        assert np.logical_and(*_hypotheses(xs)).all()
        cert = _certificates(d, xs)
        choi = one_sided_stack(_kraus_stack(xs), np.eye(d)[None] / np.sqrt(d))
        tol = 8 * d * np.finfo(float).eps
        lam, neg = np.linalg.eigvalsh(choi)[:, -1], negativity_of_matrix(choi, d)
        assert np.abs(cert["lambda_max_numeric"] - lam).max() <= tol
        assert np.abs(cert["negativity_phiplus_numeric"] - neg).max() <= tol


def test_sector_check_at_d_1000_meets_closed_forms():
    # CLOSED_NUMERIC_TOL is absolute though N(Phi+) grows with d: at
    # d = 1,000 the sector eigensolves stay far inside it
    d = 1000
    rng = np.random.default_rng(73)
    for x in (np.linspace(0.05, 0.95, d - 1), np.sort(rng.uniform(0.01, 0.99, d - 1))):
        cert = _certificates(d, x[None])
        assert abs(cert["lambda_max_numeric"] - cert["lambda_max_closed"]).item() <= 1e-15
        assert (abs(cert["negativity_phiplus_numeric"] - cert["negativity_phiplus_closed"]).item()
                <= 1e-12 < CLOSED_NUMERIC_TOL)


@pytest.mark.parametrize("which, at", [(0, (1, 2)), (1, (1, 0))])
def test_corrupted_kraus_entry_fails_completeness(monkeypatch, which, at):
    # the cross-check reads completeness from the same sparse entries as its
    # blocks: one entry 1e-6 off (A_0's diagonal at level 2, or A_1's entry)
    # is a failed numerical check, not a bad input, so it raises
    # ArithmeticError naming the residual and position the dense stack
    # gives: the point (its sweep row when rows are given) and the entry
    original = damping._kraus_entries

    def corrupted(xs):
        entries = original(xs)
        entries[which][at] += 1e-6
        return entries

    monkeypatch.setattr(damping, "_kraus_entries", corrupted)
    xs = np.array([[0.2, 0.7], [0.3, 0.6], [0.4, 0.5]])
    residual, position = completeness_residual(_kraus_stack(xs))
    assert residual > 1e-7
    assert position == ((1, 2, 2) if which == 0 else (1, 1, 1))
    k, m, _ = position
    x = ",".join(repr(v) for v in xs[k].tolist())
    with pytest.raises(ArithmeticError) as info:
        _certificates(3, xs)
    assert str(info.value) == ("Kraus operators are not trace preserving: residual "
                               f"{residual!r} at entry ({m}, {m}) at d = 3, x = {x}")
    with pytest.raises(ArithmeticError) as info:
        _certificates(3, xs, rows=np.array([4, 7, 9]))
    assert str(info.value).endswith(f"at sweep row 7 (d = 3, x = {x})")


def test_stacked_certificates_match_single_points():
    # each point of a stack gets the certificate it gets alone, bit for bit
    rng = np.random.default_rng(71)
    for d in (3, 6, 8):
        params = [random_strict_params(d, rng) for _ in range(5)]
        stacked = _certificates(d, np.stack([p.x for p in params]))
        for k, p in enumerate(params):
            alone = certificate_to_dict(advantage_certificate(p))
            assert alone.pop("d") == d and alone.pop("x") == p.x.tolist()
            amps = np.zeros(d * d)
            amps[:: d + 1] = stacked["psi_prime"][k]
            assert alone.pop("psi_prime") == [[a, 0.0] for a in amps.tolist()]
            assert alone == {name: col[k].item() for name, col in stacked.items()
                             if name != "psi_prime"}


@pytest.mark.parametrize("lam_off, neg_off, expected", [
    ([0, 0, 1e-9, 1e-9], [0, 2e-9, 2e-9, 0], "negativity disagrees with eigensolve by 2e-09 "
     "at sweep row 11 (d = 3, x = 0.3,0.4)"),
    ([0, 0, 1e-9, 0], [0, 0, 2e-9, 2e-9], "lambda_max disagrees with eigensolve by 1e-09 "
     "at sweep row 12 (d = 3, x = 0.5,0.6)"),
])
def test_cross_check_names_first_bad_point(monkeypatch, lam_off, neg_off, expected):
    # the cross-check compares all rows at once and names the first point
    # that fails, lambda_max before N(Phi+) at the same point, as a check
    # point by point would
    original = damping._closed_forms

    def perturbed(d, xs):
        cols = original(d, xs)
        cols["lambda_max_closed"] = cols["lambda_max_closed"] + lam_off
        cols["negativity_phiplus_closed"] = cols["negativity_phiplus_closed"] + neg_off
        return cols

    monkeypatch.setattr(damping, "_closed_forms", perturbed)
    xs = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    with pytest.raises(ArithmeticError) as info:
        _certificates(3, xs, rows=np.arange(10, 14))
    assert str(info.value) == f"closed-form {expected}"


def test_certificate_d5_sample():
    cert = advantage_certificate(DampingParams(5, [0.2, 0.4, 0.6, 0.8]))
    assert abs(cert.gap - 0.8) < 1e-12
    assert cert.all_verdicts_true


def test_psi_prime_not_maximally_entangled():
    rng = np.random.default_rng(69)
    for d in (3, 4):
        cert = advantage_certificate(random_strict_params(d, rng))
        dec = schmidt(cert.psi_prime)
        assert not dec.is_maximally_entangled()
        assert dec.spread > 1e-8


@pytest.mark.parametrize("d", range(3, 9))
def test_certificate_fef_is_exact_phiplus_overlap(d):
    # fef_psi_prime is the Phi+ overlap of the best input's output, which the
    # dual-Choi identity makes equal to lambda_max (acceptance criterion 04)
    rng = np.random.default_rng(1000 + d)
    for _ in range(5):
        p = random_strict_params(d, rng)
        cert = advantage_certificate(p)
        rho_out = apply_one_sided(damping_channel(p), cert.psi_prime)
        assert abs(cert.fef_psi_prime - fidelity_with(rho_out, max_entangled(d))) < 1e-12
        assert abs(cert.fef_psi_prime - cert.lambda_max_closed) < 1e-12


@pytest.mark.parametrize("d", range(3, 9))
def test_closed_form_best_input_matches_dense_path(d):
    # the certificate's psi_prime fields are closed forms; the dense path is
    # the dual Choi top eigenvector, its Schmidt SVD and its built output
    rng = np.random.default_rng(2000 + d)
    for _ in range(10):
        p = random_strict_params(d, rng)
        cert = advantage_certificate(p)
        ch = damping_channel(p)
        top = top_choi_eigenpair(dual(ch))
        assert np.abs(cert.psi_prime.amplitudes - top.state.amplitudes).max() < 1e-12
        assert abs(cert.psi_prime_schmidt_spread - schmidt(top.state).spread) < 1e-12
        rho_out = apply_one_sided(ch, top.state)
        assert abs(cert.fef_psi_prime - fidelity_with(rho_out, max_entangled(d))) < 1e-12
        assert abs(cert.negativity_psi_prime - negativity(rho_out)) < 1e-12
        # psi_prime is an eigenvector of the dense sigma with eigenvalue s/d
        sigma = choi_state(dual(ch)).matrix
        v = cert.psi_prime.amplitudes
        s = 1.0 + np.sum(p.x**2)
        assert np.linalg.norm(sigma @ v - (s / d) * v) < 1e-12


def test_fef_by_ascent_confirms_certificate():
    # the optimizer, started from the identity and from random unitaries,
    # finds no maximally entangled state beating the theorem's value
    rng = np.random.default_rng(71)
    for d in (3, 4, 5):
        cert = advantage_certificate(random_strict_params(d, rng))
        assert abs(fef_by_ascent(cert, restarts=4, seed=d) - cert.fef_psi_prime) < 1e-12
