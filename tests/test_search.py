"""Input-state optimization: exact best-fidelity input, the certified
negativity solver, and the qubit exact formula."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_form_row, negativity_oracle
from quditshare import (
    DampingParams,
    DimensionError,
    InvalidOperatorError,
    KrausChannel,
    apply_one_sided,
    damping_channel,
    dual,
    fidelity_with,
    kraus_validate,
    max_entangled,
    maximize_negativity_input,
    negativity,
    qubit_optimal_fidelity,
    random_channel,
    random_pure_state,
    top_choi_eigenpair,
)
from quditshare.channels import _psi_prime, complex_gaussian, haar_from_gaussian
from quditshare.search import NEG_DEFAULT_MAX_ITER

POOL_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "negsearch_pool.json"
)


def _amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return kraus_validate([k0, k1])


def test_best_input_identity_channel():
    top = top_choi_eigenpair(kraus_validate([np.eye(3)]))
    assert abs(top.value - 1.0) < 1e-12
    psi_prime = _psi_prime(top.state.amplitudes, 3)
    overlap = abs(np.vdot(psi_prime.amplitudes, max_entangled(3).amplitudes))
    assert abs(overlap - 1.0) < 1e-10


def test_best_input_damping_family():
    ch = damping_channel(DampingParams(3, [0.5, 0.9]))
    top = top_choi_eigenpair(ch)
    assert abs(top.value - 2.06 / 3) < 1e-12
    # value really is the Phi+ overlap of the corresponding output
    out = apply_one_sided(ch, _psi_prime(top.state.amplitudes, 3))
    assert abs(fidelity_with(out, max_entangled(3)) - top.value) < 1e-10


def test_best_input_amplitude_damping():
    assert abs(top_choi_eigenpair(_amplitude_damping(0.36)).value - 0.82) < 1e-12


def test_best_input_value_equals_primal_lambda_max():
    # the dual's Choi state, whose top eigenvalue is the best Phi+ overlap,
    # has the channel's own lambda_max
    rng = np.random.default_rng(71)
    for d in (2, 3, 4):
        ch = random_channel(d, 2, rng)
        assert abs(top_choi_eigenpair(dual(ch)).value - top_choi_eigenpair(ch).value) < 1e-10


def test_qubit_formula_identity():
    assert abs(qubit_optimal_fidelity(kraus_validate([np.eye(2)])) - 1.0) < 1e-12


def test_qubit_formula_amplitude_damping():
    # PT block [[0, 0.4], [0.4, 0.18]] has negative eigenvalue -0.32
    ch = _amplitude_damping(0.36)
    choi = apply_one_sided(ch, max_entangled(2))
    assert abs(negativity_oracle(choi.matrix, 2) - 0.32) < 1e-12
    assert abs(qubit_optimal_fidelity(ch) - 0.82) < 1e-12


def test_qubit_formula_rejects_qutrits():
    ch = damping_channel(DampingParams(3, [0.5, 0.9]))
    with pytest.raises(DimensionError):
        qubit_optimal_fidelity(ch)
    # the dual of a nonunital qubit channel is not a channel
    with pytest.raises(InvalidOperatorError):
        qubit_optimal_fidelity(dual(_amplitude_damping(0.36)))


def test_amplitude_damping_equality_with_lambda_max():
    # (1 + 2N(Choi))/2 and lambda_max(Choi) are both 1 - gamma/2 for every
    # damping rate, while the best maximally-entangled-input fidelity
    # (1 + sqrt(1-gamma))^2 / 4 stays strictly below for gamma in (0, 1).
    from quditshare import fef

    for gamma in (0.2, 0.36, 0.7):
        ch = _amplitude_damping(gamma)
        lam = top_choi_eigenpair(ch).value
        formula = qubit_optimal_fidelity(ch)
        assert abs(formula - (1.0 - gamma / 2.0)) < 1e-12
        assert abs(lam - formula) < 1e-10
        mes_best = fef(apply_one_sided(ch, max_entangled(2)), restarts=16).value
        assert abs(mes_best - (1.0 + np.sqrt(1.0 - gamma)) ** 2 / 4.0) < 1e-12
        assert mes_best < lam - 1e-3


def test_pauli_channel_lambda_max_equals_formula():
    rng = np.random.default_rng(73)
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    for _ in range(20):
        w = rng.dirichlet(np.ones(4))
        j = int(np.argmax(w))
        w = 0.5 * w
        w[j] += 0.5
        ch = kraus_validate([np.sqrt(p) * s for p, s in zip(w, paulis)])
        lam = top_choi_eigenpair(ch).value
        assert lam >= 0.5
        assert abs(lam - qubit_optimal_fidelity(ch)) < 1e-10


def test_negativity_search_identity_channel():
    # a unitary channel keeps Phi+ maximally entangled: (d-1)/2 is reached at
    # sigma = I/d, and the dual bound closes on it at iteration 0
    rng = np.random.default_rng(29)
    channels = [kraus_validate([np.eye(3)])]
    channels += [kraus_validate([haar_from_gaussian(complex_gaussian(d, rng))])
                 for d in (2, 3, 4, 5)]
    for ch in channels:
        res = maximize_negativity_input(ch)
        assert len(res.trace) == 1 and res.trace[0][0] == 0
        assert abs(res.best_value - (ch.dim - 1) / 2) < 1e-12
        assert abs(res.upper - res.best_value) < 1e-12
        assert res.converged


def test_negativity_search_entanglement_breaking():
    # measure-and-prepare in the computational basis, and the fully
    # depolarizing channel: outputs always separable, negativity +0.0
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]
    for ops in ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.5 * np.array(p) for p in paulis]):
        res = maximize_negativity_input(kraus_validate(ops))
        assert res.best_value == 0.0 and math.copysign(1.0, res.best_value) == 1.0
        assert res.upper == 0.0


def test_negativity_search_beats_phi_plus_on_damping_family():
    for d in (3, 4, 5, 6):
        p = DampingParams(d, [0.5, 0.9] if d == 3 else np.linspace(0.2, 0.9, d - 1))
        ch = damping_channel(p)
        res = maximize_negativity_input(ch)
        psi_prime = _psi_prime(top_choi_eigenpair(ch).state.amplitudes, d)
        # N(Phi+) in closed form and N(psi'); the optimum beats both
        floor = max(closed_form_row(p)["negativity_phiplus_closed"],
                    negativity(apply_one_sided(ch, psi_prime)))
        assert res.best_value > floor
        assert res.upper - res.best_value <= 1e-9


def test_negativity_search_value_matches_state():
    p = DampingParams(3, [0.3, 0.8])
    ch = damping_channel(p)
    res = maximize_negativity_input(ch)
    direct = negativity(apply_one_sided(ch, res.best_state))
    assert abs(res.best_value - direct) < 1e-12


def test_negativity_search_matches_scan_oracle_on_amplitude_damping():
    # oracle: Schmidt-angle inputs cos(t)|00> + sin(t)|11> cover the optimum
    # for this channel; the PT block {|01>,|10>} gives the negativity directly
    g = 0.36
    best = 0.0
    for t in np.linspace(0, np.pi / 2, 20001):
        c, s = np.cos(t), np.sin(t)
        b = c * s * np.sqrt(1 - g)
        a = s * s * g
        best = max(best, (np.sqrt(a * a + 4 * b * b) - a) / 2)
    res = maximize_negativity_input(_amplitude_damping(g))
    assert res.best_value >= best - 1e-7
    assert res.upper >= best
    assert res.best_value > negativity(
        apply_one_sided(_amplitude_damping(g), max_entangled(2))
    )


def test_negativity_search_deterministic_and_monotone_in_restarts():
    # one deterministic solver: restarts and seed are accepted and ignored
    ch = damping_channel(DampingParams(3, [0.4, 0.7]))
    a = maximize_negativity_input(ch, restarts=3, seed=5)
    for b in (maximize_negativity_input(ch, restarts=3, seed=5),
              maximize_negativity_input(ch, restarts=5, seed=1),
              maximize_negativity_input(ch)):
        assert b.best_value == a.best_value and b.upper == a.upper
        assert np.array_equal(a.best_state.amplitudes, b.best_state.amplitudes)


def test_negativity_search_trace_recording():
    ch = kraus_validate([np.eye(2)])
    res = maximize_negativity_input(ch)
    assert res.trace is not None
    assert all(len(entry) == 3 for entry in res.trace)
    assert [i for i, _, _ in res.trace] == list(range(len(res.trace)))


def _trace_channels():
    rng = np.random.default_rng(83)
    cases = [
        pytest.param(damping_channel(DampingParams(3, [0.5, 0.9])), id="damping-3"),
        pytest.param(damping_channel(DampingParams(4, [0.2, 0.6, 0.95])), id="damping-4"),
        pytest.param(damping_channel(DampingParams(5, [0.1, 0.4, 0.7, 0.9])), id="damping-5"),
    ]
    cases += [pytest.param(random_channel(d, d, rng), id=f"random-{d}") for d in (2, 3, 4)]
    # the plain fixed-point step overshoots here: g oscillates and collapses
    # to 0 unless the steps are mixed or shortened
    rank3 = random_channel(2, 3, np.random.default_rng(13))
    cases.append(pytest.param(rank3, id="random-2-rank-3"))
    cases.append(pytest.param(dual(damping_channel(DampingParams(3, [0.5, 0.9]))), id="dual"))
    return cases


@pytest.mark.parametrize("ch", _trace_channels())
def test_negativity_search_trace_bracket(ch):
    # every iterate's candidate bound sits above every lower on these
    # channels; lower itself need not rise monotonically. The best candidate
    # closes the bracket and is proved with no fallback, so upper is exactly
    # its candidate bound
    res = maximize_negativity_input(ch)
    iterations = [i for i, _, _ in res.trace]
    lowers = [lo for _, lo, _ in res.trace]
    uppers = [up for _, _, up in res.trace]
    assert iterations == list(range(len(iterations)))
    assert min(uppers) >= max(lowers)
    assert res.converged
    assert res.fallbacks == 0 and res.upper == min(uppers)
    assert abs(max(lowers) - res.best_value) < 1e-12
    assert res.upper - res.best_value <= 1e-9


def _record_solver_dtypes(monkeypatch):
    seen = {"eigh": [], "eigvalsh": [], "cholesky": []}
    for name, dtypes in seen.items():
        original = getattr(np.linalg, name)

        def recorded(a, *args, _original=original, _dtypes=dtypes, **kwargs):
            _dtypes.append(np.asarray(a).dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def test_negativity_search_runs_in_the_channels_field(monkeypatch):
    # a damping channel's M = -d J^Gamma is real, so every eigensolve of the
    # loop, and the Cholesky tests that prove its bound, are real symmetric;
    # a Haar-random channel's are complex. The one eigvalsh is the final
    # negativity check on the (complex) output
    d = 3
    damping = damping_channel(DampingParams(d, [0.5, 0.9]))
    haar = random_channel(d, 2, np.random.default_rng(4))
    results = {}
    for ch, field in ((damping, np.float64), (haar, np.complex128)):
        seen = _record_solver_dtypes(monkeypatch)
        results[field] = maximize_negativity_input(ch)
        monkeypatch.undo()
        assert seen["eigh"] and set(seen["eigh"]) == {np.dtype(field)}
        assert seen["cholesky"] and set(seen["cholesky"]) == {np.dtype(field)}
        assert seen["eigvalsh"] == [np.dtype(np.complex128)]
    # the output-rotated copy V K_i is complex and locally-unitarily
    # equivalent: the same iterations, the same value within rounding
    v = haar_from_gaussian(complex_gaussian(d, np.random.default_rng(9)))
    rotated = KrausChannel(dim=d, kraus_ops=tuple(v @ k for k in damping.kraus_ops))
    seen = _record_solver_dtypes(monkeypatch)
    res = maximize_negativity_input(rotated)
    assert set(seen["eigh"]) == {np.dtype(np.complex128)}
    real = results[np.float64]
    assert res.converged and real.converged
    assert len(res.trace) == len(real.trace)
    assert abs(res.best_value - real.best_value) <= 1e-12
    for r in (res, real, results[np.complex128]):
        assert r.best_state.amplitudes.dtype == np.complex128


def test_negativity_search_reaches_pool_references():
    # read-only over the benchmark's recorded pool: damping cases by x,
    # random cases by their stored Kraus matrices
    with open(POOL_FILE) as fh:
        cases = json.load(fh)["cases"]
    assert len(cases) == 39
    for case in cases:
        d = case["d"]
        if case["kind"] == "damping":
            ch = damping_channel(DampingParams(d, case["x"]))
        else:
            ops = [np.array([[complex(*e) for e in row] for row in k]) for k in case["kraus"]]
            ch = KrausChannel(dim=d, kraus_ops=tuple(ops))
        res = maximize_negativity_input(ch)
        label = f"{case['class']} #{case['index']}"
        assert res.best_value >= case["reference"] - 1e-10, label
        assert res.upper - res.best_value <= 1e-9, label
        # Anderson mixing closes every pool case in 4-15 iterations; the plain
        # fixed point took 8-53, so its cost swung with the case drawn
        assert len(res.trace) <= 16, label
        direct = negativity(apply_one_sided(ch, res.best_state))
        assert abs(res.best_value - direct) <= 1e-12, label


@pytest.mark.parametrize("ch", [
    pytest.param(random_channel(3, 3, np.random.default_rng(33)), id="random-3-3-33"),
    pytest.param(dual(random_channel(3, 3, np.random.default_rng(33))), id="dual-3-3-33"),
    pytest.param(dual(random_channel(4, 2, np.random.default_rng(29))), id="dual-4-2-29"),
])
def test_negativity_search_open_bracket_stays_near(ch):
    # three searches that run all NEG_DEFAULT_MAX_ITER iterations with the
    # bracket open: upper, proved or a fallback, is the bound of one real
    # candidate. Picking a candidate by lambda_max alone, with no rounding
    # allowance and with clipped iterates among them, gave uppers of 1.7 to
    # 3.9 on such duals, above the first iterate's bound
    res = maximize_negativity_input(ch)
    assert not res.converged and len(res.trace) == NEG_DEFAULT_MAX_ITER
    assert res.best_value <= res.upper <= res.best_value + 5e-3
    assert res.upper <= res.trace[0][2]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    d=st.integers(2, 4),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    use_dual=st.booleans(),
)
def test_negativity_search_upper_bounds_random_inputs(d, rank, seed, use_dual):
    rng = np.random.default_rng(seed)
    ch = random_channel(d, rank, rng)
    if use_dual:
        ch = dual(ch)
    res = maximize_negativity_input(ch)
    # slack for the eigensolver rounding of each state's own negativity
    assert res.upper >= res.best_value - 1e-12
    for _ in range(5):
        assert res.upper >= negativity(apply_one_sided(ch, random_pure_state(d, rng))) - 1e-12


def test_negativity_search_on_non_trace_preserving_dual():
    # dual of a nonunital channel: output traces vary with the input, and the
    # identity N = tr[K_+] holds for any Kraus map, trace preserving or not;
    # 0.519248828643636 is what the earlier coordinate ascent found
    ch = dual(damping_channel(DampingParams(3, [0.5, 0.9])))
    assert not ch.trace_preserving
    res = maximize_negativity_input(ch)
    assert abs(res.best_value - 0.519248828643636) < 1e-8
    assert res.upper - res.best_value <= 1e-9
    floor = negativity(apply_one_sided(ch, max_entangled(3)))
    assert res.best_value > floor
