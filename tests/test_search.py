"""Input-state optimization: exact best-fidelity input, negativity ascent,
and the qubit exact formula."""

import numpy as np
import pytest

from helpers import negativity_oracle
from quditshare import (
    DampingParams,
    DimensionError,
    InvalidOperatorError,
    apply_one_sided,
    best_phiplus_fidelity_input,
    damping_channel,
    damping_negativity,
    dual,
    fidelity_with,
    kraus_validate,
    max_entangled,
    maximize_negativity_input,
    negativity,
    qubit_optimal_fidelity,
    random_channel,
    top_choi_eigenpair,
)


def _amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return kraus_validate([k0, k1])


def test_best_input_identity_channel():
    res = best_phiplus_fidelity_input(kraus_validate([np.eye(3)]))
    assert abs(res.best_value - 1.0) < 1e-12
    overlap = abs(np.vdot(res.best_state.amplitudes, max_entangled(3).amplitudes))
    assert abs(overlap - 1.0) < 1e-10


def test_best_input_damping_family():
    ch = damping_channel(DampingParams(3, [0.5, 0.9]))
    res = best_phiplus_fidelity_input(ch)
    assert abs(res.best_value - 2.06 / 3) < 1e-12
    # value really is the Phi+ overlap of the corresponding output
    out = apply_one_sided(ch, res.best_state)
    assert abs(fidelity_with(out, max_entangled(3)) - res.best_value) < 1e-10


def test_best_input_amplitude_damping():
    res = best_phiplus_fidelity_input(_amplitude_damping(0.36))
    assert abs(res.best_value - 0.82) < 1e-12


def test_best_input_value_equals_primal_lambda_max():
    rng = np.random.default_rng(71)
    for d in (2, 3, 4):
        ch = random_channel(d, 2, rng)
        res = best_phiplus_fidelity_input(ch)
        assert abs(res.best_value - top_choi_eigenpair(ch).value) < 1e-10


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
        assert abs(mes_best - (1.0 + np.sqrt(1.0 - gamma)) ** 2 / 4.0) < 1e-7
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
    res = maximize_negativity_input(kraus_validate([np.eye(3)]), restarts=2, max_iter=50)
    assert res.best_value > 1.0 - 1e-9


def test_negativity_search_entanglement_breaking():
    # measure-and-prepare in the computational basis: outputs always separable
    ch = kraus_validate([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    res = maximize_negativity_input(ch, restarts=4, max_iter=30)
    assert res.best_value < 1e-9


def test_negativity_search_beats_phi_plus_on_damping_family():
    p = DampingParams(3, [0.5, 0.9])
    ch = damping_channel(p)
    res = maximize_negativity_input(ch, restarts=4, max_iter=60)
    psi_prime = best_phiplus_fidelity_input(ch).best_state
    floor = negativity(apply_one_sided(ch, psi_prime))
    assert res.best_value >= floor - 1e-9
    assert res.best_value > damping_negativity(p)


def test_negativity_search_value_matches_state():
    p = DampingParams(3, [0.3, 0.8])
    ch = damping_channel(p)
    res = maximize_negativity_input(ch, restarts=3, max_iter=40)
    direct = negativity(apply_one_sided(ch, res.best_state))
    assert abs(res.best_value - direct) < 1e-10


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
    res = maximize_negativity_input(_amplitude_damping(g), restarts=8, max_iter=300, seed=1)
    assert res.best_value >= best - 1e-7
    assert res.best_value > negativity(
        apply_one_sided(_amplitude_damping(g), max_entangled(2))
    )


def test_negativity_search_deterministic_and_monotone_in_restarts():
    ch = damping_channel(DampingParams(3, [0.4, 0.7]))
    a = maximize_negativity_input(ch, restarts=3, max_iter=40, seed=5)
    b = maximize_negativity_input(ch, restarts=3, max_iter=40, seed=5)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_state.amplitudes, b.best_state.amplitudes)
    c = maximize_negativity_input(ch, restarts=5, max_iter=40, seed=5)
    assert c.best_value >= a.best_value


def test_negativity_search_trace_recording():
    ch = kraus_validate([np.eye(2)])
    res = maximize_negativity_input(ch, restarts=2, max_iter=20, record_trace=True)
    assert res.trace is not None
    values = [v for _, v in res.trace]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _trace_channels():
    rng = np.random.default_rng(83)
    cases = [
        pytest.param(damping_channel(DampingParams(3, [0.5, 0.9])), id="damping-3"),
        pytest.param(damping_channel(DampingParams(4, [0.2, 0.6, 0.95])), id="damping-4"),
        pytest.param(damping_channel(DampingParams(5, [0.1, 0.4, 0.7, 0.9])), id="damping-5"),
    ]
    cases += [pytest.param(random_channel(d, d, rng), id=f"random-{d}") for d in (2, 3, 4)]
    cases.append(pytest.param(dual(damping_channel(DampingParams(3, [0.5, 0.9]))), id="dual"))
    return cases


@pytest.mark.parametrize("ch", _trace_channels())
def test_negativity_search_trace_monotone(ch):
    res = maximize_negativity_input(ch, restarts=4, seed=2, record_trace=True)
    iterations = [i for i, _ in res.trace]
    values = [v for _, v in res.trace]
    assert iterations == list(range(len(iterations)))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert res.converged
    assert abs(values[-1] - res.best_value) < 1e-10


def test_negativity_search_on_non_trace_preserving_dual():
    # dual of a nonunital channel: output traces vary with the input, so the
    # ascent must climb N itself and not the trace norm of rho^Gamma;
    # 0.519248828643636 is what the earlier coordinate ascent found
    ch = dual(damping_channel(DampingParams(3, [0.5, 0.9])))
    assert not ch.trace_preserving
    res = maximize_negativity_input(ch, restarts=8, seed=3)
    assert abs(res.best_value - 0.519248828643636) < 1e-8
    floor = negativity(apply_one_sided(ch, max_entangled(3)))
    assert res.best_value > floor
