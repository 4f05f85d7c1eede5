"""Negativity, fully entangled fraction, and the fidelity ceiling."""

import numpy as np
import pytest

from helpers import (
    damping_kraus_oracle,
    negativity_oracle,
    random_unitary_oracle,
)
from quditshare import (
    DensityOperator,
    DimensionError,
    PureBipartiteState,
    apply_one_sided,
    choi_state,
    dual,
    fef,
    fidelity_with,
    fstar_upper_bound,
    kraus_validate,
    max_entangled,
    mes_from_unitary,
    negativity,
    pure_density,
    random_channel,
    random_pure_state,
    top_choi_eigenpair,
)

REF = damping_kraus_oracle(3, [0.5, 0.9])


def _random_mixed(d, rng, rank=None):
    rank = rank or d * d
    g = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))
    m = g @ g.conj().T
    return DensityOperator(d, d, m / m.trace().real)


def test_negativity_product_state():
    rho = DensityOperator(2, 2, np.diag([0.5, 0.5, 0.0, 0.0]))
    assert negativity(rho) == 0.0


def test_negativity_phi_plus():
    assert abs(negativity(pure_density(max_entangled(3))) - 1.0) < 1e-12


def test_negativity_damping_choi_reference():
    ch = kraus_validate(REF)
    val = negativity(apply_one_sided(ch, max_entangled(3)))
    assert abs(val - (0.25 + 0.81 + 0.45) / 3) < 1e-12


def test_negativity_matches_bruteforce_oracle():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        for _ in range(5):
            rho = _random_mixed(d, rng)
            assert abs(negativity(rho) - negativity_oracle(rho.matrix, d)) < 1e-12


def test_negativity_local_unitary_invariant():
    rng = np.random.default_rng(33)
    for _ in range(10):
        rho = _random_mixed(3, rng)
        u = random_unitary_oracle(3, rng)
        v = random_unitary_oracle(3, rng)
        big = np.kron(u, v)
        rotated = DensityOperator(3, 3, big @ rho.matrix @ big.conj().T)
        assert abs(negativity(rotated) - negativity(rho)) < 1e-9


def test_fef_pure_mes():
    # Phi+ itself, and Phi+ sent through the identity channel
    for rho in (
        pure_density(max_entangled(3)),
        apply_one_sided(kraus_validate([np.eye(3)]), max_entangled(3)),
    ):
        res = fef(rho, restarts=4)
        assert abs(res.value - 1.0) < 1e-10
        # maximizer equals the identity up to a global phase
        w = res.maximizer_unitary
        phase = w[0, 0] / abs(w[0, 0])
        assert np.abs(w / phase - np.eye(3)).max() < 1e-6


def test_fef_rotated_mes_recovers_one():
    rng = np.random.default_rng(35)
    w0 = random_unitary_oracle(3, rng)
    rho = pure_density(mes_from_unitary(w0))
    res = fef(rho, restarts=8)
    assert abs(res.value - 1.0) < 1e-8


def test_fef_reference_point_bracket():
    ch = kraus_validate(REF)
    rho = apply_one_sided(ch, max_entangled(3))
    res = fef(rho, restarts=16)
    phip = fidelity_with(rho, max_entangled(3))
    assert abs(phip - 0.64) < 1e-12
    ceiling = (1 + 2 * (0.25 + 0.81 + 0.45) / 3) / 3
    assert phip - 1e-12 <= res.value <= ceiling + 1e-9


def test_fef_value_matches_maximizer():
    rng = np.random.default_rng(37)
    rho = _random_mixed(3, rng)
    res = fef(rho, restarts=8)
    direct = fidelity_with(rho, mes_from_unitary(res.maximizer_unitary))
    assert abs(res.value - direct) < 1e-10


def test_fef_never_below_phi_plus_fidelity():
    rng = np.random.default_rng(39)
    for _ in range(10):
        rho = _random_mixed(3, rng, rank=3)
        res = fef(rho, restarts=4)
        assert res.value >= fidelity_with(rho, max_entangled(3)) - 1e-12


def test_fef_deterministic_bit_identical():
    rng = np.random.default_rng(41)
    rho = _random_mixed(3, rng)
    a = fef(rho, restarts=8, seed=123)
    b = fef(rho, restarts=8, seed=123)
    assert a.value == b.value
    assert np.array_equal(a.maximizer_unitary, b.maximizer_unitary)


def test_fef_local_unitary_invariant():
    rng = np.random.default_rng(43)
    for _ in range(5):
        rho = _random_mixed(3, rng)
        u = random_unitary_oracle(3, rng)
        v = random_unitary_oracle(3, rng)
        big = np.kron(u, v)
        rotated = DensityOperator(3, 3, big @ rho.matrix @ big.conj().T)
        a = fef(rho, restarts=16).value
        b = fef(rotated, restarts=16).value
        assert abs(a - b) < 1e-6


def test_fef_requires_square_bipartition():
    rho = DensityOperator(2, 3, np.eye(6) / 6)
    with pytest.raises(DimensionError):
        fef(rho)


def test_phi_plus_overlap_equals_dual_expectation():
    # <Phi_W| rho_out |Phi_W> == <psi| (W (x) I) sigma (W^dag (x) I) |psi> exactly,
    # with sigma the dual-map Choi state, for W = I and for Haar W; the FEF can
    # only improve on the W = I value, and the observed slack is logged, not
    # assumed zero.
    rng = np.random.default_rng(49)
    max_slack = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 5))
        ch = random_channel(d, 2, rng)
        psi = random_pure_state(d, rng)
        sigma = choi_state(dual(ch)).matrix
        rho_out = apply_one_sided(ch, psi)
        for w in (np.eye(d), random_unitary_oracle(d, rng)):
            wi = np.kron(w, np.eye(d))
            dual_side = float(
                np.vdot(psi.amplitudes, wi @ sigma @ wi.conj().T @ psi.amplitudes).real
            )
            direct = fidelity_with(rho_out, mes_from_unitary(w))
            assert abs(dual_side - direct) < 1e-12
        lower = fidelity_with(rho_out, max_entangled(d))
        best = fef(rho_out, restarts=8).value
        assert best >= lower - 1e-12
        max_slack = max(max_slack, best - lower)
    print(f"max observed FEF improvement over the fixed-state overlap: {max_slack:.3e}")


def test_fstar_upper_bound_values():
    sep = DensityOperator(3, 3, np.diag([1.0 / 3] * 3 + [0.0] * 6))
    assert abs(fstar_upper_bound(sep) - 1 / 3) < 1e-12
    assert abs(fstar_upper_bound(pure_density(max_entangled(3))) - 1.0) < 1e-12
    ch = kraus_validate(REF)
    rho = apply_one_sided(ch, max_entangled(3))
    assert abs(fstar_upper_bound(rho) - 2.0066666666666666 / 3) < 1e-12


def test_fef_sandwich():
    rng = np.random.default_rng(51)
    for d in (2, 3):
        for _ in range(5):
            rho = _random_mixed(d, rng)
            val = fef(rho, restarts=8).value
            lam = float(np.linalg.eigvalsh(rho.matrix)[-1])
            assert fidelity_with(rho, max_entangled(d)) - 1e-12 <= val
            assert val <= min(lam, fstar_upper_bound(rho)) + 1e-9
    # a product input stays separable through the channel, so FEF <= 1/d
    rng = np.random.default_rng(47)
    v = np.zeros(9, dtype=complex)
    v[0] = 1.0
    rho = apply_one_sided(random_channel(3, 3, rng), PureBipartiteState(3, v))
    assert fef(rho, restarts=8).value <= 1 / 3 + 1e-9


def test_best_input_fef_equals_lambda_max():
    rng = np.random.default_rng(53)
    channels = [kraus_validate(REF)] + [random_channel(d, 2, rng) for d in (2, 3)]
    for ch in channels:
        psi = top_choi_eigenpair(dual(ch)).state
        lam = top_choi_eigenpair(ch).value
        val = fef(apply_one_sided(ch, psi), restarts=8).value
        assert abs(val - lam) < 1e-6
    assert abs(top_choi_eigenpair(channels[0]).value - 2.06 / 3) < 1e-12
