"""Bipartite state algebra: construction, Schmidt, partial transpose, fidelity."""

import numpy as np
import pytest

from helpers import partial_trace_oracle, phi_plus_vector, random_mixed, random_unitary_oracle
from quditshare import (
    DensityOperator,
    DimensionError,
    InvalidOperatorError,
    PureBipartiteState,
    fidelity_with,
    max_entangled,
    mes_from_unitary,
    partial_trace,
    partial_transpose,
    pure_density,
    random_pure_state,
    schmidt,
)
from quditshare.states import kron_identity, partial_trace_matrix


def test_max_entangled_d2_amplitudes():
    s = max_entangled(2)
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.abs(s.amplitudes - expected).max() < 1e-15


def test_max_entangled_d3_diagonal_support():
    s = max_entangled(3)
    m = s.coefficient_matrix()
    assert np.abs(np.diag(m) - 1 / np.sqrt(3)).max() < 1e-15
    assert np.abs(m - np.diag(np.diag(m))).max() == 0.0


def test_max_entangled_schmidt_coefficients():
    coeffs = schmidt(max_entangled(3)).coefficients
    assert np.abs(coeffs - 1 / np.sqrt(3)).max() < 1e-12


def test_max_entangled_rejects_d1():
    with pytest.raises(DimensionError):
        max_entangled(1)


def test_mes_from_identity_is_phi_plus():
    s = mes_from_unitary(np.eye(3))
    assert np.abs(s.amplitudes - phi_plus_vector(3)).max() < 1e-15


def test_mes_from_phase_unitary():
    s = mes_from_unitary(np.diag([1.0, -1.0]))
    expected = np.array([1, 0, 0, -1]) / np.sqrt(2)
    assert np.abs(s.amplitudes - expected).max() < 1e-15


def test_mes_from_haar_unitary_is_maximally_entangled():
    rng = np.random.default_rng(11)
    for _ in range(10):
        w = random_unitary_oracle(3, rng)
        dec = schmidt(mes_from_unitary(w))
        assert np.abs(dec.coefficients - 1 / np.sqrt(3)).max() < 1e-10
        assert dec.is_maximally_entangled()


def test_mes_rejects_nonunitary():
    with pytest.raises(InvalidOperatorError):
        mes_from_unitary(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_state_norm_enforced():
    with pytest.raises(InvalidOperatorError):
        PureBipartiteState(2, np.array([1.0, 0, 0, 1.0]))


def test_schmidt_product_state():
    v = np.zeros(9, dtype=complex)
    v[0] = 1.0
    dec = schmidt(PureBipartiteState(3, v))
    assert abs(dec.coefficients[0] - 1.0) < 1e-14
    assert np.abs(dec.coefficients[1:]).max() < 1e-14


def test_schmidt_weighted_diagonal_state():
    # (|00> + 0.5|11> + 0.9|22>)/sqrt(2.06); oracle: SVD of diag(1, .5, .9)/sqrt(2.06)
    norm2 = 1.0 + 0.25 + 0.81
    v = np.zeros(9, dtype=complex)
    v[0], v[4], v[8] = 1.0, 0.5, 0.9
    v /= np.sqrt(norm2)
    squared = np.sort(schmidt(PureBipartiteState(3, v)).coefficients ** 2)[::-1]
    expected = np.sort(np.array([1.0, 0.25, 0.81]) / norm2)[::-1]
    assert np.abs(squared - expected).max() < 1e-14


def test_schmidt_phi_plus_d4():
    coeffs = schmidt(max_entangled(4)).coefficients
    assert np.abs(coeffs - 0.5).max() < 1e-12


def test_schmidt_reconstructs_state():
    rng = np.random.default_rng(5)
    s = random_pure_state(3, rng)
    dec = schmidt(s)
    m = sum(
        c * np.outer(dec.left_basis[k], dec.right_basis[k])
        for k, c in enumerate(dec.coefficients)
    )
    assert np.abs(m - s.coefficient_matrix()).max() < 1e-12


def test_schmidt_invariant_under_local_unitaries():
    rng = np.random.default_rng(21)
    for _ in range(10):
        s = random_pure_state(3, rng)
        u = random_unitary_oracle(3, rng)
        v = random_unitary_oracle(3, rng)
        rotated = PureBipartiteState(3, (u @ s.coefficient_matrix() @ v.T).reshape(-1))
        a = schmidt(s).coefficients
        b = schmidt(rotated).coefficients
        assert np.abs(a - b).max() < 1e-9


def test_partial_transpose_product_state():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_a = a @ a.conj().T
    rho_a /= rho_a.trace()
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_b = b @ b.conj().T
    rho_b /= rho_b.trace()
    rho = DensityOperator(2, np.kron(rho_a, rho_b))
    pt = partial_transpose(rho)
    assert np.abs(pt - np.kron(rho_a, rho_b.T)).max() < 1e-14


def test_partial_transpose_phi_plus_spectrum():
    # swap-operator spectrum: +1/3 six times, -1/3 three times
    rho = pure_density(max_entangled(3))
    eigs = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))
    expected = np.sort([1 / 3] * 6 + [-1 / 3] * 3)
    assert np.abs(eigs - expected).max() < 1e-12


def test_partial_transpose_is_involution():
    from quditshare.states import partial_transpose_matrix

    rng = np.random.default_rng(9)
    s = random_pure_state(3, rng)
    rho = pure_density(s)
    pt = partial_transpose(rho)
    back = partial_transpose_matrix(pt, 3)
    assert np.array_equal(back, rho.matrix)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    s = random_pure_state(4, rng)
    pt = partial_transpose(pure_density(s))
    assert abs(pt.trace().real - 1.0) < 1e-12
    assert np.abs(pt - pt.conj().T).max() < 1e-14


def test_partial_trace_of_mes_is_maximally_mixed():
    rho = pure_density(max_entangled(3))
    red = partial_trace(rho)
    assert np.abs(red - np.eye(3) / 3).max() < 1e-14


def _bits(a):
    """The raw 64-bit words of a real or complex array: equal bits, signed
    zeros included."""
    return np.ascontiguousarray(a).view(np.int64)


def _signed_zero_matrix(d, rng):
    """A random complex d x d matrix with some real and imaginary parts set
    to +0.0 and -0.0, so products with 0 produce zeros of both signs."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a.real[rng.random((d, d)) < 0.25] = -0.0
    a.imag[rng.random((d, d)) < 0.25] = 0.0
    a.imag[rng.random((d, d)) < 0.25] = -0.0
    return a


def test_kron_identity_matches_np_kron_bitwise():
    # A (x) I and I (x) A, each entry one product with 1 or 0: the bits of
    # np.kron, signed zeros included, on one matrix and on a stack
    rng = np.random.default_rng(61)
    for d in range(2, 8):
        eye = np.eye(d)
        for _ in range(20):
            a = _signed_zero_matrix(d, rng)
            for m in (a, a.real.copy()):
                assert np.array_equal(_bits(kron_identity(m)), _bits(np.kron(m, eye)))
                assert np.array_equal(_bits(kron_identity(m, first=False)),
                                      _bits(np.kron(eye, m)))
            stack = np.stack([a, _signed_zero_matrix(d, rng), -a.conj()])
            assert np.array_equal(_bits(kron_identity(stack)), _bits(np.kron(stack, eye[None])))
            assert np.array_equal(_bits(kron_identity(stack, first=False)),
                                  _bits(np.kron(eye[None], stack)))


def test_partial_trace_matrix_matches_loop_oracle():
    rng = np.random.default_rng(63)
    for d in range(2, 7):
        for _ in range(5):
            m = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            assert np.array_equal(_bits(partial_trace_matrix(m, d)),
                                  _bits(partial_trace_oracle(m, d)))
        rho = random_mixed(d, rng)
        oracle = partial_trace_oracle(rho.matrix, d)
        assert np.array_equal(_bits(partial_trace(rho)), _bits(oracle))


def test_fidelity_with_matches_clamped_vdot():
    # the clamped <phi| rho @ phi> of np.vdot, bit for bit
    rng = np.random.default_rng(65)
    for d in range(2, 7):
        for _ in range(20):
            rho = random_mixed(d, rng, rank=int(rng.integers(1, d * d + 1)))
            phi = random_pure_state(d, rng)
            v = phi.amplitudes
            expected = min(1.0, max(0.0, np.vdot(v, rho.matrix @ v).real))
            assert np.array_equal(_bits(fidelity_with(rho, phi)), _bits(expected))


def test_fidelity_projector_on_itself():
    phi = max_entangled(3)
    assert abs(fidelity_with(pure_density(phi), phi) - 1.0) < 1e-12


def test_fidelity_maximally_mixed():
    rho = DensityOperator(3, np.eye(9) / 9)
    assert abs(fidelity_with(rho, max_entangled(3)) - 1 / 9) < 1e-14


def test_fidelity_dimension_mismatch():
    rho = DensityOperator(2, np.eye(4) / 4)
    with pytest.raises(DimensionError):
        fidelity_with(rho, max_entangled(3))


def test_fidelity_range_and_equality_case():
    rng = np.random.default_rng(29)
    for _ in range(20):
        s = random_pure_state(2, rng)
        t = random_pure_state(2, rng)
        val = fidelity_with(pure_density(s), t)
        assert 0.0 <= val <= 1.0
        overlap = abs(np.vdot(s.amplitudes, t.amplitudes)) ** 2
        assert abs(val - overlap) < 1e-12
        if np.abs(s.amplitudes - t.amplitudes).max() > 1e-6:
            assert val < 1.0


def test_density_operator_invariants_enforced():
    bad = np.eye(4) / 4
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(InvalidOperatorError):
        DensityOperator(2, bad)
    with pytest.raises(InvalidOperatorError):
        DensityOperator(2, np.eye(4))  # trace 4
    with pytest.raises(InvalidOperatorError):
        DensityOperator(2, np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
    with pytest.raises(DimensionError):
        DensityOperator(2, np.eye(6) / 6)  # not d^2 x d^2
    for entry in (np.nan, np.inf):
        bad = np.eye(4) / 4
        bad[0, 0] = entry  # NaN passes every check; inf only fails the trace one
        for unit_trace in (True, False):
            with pytest.raises(InvalidOperatorError, match="non-finite"):
                DensityOperator(2, bad, unit_trace=unit_trace)


def test_library_built_operators_meet_public_invariants():
    # pure_density and apply_one_sided skip the checks; their outputs must
    # still pass the public constructor
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        rho = pure_density(random_pure_state(d, rng))
        again = DensityOperator(d, rho.matrix)
        assert np.array_equal(again.matrix, rho.matrix)
        assert not rho.matrix.flags.writeable
