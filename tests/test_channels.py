"""Kraus-channel algebra: validation, duals, one-sided action, Choi states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    damping_kraus_oracle,
    one_sided_oracle,
    padded_kraus_stack,
    phi_plus_vector,
    random_unitary_oracle,
)
from quditshare import (
    ChannelCompletenessError,
    DampingParams,
    DensityOperator,
    DimensionError,
    InvalidOperatorError,
    KrausChannel,
    PureBipartiteState,
    apply_one_sided,
    channel_from_dict,
    channel_to_dict,
    choi_state,
    damping_channel,
    dual,
    is_unital,
    kraus_validate,
    load_channel,
    max_entangled,
    partial_trace,
    pure_density,
    random_channel,
    random_pure_state,
    save_channel,
    top_choi_eigenpair,
)
from quditshare.channels import (
    _psi_prime,
    branch_vectors,
    check_completeness,
    complex_gaussian,
    ginibre_from_normals,
    haar_dilation_kraus,
    haar_from_gaussian,
    one_sided_stack,
    top_eigenpairs,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_identity_channel_valid_and_unital():
    ch = kraus_validate([np.eye(3)])
    assert ch.dim == 3
    assert is_unital(ch)


def test_damping_family_kraus_valid():
    ch = kraus_validate(damping_kraus_oracle(3, [0.5, 0.9]))
    assert ch.dim == 3
    assert not is_unital(ch)


def test_incomplete_kraus_reports_residual():
    with pytest.raises(ChannelCompletenessError) as err:
        kraus_validate([np.diag([1.0, 0.8])])
    assert abs(err.value.residual - 0.36) < 1e-12
    assert err.value.position == (1, 1)


def test_bit_flip_channel_unital():
    p = 0.3
    ch = kraus_validate([np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * X])
    assert is_unital(ch)


def test_damping_family_not_unital_direction():
    # sum A A^dag = diag(1 + sum(1 - x_i^2), x_1^2, x_2^2)
    ops = damping_kraus_oracle(3, [0.5, 0.9])
    acc = sum(a @ a.conj().T for a in ops)
    expected = np.diag([1 + 0.75 + 0.19, 0.25, 0.81])
    assert np.abs(acc - expected).max() < 1e-14


def test_dual_of_identity_and_unitary():
    ch = kraus_validate([np.eye(3)])
    assert np.abs(dual(ch).kraus_ops[0] - np.eye(3)).max() == 0.0
    rng = np.random.default_rng(2)
    u = random_unitary_oracle(3, rng)
    du = dual(kraus_validate([u]))
    assert np.abs(du.kraus_ops[0] - u.conj().T).max() == 0.0
    assert du.trace_preserving


def test_dual_dual_roundtrip():
    rng = np.random.default_rng(4)
    ch = random_channel(3, 3, rng)
    back = dual(dual(ch))
    for a, b in zip(ch.kraus_ops, back.kraus_ops):
        assert np.array_equal(a, b)


def test_dual_flagged_nonpreserving_for_nonunital():
    ch = kraus_validate(damping_kraus_oracle(3, [0.5, 0.9]))
    d = dual(ch)
    assert not d.trace_preserving
    assert np.abs(d.kraus_ops[1] - np.sqrt(0.75) * np.outer([0, 1, 0], [1, 0, 0])).max() < 1e-14


def test_identity_channel_preserves_phi_plus():
    ch = kraus_validate([np.eye(3)])
    rho = apply_one_sided(ch, max_entangled(3))
    assert np.abs(rho.matrix - pure_density(max_entangled(3)).matrix).max() < 1e-14


def test_one_sided_action_matches_kron_oracle():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        ch = random_channel(d, d, rng)
        psi = random_pure_state(d, rng)
        rho = apply_one_sided(ch, psi)
        oracle = one_sided_oracle(ch.kraus_ops, psi.amplitudes, d)
        assert np.abs(rho.matrix - oracle).max() < 1e-12


def test_one_sided_action_trace_one():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5):
        ch = random_channel(d, 2, rng)
        psi = random_pure_state(d, rng)
        rho = apply_one_sided(ch, psi)
        assert abs(rho.matrix.trace().real - 1.0) < 1e-12


def test_one_sided_dimension_mismatch():
    ch = kraus_validate([np.eye(2)])
    with pytest.raises(DimensionError):
        apply_one_sided(ch, max_entangled(3))


def test_product_input_stays_separable():
    # one-sided maps cannot create entanglement from |00>
    from quditshare import negativity

    rng = np.random.default_rng(14)
    v = np.zeros(9, dtype=complex)
    v[0] = 1.0
    psi = PureBipartiteState(3, v)
    for _ in range(5):
        ch = random_channel(3, 3, rng)
        assert negativity(apply_one_sided(ch, psi)) < 1e-12


def test_local_unitary_covariance():
    rng = np.random.default_rng(16)
    d = 3
    ch = random_channel(d, 2, rng)
    psi = random_pure_state(d, rng)
    w = random_unitary_oracle(d, rng)
    rotated = PureBipartiteState(d, (w @ psi.coefficient_matrix()).reshape(-1))
    lhs = apply_one_sided(ch, rotated).matrix
    wi = np.kron(w, np.eye(d))
    rhs = wi @ apply_one_sided(ch, psi).matrix @ wi.conj().T
    assert np.abs(lhs - rhs).max() < 1e-12


def test_choi_state_marginal_and_hash():
    # the first marginal of a channel's Choi state is I/d; the dual of a
    # nonunital channel is not trace preserving, and its Choi state still has
    # trace one with marginal (sum K K^dag)^T / d
    ops = damping_kraus_oracle(3, [0.5, 0.9])
    ch = kraus_validate(ops)
    choi = choi_state(ch)
    assert isinstance(choi, DensityOperator)
    assert np.abs(partial_trace(choi) - np.eye(3) / 3).max() < 1e-10
    sigma = choi_state(dual(ch))
    assert abs(sigma.matrix.trace().real - 1.0) < 1e-12
    expected = sum(k @ k.conj().T for k in ops).T / 3
    assert np.abs(partial_trace(sigma) - expected).max() < 1e-12


def test_top_choi_eigenpair_identity():
    ch = kraus_validate([np.eye(3)])
    top = top_choi_eigenpair(ch)
    assert abs(top.value - 1.0) < 1e-12
    assert abs(abs(np.vdot(top.state.amplitudes, phi_plus_vector(3))) - 1.0) < 1e-10


def test_top_choi_eigenpair_damping_family():
    ch = kraus_validate(damping_kraus_oracle(3, [0.5, 0.9]))
    top = top_choi_eigenpair(dual(ch))
    assert abs(top.value - 2.06 / 3) < 1e-12
    expected = np.zeros(9)
    expected[0], expected[4], expected[8] = 1.0, 0.5, 0.9
    expected /= np.sqrt(2.06)
    assert abs(abs(np.vdot(top.state.amplitudes, expected)) - 1.0) < 1e-10
    assert not top.degenerate


def test_top_choi_eigenpair_depolarizing_degenerate():
    # fully depolarizing qubit channel: Choi state is maximally mixed
    paulis = [np.eye(2), X, np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    ch = kraus_validate([0.5 * p for p in paulis])
    top = top_choi_eigenpair(ch)
    assert abs(top.value - 0.25) < 1e-12
    assert top.degenerate


def test_dual_primal_lambda_max_identity():
    rng = np.random.default_rng(20)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(10):
            k = int(rng.integers(2, d + 1))
            ch = random_channel(d, k, rng)
            a = top_choi_eigenpair(ch).value
            b = top_choi_eigenpair(dual(ch)).value
            worst = max(worst, abs(a - b))
    assert worst < 1e-9


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(2, 6), counts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_dual_branch_vectors_are_swapped_conjugates(d, counts, seed):
    # the dual map's branch vectors (I (x) K_i^dag)|Phi+> are SWAP conj of
    # the channel's, entry for entry, in any stack of lists padded with zero
    # operators: the dual's Choi state is SWAP conj(J) SWAP as computed, not
    # only in exact arithmetic (array_equal, as conj turns a padded +0j into -0j)
    rng = np.random.default_rng(seed)
    stack = padded_kraus_stack([random_channel(d, k, rng).kraus_ops for k in counts])
    n, count = stack.shape[:2]
    phi = np.eye(d)[None] / np.sqrt(d)
    v = branch_vectors(stack, phi)
    swapped = v.conj().reshape(n, count, d, d).swapaxes(-1, -2).reshape(n, count, d * d)
    assert np.array_equal(branch_vectors(stack.conj().swapaxes(-1, -2), phi), swapped)


def _tied_unitary():
    # a unitary channel whose Choi vector (|01> + i|10>) / sqrt(2) has two
    # amplitudes of the top magnitude, which SWAP exchanges
    return kraus_validate([[[0, 1j], [1, 0]]])


@pytest.mark.parametrize("ch", [
    pytest.param(random_channel(3, 2, np.random.default_rng(24)), id="random-3"),
    pytest.param(random_channel(4, 4, np.random.default_rng(25)), id="random-4"),
    pytest.param(damping_channel(DampingParams(3, [0.5, 0.9])), id="damping-3"),
    pytest.param(_tied_unitary(), id="tied"),
])
def test_dual_top_eigenpair_read_off_the_channels_choi_state(ch):
    # the dual's top eigenpair, from one eigh of the channel's own Choi
    # state, is the dense dual's, with the same phase rule: on the tied
    # channel SWAP moves the top amplitude, so the phase is set again
    top, dense = top_choi_eigenpair(ch), top_choi_eigenpair(dual(ch))
    assert abs(top.value - dense.value) < 1e-12
    assert top.degenerate is dense.degenerate is False
    amps = _psi_prime(top.state.amplitudes, ch.dim).amplitudes
    assert np.abs(amps - dense.state.amplitudes).max() < 1e-10
    lead = amps[np.argmax(np.abs(amps))]
    assert lead.real > 0 and abs(lead.imag) <= 1e-15


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(22)
    for d in (2, 3, 6):
        u = haar_from_gaussian(complex_gaussian(d, rng))
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12


def test_random_channel_completeness():
    rng = np.random.default_rng(24)
    for d in (2, 4):
        for k in (2, d):
            ch = random_channel(d, k, rng)
            acc = sum(a.conj().T @ a for a in ch.kraus_ops)
            assert np.abs(acc - np.eye(d)).max() < 1e-12


def test_random_channel_is_blocked_haar_dilation():
    # the Kraus operators are the d x d blocks of the first d columns of the
    # Haar unitary of order d k drawn from an identically seeded generator
    for d in (2, 3, 5):
        for k in (1, 2, d + 1):
            ch = random_channel(d, k, np.random.default_rng([d, k]))
            u = haar_from_gaussian(complex_gaussian(d * k, np.random.default_rng([d, k])))
            expected = [u[i * d:(i + 1) * d, :d] for i in range(k)]
            assert len(ch.kraus_ops) == k
            for a, b in zip(ch.kraus_ops, expected):
                assert np.array_equal(a.view(np.int64), np.ascontiguousarray(b).view(np.int64))


@pytest.mark.parametrize("d, k", [(d, k) for d in range(2, 7) for k in range(1, d + 1)])
def test_haar_dilation_kraus_factors_only_the_kept_columns(d, k):
    # the first d columns of a QR, and the phases of R's first d diagonal
    # entries, depend on the first d columns of the Gaussian alone: factoring
    # those gives the bits of the full unitary's first d columns
    normals = np.random.default_rng([d, k]).standard_normal((7, 2 * (d * k) ** 2))
    z = ginibre_from_normals(normals, d * k)
    full = haar_from_gaussian(z)[..., :d].reshape(7, k, d, d)
    assert np.array_equal(haar_dilation_kraus(z, d).view(np.int64), full.view(np.int64))


def test_channel_json_roundtrip(tmp_path):
    rng = np.random.default_rng(26)
    ch = random_channel(3, 2, rng)
    path = tmp_path / "ch.json"
    save_channel(ch, path)
    loaded = load_channel(path)
    assert loaded.dim == 3
    for a, b in zip(ch.kraus_ops, loaded.kraus_ops):
        assert np.abs(a - b).max() == 0.0  # 17 significant digits round-trip exactly


def test_channel_dict_rejects_incomplete():
    data = channel_to_dict(kraus_validate([np.eye(2)]))
    data["kraus"][0][1][1] = [0.5, 0.0]
    with pytest.raises(ChannelCompletenessError):
        channel_from_dict(data)


def test_channel_needs_trace_preservation_flag():
    with pytest.raises(ChannelCompletenessError):
        KrausChannel(dim=2, kraus_ops=(np.diag([1.0, 0.8]),))
    # same operators pass with the relaxed flag used for dual maps
    KrausChannel(dim=2, kraus_ops=(np.diag([1.0, 0.8]),), trace_preserving=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("trace_preserving", [True, False])
def test_channel_rejects_non_finite_entries(bad, trace_preserving):
    op = np.eye(2, dtype=complex)
    op[1, 0] = bad
    with pytest.raises(InvalidOperatorError, match="non-finite"):
        KrausChannel(dim=2, kraus_ops=(op,), trace_preserving=trace_preserving)


def test_channel_rejects_an_overflowing_completeness_residual():
    # |1e200 (1 + i)|^2 overflows, and the residual it leaves is NaN or inf,
    # never within the tolerance
    op = np.eye(2, dtype=complex)
    op[0, 0] = 1e200 + 1e200j
    with pytest.raises(ChannelCompletenessError):
        KrausChannel(dim=2, kraus_ops=(op,))


def _omega():
    return damping_channel(DampingParams(3, [0.5, 0.9]))


@pytest.mark.parametrize("make, count", [
    pytest.param(lambda: KrausChannel(dim=2, kraus_ops=(np.eye(2),)), 1, id="KrausChannel"),
    pytest.param(lambda: KrausChannel(dim=3, kraus_ops=_omega().kraus_ops.copy()), 3,
                 id="KrausChannel-array"),
    pytest.param(lambda: kraus_validate([[[0, 1], [1, 0]]]), 1, id="kraus_validate"),
    pytest.param(lambda: random_channel(3, 4, np.random.default_rng(5)), 4, id="random_channel"),
    pytest.param(_omega, 3, id="damping_channel"),
    pytest.param(lambda: dual(_omega()), 3, id="dual"),
    pytest.param(lambda: channel_from_dict(channel_to_dict(_omega())), 3,
                 id="channel_from_dict"),
])
def test_kraus_ops_is_a_readonly_complex_stack(make, count):
    # every way to a channel holds its Kraus list as the one (K, d, d)
    # complex array the kernels take, C-contiguous and read-only
    ch = make()
    ops = ch.kraus_ops
    assert type(ops) is np.ndarray and ops.dtype == complex
    assert ops.shape == (count, ch.dim, ch.dim)
    assert ops.flags.c_contiguous and not ops.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ops[0, 0, 0] = 2.0


def test_kraus_stack_is_a_copy_of_the_input():
    src = np.stack([np.eye(2, dtype=complex)])
    ch = KrausChannel(dim=2, kraus_ops=src)
    src[0, 0, 0] = 0.0
    assert ch.kraus_ops[0, 0, 0] == 1.0


_RAGGED = "does not match dim 2"


@pytest.mark.parametrize("ops, channel_match, validate_match", [
    pytest.param([np.eye(2), np.eye(3)], _RAGGED, _RAGGED, id="square"),
    pytest.param([np.eye(2), np.ones((2, 3))], _RAGGED, _RAGGED, id="rectangular"),
    pytest.param([np.eye(2), np.ones(4)], _RAGGED, _RAGGED, id="flat"),
    # kraus_validate reads d from the first operator, and a scalar has none
    pytest.param([1.0], _RAGGED, r"Kraus operator shape \(\) is not \(d, d\)",
                 id="scalar-operator"),
    pytest.param(5, r"Kraus list shape \(\) is not \(K, d, d\)",
                 r"Kraus list shape \(\) is not \(K, d, d\)", id="scalar-list"),
])
def test_ragged_kraus_list_raises_dimension_error(ops, channel_match, validate_match):
    with pytest.raises(DimensionError, match=channel_match):
        KrausChannel(dim=2, kraus_ops=ops, trace_preserving=False)
    with pytest.raises(DimensionError, match=validate_match):
        kraus_validate(ops)


@pytest.mark.parametrize("ops", [[], (), np.zeros((0, 2, 2))], ids=["list", "tuple", "array"])
def test_empty_kraus_list_raises_invalid_operator(ops):
    with pytest.raises(InvalidOperatorError):
        KrausChannel(dim=2, kraus_ops=ops)
    with pytest.raises(InvalidOperatorError):
        kraus_validate(ops)


@pytest.mark.parametrize("ch", [
    pytest.param(random_channel(3, 2, np.random.default_rng(8)), id="random"),
    pytest.param(_omega(), id="damping"),
])
def test_dual_stack_is_the_adjoint_stack_bit_for_bit(ch):
    # zeros included: conj turns +0j into -0j, and the dual keeps that sign
    assert dual(ch).kraus_ops.tobytes() == ch.kraus_ops.conj().mT.tobytes()


def test_apply_one_sided_within_completeness_tolerance():
    # residual 4e-11 passes the channel's 1e-10 completeness check, so the
    # output trace 1 + 2e-11 must not be rejected downstream
    op = [[[1, 0], [0, 0]], [[0, 0], [np.sqrt(1 + 4e-11), 0]]]
    ch = channel_from_dict({"d": 2, "kraus": [op]})
    rho = apply_one_sided(ch, max_entangled(2))
    assert abs(rho.matrix.trace().real - 1.0) < 1e-10
    assert rho.unit_trace


def test_apply_one_sided_output_is_readonly_and_valid():
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        ch = random_channel(d, 3, rng)
        for c in (ch, dual(ch)):
            rho = apply_one_sided(c, random_pure_state(d, rng))
            assert not rho.matrix.flags.writeable
            DensityOperator(d, rho.matrix, unit_trace=c.trace_preserving)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_kernel_matches_apply_one_sided(d):
    # one stack of channels with 1 to d + 1 Kraus operators, padded with zero
    # operators to the longest, and the dual of a nonunital channel (not
    # trace preserving); each output equals apply_one_sided's bit for bit
    rng = np.random.default_rng(70 + d)
    chans = [random_channel(d, k, rng) for k in range(1, d + 2)]
    if d == 2:  # amplitude damping
        nonunital = kraus_validate([[[1, 0], [0, 0.6]], [[0, 0.8], [0, 0]]])
    else:
        nonunital = damping_channel(DampingParams(d, np.linspace(0.3, 0.8, d - 1)))
    assert not is_unital(nonunital)
    chans.append(dual(nonunital))
    assert not chans[-1].trace_preserving
    states = [random_pure_state(d, rng) for _ in chans]
    stack = padded_kraus_stack([ch.kraus_ops for ch in chans])
    assert stack.shape == (len(chans), d + 1, d, d)
    outs = one_sided_stack(stack, np.stack([psi.coefficient_matrix() for psi in states]))
    for ch, psi, out in zip(chans, states, outs):
        assert out.tobytes() == apply_one_sided(ch, psi).matrix.tobytes()
    # one input for the whole stack: the Choi states
    choi = one_sided_stack(stack, max_entangled(d).coefficient_matrix()[None])
    for ch, out in zip(chans, choi):
        assert out.tobytes() == choi_state(ch).matrix.tobytes()


def test_stacked_checks_cover_every_member():
    # a stack fails completeness when any one list does, at that list's index
    rng = np.random.default_rng(8)
    lists = [random_channel(3, k, rng).kraus_ops for k in (2, 3, 1)]
    check_completeness(padded_kraus_stack(lists))
    bad = padded_kraus_stack([*lists, (0.9 * np.eye(3),)])
    with pytest.raises(ChannelCompletenessError) as err:
        check_completeness(bad)
    assert err.value.position[0] == 3
    # and top_eigenpairs gives each Choi state's top_choi_eigenpair
    chans = [random_channel(3, 2, rng), dual(random_channel(3, 3, rng))]
    lam, vecs, degenerate = top_eigenpairs(np.stack([choi_state(ch).matrix for ch in chans]))
    for ch, value, vec, flag in zip(chans, lam, vecs, degenerate):
        top = top_choi_eigenpair(ch)
        assert (top.value, top.state.amplitudes.tobytes(), top.degenerate) == (
            value, vec.tobytes(), flag)
