"""Negativity, fully entangled fraction, and the fidelity ceiling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    damping_kraus_oracle,
    near_saddle_state,
    negativity_oracle,
    random_mixed,
    random_unitary_oracle,
)
from quditshare import (
    DensityOperator,
    PureBipartiteState,
    apply_one_sided,
    choi_state,
    dual,
    fef,
    fef_batch,
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
from quditshare import cli
from quditshare.measures import (
    CERT_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _POLISH_POINTS,
    _adjoint,
    _ascend_unitaries,
    _certified,
    _cholesky_proves,
    _herm,
    _identity_starts,
    _negativity_of_spectra,
    _proves,
    _seeded_starts,
    negativity_of_matrix,
)
from quditshare.states import EIG_CLAMP, kron_identity, partial_transpose_matrix

REF = damping_kraus_oracle(3, [0.5, 0.9])


def test_negativity_product_state():
    # with no negative partial-transpose eigenvalue the sum is +0.0, not -0.0
    for m in (np.diag([0.5, 0.5, 0.0, 0.0]), np.eye(4) / 4):
        value = negativity(DensityOperator(2, m))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


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
            rho = random_mixed(d, rng)
            assert abs(negativity(rho) - negativity_oracle(rho.matrix, d)) < 1e-12


def test_negativity_of_spectra_is_the_dense_rule():
    # one clamp-and-sum rule serves the dense path and the damping
    # certificate's sector path: on the spectra negativity_of_matrix solves
    # it gives the same bits, a stack's and each matrix's alone
    rng = np.random.default_rng(35)
    for d in (2, 3, 4):
        mats = np.stack([random_mixed(d, rng).matrix for _ in range(4)])
        values = _negativity_of_spectra(np.linalg.eigvalsh(partial_transpose_matrix(mats, d)))
        assert values.tobytes() == negativity_of_matrix(mats, d).tobytes()
        assert values.tolist() == [negativity_of_matrix(m, d) for m in mats]
    # a diagonal two-qubit matrix is its own partial transpose, with its
    # diagonal, sorted, as spectrum: eigenvalues in (-EIG_CLAMP, 0) are
    # clamped, -EIG_CLAMP is not, and with no negative one the result is +0.0
    spectra = np.array([[-0.5, -0.5 * EIG_CLAMP, 0.0, 0.25],
                        [-2 * EIG_CLAMP, -EIG_CLAMP, 0.0, 0.5],
                        [-1e-13, -0.0, 0.0, 1e-13],
                        [0.1, 0.2, 0.3, 0.4]])
    values = _negativity_of_spectra(spectra)
    assert values.tolist() == [0.5, 3 * EIG_CLAMP, 0.0, 0.0]
    assert all(math.copysign(1.0, v) == 1.0 for v in values)
    for row, value in zip(spectra, values):
        dense = negativity_of_matrix(np.diag(row), 2)
        assert math.copysign(1.0, dense) == 1.0
        assert np.float64(dense).tobytes() == value.tobytes()


def _negativity_row_loop(eigs):
    """The per-row rule the grouped sum replaced: clamp, then sum each
    row's negative eigenvalues on their own."""
    eigs = np.where((eigs > -EIG_CLAMP) & (eigs < 0.0), 0.0, eigs)
    return np.array([0.0 - row[row < 0.0].sum() for row in eigs])


def test_grouped_negativity_sum_is_the_row_loop():
    # _negativity_of_spectra sums the rows with k negatives as one (rows, k)
    # array; it gives the per-row loop's bits on ragged counts, rows with no
    # negative (+0.0) or only clamped ones, rows longer than numpy's
    # 128-term pairwise blocks, and the spectra sweep and audit hand it
    rng = np.random.default_rng(36)
    ragged = rng.standard_normal((400, 9)) * rng.choice([1.0, 1e-13, 0.0], size=(400, 9))
    ragged[:50] = np.abs(ragged[:50])
    ragged[50:60] = -rng.uniform(0.0, EIG_CLAMP, size=(10, 9))
    # row r has 150 + 45 r negatives, then positives
    long_rows = -np.abs(rng.standard_normal((12, 700)))
    long_rows[np.arange(700) >= 150 + 45 * np.arange(12)[:, None]] *= -1.0
    sweep = []
    for d in (3, 8):
        xs = np.sort(rng.uniform(0.05, 0.95, (200, d - 1)), axis=1)
        u = np.column_stack((np.ones(len(xs)), xs)) / np.sqrt(d)
        w = np.sqrt(1.0 - xs**2) / np.sqrt(d)
        i, j = np.triu_indices(d, 1)
        blocks = np.zeros((len(xs), i.size, 2, 2))
        blocks[:, :, 0, 1] = blocks[:, :, 1, 0] = u[:, i] * u[:, j]
        blocks[:, : d - 1, 1, 1] = w * w
        sweep.append(np.linalg.eigvalsh(blocks).reshape(len(xs), d * (d - 1)))
    audit = [np.linalg.eigvalsh(partial_transpose_matrix(
        np.stack([random_mixed(d, rng).matrix for _ in range(30)]), d)) for d in (2, 3, 6)]
    for eigs in (ragged, long_rows, *sweep, *audit, np.empty((0, 4))):
        counts = np.count_nonzero(
            np.where((eigs > -EIG_CLAMP) & (eigs < 0.0), 0.0, eigs) < 0.0, axis=1)
        got = _negativity_of_spectra(eigs)
        assert got.view(np.int64).tolist() == _negativity_row_loop(eigs).view(np.int64).tolist()
        if eigs is ragged:
            assert len(set(counts.tolist())) >= 5 and not counts[:60].any()
            assert got[:60].view(np.int64).tolist() == [0] * 60
        if eigs is long_rows:
            assert counts.tolist() == list(range(150, 690, 45))


def test_negativity_local_unitary_invariant():
    rng = np.random.default_rng(33)
    for _ in range(10):
        rho = random_mixed(3, rng)
        u = random_unitary_oracle(3, rng)
        v = random_unitary_oracle(3, rng)
        big = np.kron(u, v)
        rotated = DensityOperator(3, big @ rho.matrix @ big.conj().T)
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


def test_fef_antisymmetric_projector_bracket_stays_open():
    # rho = P_asym / 3 at d = 3, P_asym = (I - SWAP) / 2. P_asym Phi+ = 0, so
    # the identity start's power step is zero and it stays at Phi+, a
    # stationary point with value 0; the seeded starts reach 2/9, which
    # W = [[0, 1], [-1, 0]] (+) 1 attains. No dual point closes either bracket.
    d = 3
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    rho = DensityOperator(d, (np.eye(d * d) - swap) / 6)
    alone = fef(rho, restarts=1)
    assert alone.value == 0.0 and not alone.certified
    res = fef(rho)
    assert abs(res.value - 2 / 9) < 1e-12 and not res.certified


def test_least_squares_point_reads_r_alone():
    # L*(M(X/2)) = L*(R_h) at the ascent's unitary, so _certified builds no
    # M(X/2) for its least-squares point
    rng = np.random.default_rng(71)
    for d in (3, 4, 5):
        rho = apply_one_sided(random_channel(d, d, rng), random_pure_state(d, rng))
        r = rho.matrix / d
        w = _ascend_unitaries(r, d, np.eye(d, dtype=complex)[None])[1][0]
        x = _herm((r @ w.reshape(-1)).reshape(d, d) @ w.conj().T)
        a_i = kron_identity(0.5 * x)
        i_b = kron_identity(_herm(w.conj().T @ (0.5 * x) @ w).T, first=False)
        rh = _herm(r)
        assert np.abs(_adjoint(rh - (a_i + i_b), w) - _adjoint(rh, w)).max() < 1e-13


def test_fef_value_matches_maximizer():
    rng = np.random.default_rng(37)
    rho = random_mixed(3, rng)
    res = fef(rho, restarts=8)
    direct = fidelity_with(rho, mes_from_unitary(res.maximizer_unitary))
    assert abs(res.value - direct) < 1e-10


def test_fef_never_below_phi_plus_fidelity():
    rng = np.random.default_rng(39)
    for _ in range(10):
        rho = random_mixed(3, rng, rank=3)
        res = fef(rho, restarts=4)
        assert res.value >= fidelity_with(rho, max_entangled(3)) - 1e-12


def test_fef_deterministic_bit_identical():
    rng = np.random.default_rng(41)
    rho = random_mixed(3, rng)
    a = fef(rho, restarts=8, seed=123)
    b = fef(rho, restarts=8, seed=123)
    assert a.value == b.value
    assert np.array_equal(a.maximizer_unitary, b.maximizer_unitary)


def test_fef_local_unitary_invariant():
    rng = np.random.default_rng(43)
    for _ in range(5):
        rho = random_mixed(3, rng)
        u = random_unitary_oracle(3, rng)
        v = random_unitary_oracle(3, rng)
        big = np.kron(u, v)
        rotated = DensityOperator(3, big @ rho.matrix @ big.conj().T)
        a = fef(rho, restarts=16).value
        b = fef(rotated, restarts=16).value
        assert abs(a - b) < 1e-6


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
    sep = DensityOperator(3, np.diag([1.0 / 3] * 3 + [0.0] * 6))
    assert abs(fstar_upper_bound(sep) - 1 / 3) < 1e-12
    assert abs(fstar_upper_bound(pure_density(max_entangled(3))) - 1.0) < 1e-12
    ch = kraus_validate(REF)
    rho = apply_one_sided(ch, max_entangled(3))
    assert abs(fstar_upper_bound(rho) - 2.0066666666666666 / 3) < 1e-12


def test_fef_sandwich():
    rng = np.random.default_rng(51)
    for d in (2, 3):
        for _ in range(5):
            rho = random_mixed(d, rng)
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


def _two_qubit_operators(n, rng):
    """Seeded two-qubit inputs in turn: a mixed state of rank 1..4, a channel
    output, and a dual-map output (unit_trace is False for a nonunital
    channel's dual)."""
    for case in range(n):
        if case % 3 == 0:
            yield random_mixed(2, rng, rank=1 + (case // 3) % 4)
            continue
        ch = random_channel(2, int(rng.integers(1, 4)), rng)
        yield apply_one_sided(ch if case % 3 == 1 else dual(ch), random_pure_state(2, rng))


def test_fef_qubit_closed_form():
    # at d = 2 fef is lambda_max(Re rho) in the magic basis: between the Phi+
    # overlap and the ceiling min(lambda_max, (tr rho + 2N)/2), and reached by
    # its own maximizer; the ceiling scales with the trace, which is 1 except
    # for dual-map outputs
    seen_dual = 0
    for rho in _two_qubit_operators(240, np.random.default_rng(2)):
        res = fef(rho)
        lam = float(np.linalg.eigvalsh(rho.matrix)[-1])
        ceiling = (rho.matrix.trace().real + 2.0 * negativity(rho)) / 2.0
        assert res.converged
        assert res.value >= fidelity_with(rho, max_entangled(2)) - 1e-15
        assert res.value <= min(lam, ceiling) + 1e-12
        assert res.value <= fstar_upper_bound(rho) + 1e-12
        assert res.value == fidelity_with(rho, mes_from_unitary(res.maximizer_unitary))
        seen_dual += not rho.unit_trace
    assert seen_dual > 40
    # Phi+ through an identity-dominant Pauli channel: Phi+ is optimal, so the
    # closed form meets the Phi+ overlap itself
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1, -1])]
    rng = np.random.default_rng(4)
    for _ in range(40):
        w = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        rho = apply_one_sided(kraus_validate([np.sqrt(q) * p for q, p in zip(w, paulis)]),
                              max_entangled(2))
        phip = fidelity_with(rho, max_entangled(2))
        assert phip - 1e-15 <= fef(rho).value <= phip + 1e-15


def test_fef_qubit_ascent_matches_closed_form():
    # the 32-start stacked ascent, which fef runs only at d >= 3, stays
    # checked at d = 2: it never beats the closed form by more than a few
    # ulps of rounding in the two overlaps, and falls short by less than 1e-7
    rounding = 16 * np.finfo(float).eps
    for seed, rho in enumerate(_two_qubit_operators(120, np.random.default_rng(3))):
        exact = fef(rho).value
        ascent = _stacked_ascent_bytes(rho, 32, seed)[0]
        assert ascent <= exact + rounding, (seed, ascent - exact)
        assert exact - ascent < 1e-7, (seed, exact - ascent)


def test_best_input_fef_equals_lambda_max():
    rng = np.random.default_rng(53)
    channels = [kraus_validate(REF)] + [random_channel(d, 2, rng) for d in (2, 3)]
    for ch in channels:
        psi = top_choi_eigenpair(dual(ch)).state
        lam = top_choi_eigenpair(ch).value
        val = fef(apply_one_sided(ch, psi), restarts=8).value
        assert abs(val - lam) < 1e-6
    assert abs(top_choi_eigenpair(channels[0]).value - 2.06 / 3) < 1e-12


def _serial_starts(rho, restarts, seed):
    """The FEF ascent start by start, the rule fef's stacked ascent runs:
    per start (value, unitary, converged), np.vdot for every inner product.

    A start keeps its point's y = R w and the residual f = y - x of the
    step that gave it (the start itself is the step from input w0), and
    the last kept point's (y, f) as its history. With a history the next
    input is the secant step y - gamma (y - y_prev), else y itself (a plain
    step). A step is kept when it gains; an extrapolated step that gains
    less than DEFAULT_TOL clears the history, and a plain one ends the
    start."""
    d = rho.dim
    r = rho.matrix / d
    out = []
    for k in range(restarts):
        if k == 0:
            w = np.eye(d, dtype=complex).reshape(-1)
        else:
            rng = np.random.default_rng([seed, k])
            z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
            q, t = np.linalg.qr(z)
            diag = np.diagonal(t)
            w = (q * np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)).reshape(-1)
        y = r @ w
        f = y - w
        val = float(np.vdot(w, y).real)
        history = None
        converged = False
        for _ in range(DEFAULT_MAX_ITER):
            gamma, x = 0.0, y
            if history is not None:
                y_prev, f_prev = history
                df = f - f_prev
                den = float(np.vdot(df, df).real)
                if den > 0:
                    gamma = float(np.vdot(df, f).real) / den
                # gamma >= 1 models a mode that grows: the secant step would
                # head back to the point the start climbs away from
                if gamma >= 1.0:
                    gamma = 0.0
                x = y - gamma * (y - y_prev)
            u, _, vh = np.linalg.svd(x.reshape(d, d))
            w_new = (u @ vh).reshape(-1)
            y_new = r @ w_new
            val_new = float(np.vdot(w_new, y_new).real)
            up, gain = val_new > val, val_new - val
            if up:
                history = (y, f)
                w, y, f, val = w_new, y_new, y_new - x, val_new
            if not up or gain < DEFAULT_TOL:
                if not gamma:
                    converged = True
                    break
                history = None
        out.append((val, w.reshape(d, d), converged))
    return out


def _serial_fef(rho, starts):
    """(value, maximizer bytes, converged) of the first strictly best start."""
    best = None
    for val, w, conv in starts:
        if best is None or val > best[0]:
            best = (val, w, conv)
    return fidelity_with(rho, mes_from_unitary(best[1])), best[1].tobytes(), best[2]


def _stacked_ascent_bytes(rho, restarts, seed):
    """(value, maximizer bytes, converged) of the stacked ascent from fef's
    starts, run directly: fef itself stops after the identity start when its
    bracket closes, and is exact at d = 2."""
    d = rho.dim
    vals, ws, converged = _ascend_unitaries(rho.matrix / d, d, _seeded_starts(d, restarts, seed))
    best = int(np.argmax(vals))
    return fidelity_with(rho, mes_from_unitary(ws[best])), ws[best].tobytes(), bool(converged[best])


def _check_fef_against_serial(rho, restarts, seed, starts):
    """fef agrees with the start-by-start loop: bit for bit when the identity's
    bracket stays open; when it closes, the identity's own result, within
    CERT_TOL of the best of every start. Returns fef's result."""
    res = fef(rho, restarts=restarts, seed=seed)
    got = (res.value, res.maximizer_unitary.tobytes(), res.converged)
    if res.certified:
        assert got == _serial_fef(rho, starts[:1])
        assert res.value >= _serial_fef(rho, starts[:restarts])[0] - CERT_TOL
    else:
        assert got == _serial_fef(rho, starts[:restarts])
    return res


def _check_batches_against_alone(rhos, singles):
    """fef_batch on rhos, in batches of twice the size run_audit passes it, gives
    fef(rho, restarts=1).value of each operator alone bit for bit, and its
    identity starts end at the lone calls' maximizers and converged flags:
    singles holds those results."""
    d = rhos[0].dim
    size = 2 * cli._fef_batch_size(d)
    for lo in range(0, len(rhos), size):
        stack = np.stack([rho.matrix for rho in rhos[lo:lo + size]])
        alone = singles[lo:lo + size]
        values = fef_batch(stack)
        assert values.tobytes() == np.array([res.value for res in alone]).tobytes(), (d, lo)
        _, ws, converged = _identity_starts(stack)
        assert [(w.tobytes(), bool(conv)) for w, conv in zip(ws, converged)] == [
            (res.maximizer_unitary.tobytes(), res.converged) for res in alone], (d, lo)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_fef_stacked_matches_serial_loop(d):
    # 60 channel outputs per d: enough that an inner product rounding one ulp
    # differently (einsum in place of vecdot) changes some result here, through
    # a different step or stop decision or a different winner among near ties.
    # At 32 starts the polish runs for d <= 5 and closes all 60 outputs at
    # d = 3, so a full-rank mixed state, whose relaxation gap no dual point
    # closes, keeps the open path taken there.
    rng = np.random.default_rng(600 + d)
    seed = d
    rhos = []
    for _ in range(60):
        ch = random_channel(d, int(rng.integers(1, d + 2)), rng)
        rhos.append(apply_one_sided(ch, random_pure_state(d, rng)))
    if d == 3:
        rhos.append(random_mixed(d, np.random.default_rng(6)))
    alone = {restarts: [] for restarts in (1, 2, 8, 32)}
    for case, rho in enumerate(rhos):
        starts = _serial_starts(rho, 32, seed)
        for restarts in alone:
            assert _stacked_ascent_bytes(rho, restarts, seed) == _serial_fef(
                rho, starts[:restarts]), (d, case, restarts)
            if d > 2:
                alone[restarts].append(_check_fef_against_serial(rho, restarts, seed, starts))
    if d > 2:
        # both of fef's paths are taken at every d >= 3
        assert {res.certified for res in alone[32]} == {True, False}
    else:
        # the exact magic-basis path, one eigensolve per operator alone
        alone[1] = [fef(rho, restarts=1) for rho in rhos]
    _check_batches_against_alone(rhos, alone[1])


def test_fef_stacked_matches_serial_loop_at_iteration_cap():
    # the identity start of this state is still climbing after DEFAULT_MAX_ITER
    # steps; with 2 and 8 starts it sits in the stack beside converged starts,
    # and in a batch beside the identity starts of fast outputs, which the
    # stack leaves behind
    rho = near_saddle_state()
    starts = _serial_starts(rho, 8, seed=0)
    assert not starts[0][2]
    rng = np.random.default_rng(1738)
    fast = [apply_one_sided(random_channel(3, 2, rng), random_pure_state(3, rng))
            for _ in range(3)]
    for restarts in (1, 2, 8):
        assert _stacked_ascent_bytes(rho, restarts, 0) == _serial_fef(rho, starts[:restarts])
        res = _check_fef_against_serial(rho, restarts, 0, starts)
        # the unconverged identity leaves the bracket open, so fef runs the rest
        assert not res.certified
    alone = [fef(f, restarts=1) for f in fast]
    assert all(r.converged for r in alone)
    assert {r.certified for r in alone} == {True, False}
    _check_batches_against_alone([fast[0], rho, *fast[1:]],
                                 [alone[0], fef(rho, restarts=1), *alone[1:]])


def _plain_gains(r, ws):
    """Per start, the gain of one plain step from W against r (one (d^2, d^2)
    for all, or one per start): the SVD of R W, polar-projected."""
    d = ws.shape[-1]
    w = ws.reshape(len(ws), d * d)
    y = np.matmul(r, w[..., None])[..., 0]
    u, _, vh = np.linalg.svd(y.reshape(-1, d, d))
    w_new = (u @ vh).reshape(len(ws), d * d)
    return np.vecdot(w_new, np.matmul(r, w_new[..., None])[..., 0]).real - np.vecdot(w, y).real


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_converged_starts_leave_on_a_plain_step(d):
    # a start leaves only when a plain step gains less than DEFAULT_TOL, never
    # on a secant step that fails: one more plain step from a converged
    # start's W gains less than DEFAULT_TOL, and W is unitary. Checked on an
    # audit batch of identity starts, each at least its Phi+ overlap, and on
    # a 32-start seeded stack
    rho = cli._audit_chunk(d, 5, 0, cli._fef_batch_size(d))[0]
    r = rho / d
    eye = np.eye(d, dtype=complex).reshape(-1)
    floor = np.vecdot(eye, np.matmul(r, eye[:, None])[..., 0]).real
    vals, ws, converged = _identity_starts(rho)
    assert (vals >= floor).all()
    _, seeded, seeded_converged = _ascend_unitaries(r[0], d, _seeded_starts(d, 32, d))
    stacks = [(r[converged], ws[converged]), (r[0], seeded[seeded_converged])]
    for r_, ws in stacks:
        assert len(ws) >= 8
        assert (_plain_gains(r_, ws) < DEFAULT_TOL).all()
        defect = ws @ ws.conj().swapaxes(-1, -2) - np.eye(d)
        assert np.abs(defect).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(d=st.integers(3, 5), seed=st.integers(0, 2**32 - 1), mixed=st.booleans(),
       polish=st.booleans())
def test_fef_certificate_is_sound(d, seed, mixed, polish):
    # a certified value is within CERT_TOL of the optimum, so no start of a
    # much larger search climbs above it by more. 2 starts try the
    # least-squares point alone, as audit's do; d^2 + 1 are the fewest at
    # which the polish runs, so certificates of both budgets are drawn
    rng = np.random.default_rng(seed)
    if mixed:
        rho = random_mixed(d, rng)
    else:
        rho = apply_one_sided(random_channel(d, int(rng.integers(1, d + 2)), rng),
                              random_pure_state(d, rng))
    res = fef(rho, restarts=d * d + 1 if polish else 2)
    if res.certified:
        vals, _, _ = _ascend_unitaries(rho.matrix / d, d, _seeded_starts(d, 64, seed))
        assert vals.max() <= res.value + CERT_TOL


@pytest.mark.parametrize("d", [4, 5])
def test_polished_certificates_are_sound(d):
    # of 24 channel outputs, the polish closes some brackets the
    # least-squares point alone leaves open, and no start of a 64-start
    # search beats those by more than CERT_TOL either
    rng = np.random.default_rng(700 + d)
    polished = 0
    for _ in range(24):
        rho = apply_one_sided(random_channel(d, int(rng.integers(1, d + 2)), rng),
                              random_pure_state(d, rng))
        r = rho.matrix / d
        w = _ascend_unitaries(r, d, np.eye(d, dtype=complex)[None])[1][0]
        value = fidelity_with(rho, mes_from_unitary(w))
        if _certified(r, w, value, 1) or not _certified(r, w, value, _POLISH_POINTS):
            continue
        polished += 1
        res = fef(rho, restarts=d * d + 1)
        assert res.certified and res.value == value
        vals, _, _ = _ascend_unitaries(r, d, _seeded_starts(d, 64, 1))
        assert vals.max() <= value + CERT_TOL
    assert polished >= 3


def _diagonal_family_point(excess):
    """(r, w, value) at d = 4 with w = I on a diagonal state where the
    least-squares point that ``_certified`` tries first has lambda_max within
    1e-17 of t0 + excess, and no point of the family does better.

    With w = I and equal diagonal entries x of X, M(C) is diagonal on
    diagonal C, with entries R_(ik) - x + c_i - c_k off i = k and 0 on it;
    here R_(ik) - x = E + g_i - g_k, E = t0 + excess, so the least-squares
    point (c = -g + const) leaves E everywhere, and every C leaves
    lambda_max(M(C)) >= E, as the (i, k) and (k, i) diagonal entries sum to
    2 E whatever C is.
    """
    d = 4
    t0 = CERT_TOL / d
    big_e = t0 + excess
    g = np.arange(d) * 1e-4
    p = (1.0 - 48 * big_e) / 16
    diag = p + d * (big_e + g[:, None] - g[None, :])
    np.fill_diagonal(diag, p)
    rho = DensityOperator(d, np.diag(diag.reshape(-1)))
    value = fidelity_with(rho, max_entangled(d))
    return rho.matrix / d, np.eye(d, dtype=complex), value


def test_polished_point_keeps_its_rounding_margin():
    # lambda_max of the least-squares point, the best of the family, misses
    # t0 by 1e-15, so neither budget closes the bracket; the margin, about
    # 5e-15 here, would hide that if it were added to t0 instead of
    # subtracted
    for excess in (1e-15, 1e-10, -1e-10):
        point = _diagonal_family_point(excess)
        for points in (1, _POLISH_POINTS):
            assert _certified(*point, points) is (excess < 0)


def test_dual_test_margin_covers_rounding():
    # a dual point (A, B) = (0, 0) at d = 2 whose M = R has, in exact
    # arithmetic, a Rayleigh quotient above t0 = (value + CERT_TOL) / d: it
    # proves nothing. Rounding in forming t0 I - M hides that from a
    # Cholesky with no margin, which completes; the margin refuses it.
    d, n, value = 2, 4, 0.25
    q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((n, n)))
    h = (q * np.array([0.0, 0.1, 0.2, 0.3])) @ q.T
    t0 = (value + CERT_TOL) / d
    r = t0 * np.eye(n) - h
    m = 0.5 * (r + r.T)
    v = [Fraction(x) for x in np.linalg.eigh(m)[1][:, -1]]
    quad = sum(v[i] * Fraction(m[i, j]) * v[j] for i in range(n) for j in range(n))
    exact_t0 = (Fraction(value) + Fraction(CERT_TOL)) / d
    assert quad > exact_t0 * sum(x * x for x in v)
    shifted = -m
    shifted.flat[::n + 1] += t0
    np.linalg.cholesky(shifted)
    assert not _proves(-m, 0.0, 0.0, value, np.abs(m).sum())


def test_cholesky_margin_refuses_an_indefinite_difference():
    # the pair test of the negativity search's bound: H - M for float H and
    # M whose exact difference has a negative Rayleigh quotient (checked in
    # rationals) at the top eigenvector of -(H - M), though a float Cholesky
    # of H - M with no margin completes. The shared helper refuses it, with a
    # scale that bounds the trace and the Frobenius norms of H and M
    n = 4
    rng = np.random.default_rng(60)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = rng.standard_normal((n, n))
    m = 0.5 * (m + m.T)
    h = m + (q * np.array([0.0, 0.1, 0.2, 0.3])) @ q.T
    h = 0.5 * (h + h.T)
    v = [Fraction(x) for x in np.linalg.eigh(h - m)[1][:, 0]]
    quad = sum(v[i] * (Fraction(h[i, j]) - Fraction(m[i, j])) * v[j]
               for i in range(n) for j in range(n))
    assert quad < 0
    np.linalg.cholesky(h - m)
    assert not _cholesky_proves(h - m, 0.0, np.abs(h).sum() + np.abs(m).sum())
