"""Dense-solver budget of the certificate path, the negativity solver and
the FEF ascent.

Counts calls into numpy's SVD, QR and Hermitian eigensolvers, so a change that
brings an optimizer, restarts, a start-by-start loop or a repeated validation
back into these paths fails here rather than only showing up as a slower
benchmark.
"""

import numpy as np
import pytest

from quditshare import (
    DampingParams,
    DensityOperator,
    advantage_certificate,
    apply_one_sided,
    damping_channel,
    fef,
    haar_unitary,
    max_entangled,
    maximize_negativity_input,
    random_channel,
    random_pure_state,
)
from quditshare.measures import DEFAULT_MAX_ITER, _ascend_unitaries


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def solver_calls(monkeypatch):
    return _count_calls(monkeypatch, ("svd", "eigh", "eigvalsh"))


@pytest.fixture
def fef_calls(monkeypatch):
    return _count_calls(monkeypatch, ("svd", "qr"))


@pytest.mark.parametrize("d", [3, 5, 8])
def test_certificate_solver_budget(solver_calls, d):
    p = DampingParams(d, np.linspace(0.2, 0.9, d - 1))
    advantage_certificate(p)
    # the one SVD is the Schmidt decomposition of psi_prime
    assert solver_calls["svd"] == 1
    assert solver_calls["eigh"] + solver_calls["eigvalsh"] <= 4


def test_apply_one_sided_makes_no_solver_calls(solver_calls):
    rng = np.random.default_rng(5)
    ch = damping_channel(DampingParams(4, [0.3, 0.6, 0.9]))
    apply_one_sided(ch, max_entangled(4))
    apply_one_sided(random_channel(3, 2, rng), random_pure_state(3, rng))
    assert solver_calls == {"svd": 0, "eigh": 0, "eigvalsh": 0}


def test_negativity_solver_budget(solver_calls):
    # one fixed point, no restarts: per iteration one eigh of K, one batched
    # eigvalsh for lambda_min of Y - M and of Y, one batched eigh of tr_B Y
    # and the step target, and the eigh of the next log sigma; the final
    # negativity check makes one more
    res = maximize_negativity_input(damping_channel(DampingParams(3, [0.5, 0.9])))
    assert res.converged
    assert solver_calls["svd"] == 0
    assert solver_calls["eigh"] + solver_calls["eigvalsh"] <= 4 * len(res.trace)


@pytest.mark.parametrize("d, restarts", [(2, 8), (3, 32), (5, 5)])
def test_fef_one_stacked_svd_per_iteration(fef_calls, d, restarts):
    # all starts climb as one stack: as many SVD calls as the slowest start
    # takes iterations alone (not the sum over starts), and one QR for the
    # Haar starts
    rng = np.random.default_rng(d)
    rho = apply_one_sided(random_channel(d, 2, rng), random_pure_state(d, rng))
    starts = [np.eye(d, dtype=complex)]
    starts += [haar_unitary(d, np.random.default_rng([0, k])) for k in range(1, restarts)]
    iterations = []
    for w0 in starts:
        before = fef_calls["svd"]
        _ascend_unitaries(rho.matrix / d, d, w0[None])
        iterations.append(fef_calls["svd"] - before)
    before = dict(fef_calls)
    fef(rho, restarts=restarts)
    assert fef_calls["svd"] - before["svd"] == max(iterations) < sum(iterations)
    assert fef_calls["qr"] - before["qr"] == 1


def test_fef_single_start_budget(fef_calls):
    # one start takes no QR; this state's identity start runs to the cap
    rng = np.random.default_rng(1728)
    g = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    m = g @ g.conj().T
    res = fef(DensityOperator(3, 3, m / m.trace().real), restarts=1)
    assert not res.converged
    assert fef_calls["svd"] == DEFAULT_MAX_ITER
    assert fef_calls["qr"] == 0
