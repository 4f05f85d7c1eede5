"""Dense-solver budget of the certificate path and the negativity solver.

Counts calls into numpy's SVD and Hermitian eigensolvers, so a change that
brings an optimizer, restarts or a repeated validation back into these paths
fails here rather than only showing up as a slower benchmark.
"""

import numpy as np
import pytest

from quditshare import (
    DampingParams,
    advantage_certificate,
    apply_one_sided,
    damping_channel,
    max_entangled,
    maximize_negativity_input,
    random_channel,
    random_pure_state,
)


@pytest.fixture
def solver_calls(monkeypatch):
    calls = {"svd": 0, "eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


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
