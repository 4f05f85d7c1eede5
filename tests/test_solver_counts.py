"""Dense-solver budget of the certificate path, the negativity solver, the
FEF ascent and the FEF paths that need no ascent.

Counts calls into numpy's SVD, QR and Hermitian eigensolvers, so a change that
brings an optimizer, restarts, a start-by-start loop or a repeated validation
back into these paths fails here rather than only showing up as a slower
benchmark.
"""

import json

import numpy as np
import pytest
from helpers import random_mixed

from quditshare import (
    DampingParams,
    DensityOperator,
    advantage_certificate,
    apply_one_sided,
    cli,
    damping_channel,
    fef,
    haar_unitary,
    is_unital,
    kraus_validate,
    max_entangled,
    maximize_negativity_input,
    random_channel,
    random_pure_state,
    save_channel,
)
from quditshare.measures import (
    _POLISH_POINTS,
    DEFAULT_MAX_ITER,
    _ascend_unitaries,
    _seeded_starts,
    fef_batch_size,
)


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


@pytest.mark.parametrize("d, restarts", [(2, 8), (3, 32), (5, 5), (7, 4)])
def test_fef_one_stacked_svd_per_iteration(fef_calls, d, restarts):
    # the identity start climbs alone; when its bracket closes that is all
    # (no QR, no Haar start), and when it stays open the other starts climb
    # as one stack: as many SVD calls as the slowest of them takes alone (not
    # the sum over starts), and one QR for the Haar starts. At d = 2 fef is
    # exact, so all starts climb as one stack in the ascent itself
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
    if d == 2:
        _ascend_unitaries(rho.matrix / d, d, _seeded_starts(d, restarts, 0))
        budget = {"svd": max(iterations), "qr": 1}
        assert max(iterations) < sum(iterations)
    else:
        certified = fef(rho, restarts=restarts).certified
        # this state at d = 7 is one whose identity bracket stays open
        assert certified is (d != 7)
        seeded = max(iterations[1:])
        budget = ({"svd": iterations[0], "qr": 0} if certified
                  else {"svd": iterations[0] + seeded, "qr": 1})
        assert seeded < sum(iterations[1:])
    assert {k: fef_calls[k] - before[k] for k in budget} == budget


def test_audit_one_stacked_svd_per_iteration(fef_calls):
    # audit's channels of one chunk climb as two stacks: the identity starts,
    # as many SVD calls as the slowest of them takes alone, then the seeded
    # starts of the channels whose bracket stays open, as many as the slowest
    # of those, with one QR for the Haar starts of the whole chunk
    d, n, seed, restarts = 4, 12, 3, 8
    assert n <= fef_batch_size(d, restarts)
    rhos = [cli._audit_channel(d, seed, i)[0] for i in range(n)]
    starts = _seeded_starts(d, restarts, 0)
    identity, seeded = [], []
    for rho in rhos:
        is_open = not fef(rho, restarts=1).certified
        for k, w0 in enumerate(starts if is_open else starts[:1]):
            before = fef_calls["svd"]
            _ascend_unitaries(rho.matrix / d, d, w0[None])
            (seeded if k else identity).append(fef_calls["svd"] - before)
    assert seeded
    before = dict(fef_calls)
    for i in range(n):
        cli._audit_channel(d, seed, i)
    building = {k: fef_calls[k] - before[k] for k in fef_calls}
    before = dict(fef_calls)
    assert cli.run_audit(d, n, seed, restarts)["pass"]
    assert {k: fef_calls[k] - before[k] for k in fef_calls} == {
        "svd": building["svd"] + max(identity) + max(seeded), "qr": building["qr"] + 1}


@pytest.mark.parametrize("case, restarts", [
    ("least-squares", 32), ("polished", 10), ("open", 32), ("polished", 9), ("open", 9)])
def test_fef_polish_budget(fef_calls, solver_calls, case, restarts):
    # the polish runs only on a bracket the least-squares point leaves open,
    # and only when restarts - 1 >= d^2 (10 and 9 starts sit on either side
    # at d = 3); each point it tries but the last, when none closes, takes
    # one eigh (the margin-guarded test is a Cholesky, not an eigensolve). It
    # spends no SVD or QR, so a bracket it leaves open costs the identity's
    # SVDs plus the seeded stack's, with one QR, as without it
    d = 3
    if case == "open":
        # a full-rank mixed state whose relaxation gap no dual point closes
        rho = random_mixed(d, np.random.default_rng(6))
    else:
        rng = np.random.default_rng(0 if case == "least-squares" else 10)
        rho = apply_one_sided(random_channel(d, 2, rng), random_pure_state(d, rng))
    starts = _seeded_starts(d, restarts, 0)
    iterations = []
    for w0 in starts:
        before = fef_calls["svd"]
        _ascend_unitaries(rho.matrix / d, d, w0[None])
        iterations.append(fef_calls["svd"] - before)
    before = {**fef_calls, **solver_calls}
    res = fef(rho, restarts=restarts)
    spent = {k: v - before[k] for k, v in {**fef_calls, **solver_calls}.items()}
    polishing = restarts - 1 >= d * d
    assert res.certified is (case == "least-squares" or (case == "polished" and polishing))
    if res.certified:
        assert spent["svd"] == iterations[0] and spent["qr"] == 0
    else:
        assert spent["svd"] == iterations[0] + max(iterations[1:]) and spent["qr"] == 1
    assert spent["eigvalsh"] == 0
    if case == "least-squares" or not polishing:
        assert spent["eigh"] == 0
    elif case == "polished":
        assert 0 < spent["eigh"] < _POLISH_POINTS
    else:
        assert spent["eigh"] == _POLISH_POINTS - 1


def test_fef_qubit_closed_form_budget(fef_calls, solver_calls):
    # d = 2 takes one real 4 x 4 eigh: no SVD, no QR, whatever the restarts
    rng = np.random.default_rng(2)
    rho = apply_one_sided(random_channel(2, 3, rng), random_pure_state(2, rng))
    before = {**fef_calls, **solver_calls}
    for restarts in (1, 32):
        assert fef(rho, restarts=restarts).converged
    after = {**fef_calls, **solver_calls}
    assert {k: after[k] - before[k] for k in after} == {
        "svd": 0, "qr": 0, "eigh": 2, "eigvalsh": 0}
    # the restarts check still runs first
    with pytest.raises(ValueError):
        fef(rho, restarts=0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("unital", [True, False])
def test_measures_psi_prime_runs_no_fef(tmp_path, capsys, monkeypatch, d, unital):
    # the best input's Phi+ overlap is its FEF, so no FEF routine runs and the
    # two report fields carry the same bytes
    rng = np.random.default_rng(10 * d + unital)
    if unital:
        ch = kraus_validate([np.sqrt(p) * haar_unitary(d, rng) for p in (0.5, 0.3, 0.2)])
    else:
        ch = random_channel(d, 2, rng)
    assert is_unital(ch) is unital
    path = tmp_path / "channel.json"
    save_channel(ch, path)
    seen = []
    monkeypatch.setattr(cli, "fef", lambda rho, **kw: seen.append(kw))
    assert cli.main(["measures", str(path), "--input", "psi_prime"]) == 0
    report = json.loads(capsys.readouterr().out, parse_float=str)
    assert seen == []
    assert report["fef_value"] == report["phiplus_fidelity"]
    assert report["fef_converged"] is True
    assert report["fef_certified"] is True


def test_fef_single_start_budget(fef_calls):
    # one start takes no QR; this state's identity start runs to the cap
    rng = np.random.default_rng(1728)
    g = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    m = g @ g.conj().T
    res = fef(DensityOperator(3, m / m.trace().real), restarts=1)
    assert not res.converged
    assert fef_calls["svd"] == DEFAULT_MAX_ITER
    assert fef_calls["qr"] == 0
