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
from helpers import near_saddle_state, random_mixed

from quditshare import (
    DampingParams,
    DensityOperator,
    PureBipartiteState,
    advantage_certificate,
    apply_one_sided,
    cli,
    damping_channel,
    fef,
    fef_batch,
    is_unital,
    kraus_validate,
    max_entangled,
    maximize_negativity_input,
    random_channel,
    random_pure_state,
    save_channel,
    top_choi_eigenpair,
)
from quditshare.channels import complex_gaussian, haar_from_gaussian
from quditshare.jsonio import dumps_fixed
from quditshare.measures import (
    _POLISH_POINTS,
    DEFAULT_MAX_ITER,
    FefResult,
    _ascend_unitaries,
    _seeded_starts,
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
    return _count_calls(monkeypatch, ("svd", "eigh", "eigvalsh", "cholesky"))


@pytest.fixture
def fef_calls(monkeypatch):
    return _count_calls(monkeypatch, ("svd", "qr"))


@pytest.mark.parametrize("d", [3, 5, 8])
def test_certificate_solver_budget(solver_calls, d):
    p = DampingParams(d, np.linspace(0.2, 0.9, d - 1))
    advantage_certificate(p)
    # psi_prime and its fields are closed forms; the two eigvalsh are the
    # sector cross-check of the Choi lambda_max (one d x d block) and N(Phi+)
    # (the 2x2 partial-transpose blocks)
    assert solver_calls == {"svd": 0, "eigh": 0, "eigvalsh": 2, "cholesky": 0}


@pytest.mark.parametrize("d", [3, 8])
def test_sweep_solver_budget(solver_calls, d):
    # a sweep certifies its grid in chunks of rows, each cross-checked with
    # one stacked eigvalsh for lambda_max and one for N(Phi+): 2 per chunk,
    # however many points it holds (at d = 3 the diagonal is skipped and 20
    # strict points of 25 rows take one chunk; at d = 8 only the centre is,
    # and 24 take one chunk of the 256 rows that fit)
    axis = {"start": 0.3, "stop": 0.7, "steps": 5}
    spec = cli.parse_sweep_spec({"d": d, "axes": {"x1": axis, f"x{d - 1}": axis},
                                 "fixed": {f"x{i}": 0.5 for i in range(2, d - 1)}})
    rows, skipped = cli.run_sweep(spec, lambda *chunk: None)
    chunks = -(-rows // cli._sweep_chunk_size(d))
    assert (rows - skipped, chunks) == ((20, 1) if d == 3 else (24, 1))
    assert solver_calls == {"svd": 0, "eigh": 0, "eigvalsh": 2 * chunks, "cholesky": 0}


@pytest.mark.parametrize("d", [3, 8])
def test_sweep_builds_no_per_point_objects(monkeypatch, d):
    # the sweep writes its rows from the certificate kernel's arrays: the
    # grids of test_sweep_solver_budget validate no DampingParams and build
    # no PureBipartiteState, neither per point nor per chunk
    built = {DampingParams: 0, PureBipartiteState: 0}
    for cls in built:
        original = cls.__post_init__

        def counted(self, _cls=cls, _original=original):
            built[_cls] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    axis = {"start": 0.3, "stop": 0.7, "steps": 5}
    spec = cli.parse_sweep_spec({"d": d, "axes": {"x1": axis, f"x{d - 1}": axis},
                                 "fixed": {f"x{i}": 0.5 for i in range(2, d - 1)}})
    rows, skipped = cli.run_sweep(spec, lambda *chunk: None)
    assert rows - skipped == (20 if d == 3 else 24)
    assert built == {DampingParams: 0, PureBipartiteState: 0}


@pytest.mark.parametrize("d", [2, 3])
def test_fef_builds_no_per_result_objects(monkeypatch, d):
    # every FEF value is read from one stacked overlap, with no maximally
    # entangled state built and validated per result: not by fef, on a
    # bracket that closes and on one that stays open, nor by a fef_batch
    # chunk of audit outputs
    rng = np.random.default_rng(54 + d)
    rhos = [apply_one_sided(random_channel(d, 2, rng), random_pure_state(d, rng)),
            random_mixed(d, rng)]
    chunk = cli._audit_chunk(d, 0, 0, 6)[0]
    built = []
    original = PureBipartiteState.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PureBipartiteState, "__post_init__", counted)
    results = [fef(rho) for rho in rhos]
    values = fef_batch(chunk)
    if d == 3:
        assert [res.certified for res in results] == [True, False]
    assert values.shape == (6,) and built == []


def test_audit_proves_no_certificate(monkeypatch):
    # audit reads FEF values alone, so fef_batch tries no bracket: no dual
    # point goes to a Cholesky, though one lone fef call at d = 3 sends one
    calls = _count_calls(monkeypatch, ("cholesky",))
    report = cli.run_audit(3, 40, 1)
    assert report["pass"] and calls == {"cholesky": 0}
    fef(apply_one_sided(random_channel(3, 2, np.random.default_rng(3)), max_entangled(3)),
        restarts=1)
    assert calls["cholesky"] >= 1


def test_apply_one_sided_makes_no_solver_calls(solver_calls):
    rng = np.random.default_rng(5)
    ch = damping_channel(DampingParams(4, [0.3, 0.6, 0.9]))
    apply_one_sided(ch, max_entangled(4))
    apply_one_sided(random_channel(3, 2, rng), random_pure_state(3, rng))
    assert solver_calls == {"svd": 0, "eigh": 0, "eigvalsh": 0, "cholesky": 0}


def test_negativity_solver_budget(monkeypatch):
    # one fixed point, no restarts: each of the k iterations takes one eigh
    # of K and one batched eigh of tr_B Y and the step target; each but the
    # last takes the eigh of the next log sigma, and each but the first and
    # the last one Anderson least-squares solve. The candidate that closes
    # the bracket is proved once, by one batched Cholesky of the pair
    # (Y - M, Y) and one of order d; the only eigvalsh is the final
    # negativity check
    channels = [(damping_channel(DampingParams(3, [0.5, 0.9])), 6),
                (random_channel(3, 2, np.random.default_rng(4)), 9)]
    for ch, iterations in channels:
        calls = _count_calls(monkeypatch, ("svd", "eigh", "eigvalsh", "lstsq", "cholesky"))
        res = maximize_negativity_input(ch)
        monkeypatch.undo()
        assert res.converged and res.fallbacks == 0
        k = len(res.trace)
        assert k == iterations
        assert calls == {"svd": 0, "eigh": 3 * k - 1, "eigvalsh": 1, "lstsq": k - 2,
                         "cholesky": 2}


# the case seed per d of test_fef_one_stacked_svd_per_iteration: at d = 7
# one whose bracket stays open after the whole dual-point search
SVD_CASE_SEED = {2: 2, 3: 3, 5: 5, 7: 8}


@pytest.mark.parametrize("d, restarts", [(2, 8), (3, 32), (5, 5), (7, 4)])
def test_fef_one_stacked_svd_per_iteration(fef_calls, d, restarts):
    # the identity start climbs alone; when its bracket closes that is all
    # (no QR, no Haar start), and when it stays open the other starts climb
    # as one stack: as many SVD calls as the slowest of them takes alone (not
    # the sum over starts), and one QR for the Haar starts. At d = 2 fef is
    # exact, so all starts climb as one stack in the ascent itself
    rng = np.random.default_rng(SVD_CASE_SEED[d])
    rho = apply_one_sided(random_channel(d, 2, rng), random_pure_state(d, rng))
    starts = [np.eye(d, dtype=complex)]
    starts += [haar_from_gaussian(complex_gaussian(d, np.random.default_rng([0, k])))
               for k in range(1, restarts)]
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
    # audit's channels of one FEF batch, built by one _audit_chunk call, climb
    # as one stack of identity starts: as many SVD calls as the slowest of
    # them takes alone, and no QR beyond building the channels, as no seeded
    # start runs, not even for the channels whose bracket stays open
    d, seed, n = 4, 3, 50
    assert n <= cli._fef_batch_size(d)
    rhos = [DensityOperator(d, m) for m in cli._audit_chunk(d, seed, 0, n)[0]]
    assert not all(fef(rho, restarts=1).certified for rho in rhos)
    identity = []
    for rho in rhos:
        before = fef_calls["svd"]
        _ascend_unitaries(rho.matrix / d, d, np.eye(d)[None])
        identity.append(fef_calls["svd"] - before)
    assert max(identity) < sum(identity)
    before = dict(fef_calls)
    cli._audit_chunk(d, seed, 0, n)
    building = {k: fef_calls[k] - before[k] for k in fef_calls}
    # one QR per Kraus count (2, 3 and 4 all occur) and one for the local unitaries
    assert building == {"svd": 0, "qr": 4}
    before = dict(fef_calls)
    assert cli.run_audit(d, n, seed)["pass"]
    assert {k: fef_calls[k] - before[k] for k in fef_calls} == {
        "svd": building["svd"] + max(identity), "qr": building["qr"]}


def test_audit_chunk_solver_calls_do_not_grow_with_channels(monkeypatch):
    # one batch runs its linear algebra as stacked calls: one eigvalsh each
    # for lambda_max (of the Gram matrices) and the partial-transpose
    # negativity of the outputs, and one QR per Kraus count (2 and 3 both
    # occur among the first 4 channels at this seed) plus one for the local
    # unitaries. No check solves a Choi state. At d >= 3 fef_batch tries no
    # dual point, so the FEF takes no eigensolve
    d, seed = 3, 1
    assert 12 <= cli._fef_batch_size(d)
    budgets = []
    for n in (4, 12):
        calls = _count_calls(monkeypatch, ("eigh", "eigvalsh", "qr"))
        assert cli.run_audit(d, n, seed)["pass"]
        budgets.append(calls)
        monkeypatch.undo()
    assert budgets == [{"eigh": 0, "eigvalsh": 2, "qr": 3}] * 2


@pytest.mark.parametrize("case, restarts", [
    ("least-squares", 32), ("polished", 10), ("open", 32), ("polished", 9), ("open", 9)])
def test_fef_polish_budget(fef_calls, solver_calls, case, restarts):
    # the polish runs on every bracket the least-squares point leaves open,
    # whatever the restarts (10 and 9 starts spend alike); each point it
    # tries but the last, when none closes, takes one eigh (the
    # margin-guarded test is a Cholesky, not an eigensolve). It spends no SVD
    # or QR, so a bracket it leaves open costs the identity's SVDs plus the
    # seeded stack's, with one QR, as without it
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
    assert res.certified is (case != "open")
    if res.certified:
        assert spent["svd"] == iterations[0] and spent["qr"] == 0
    else:
        assert spent["svd"] == iterations[0] + max(iterations[1:]) and spent["qr"] == 1
    assert spent["eigvalsh"] == 0
    if case == "least-squares":
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
        "svd": 0, "qr": 0, "eigh": 2, "eigvalsh": 0, "cholesky": 0}
    # the restarts check still runs first
    with pytest.raises(ValueError):
        fef(rho, restarts=0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("unital", [True, False])
def test_measures_psi_prime_runs_no_fef(tmp_path, capsys, monkeypatch, d, unital):
    # the best input's Phi+ overlap is its FEF, so no FEF routine runs and the
    # two report fields carry the same bytes; psi' and lambda_max_choi come
    # from one eigh of the channel's Choi state alone
    rng = np.random.default_rng(10 * d + unital)
    if unital:
        ch = kraus_validate([np.sqrt(p) * haar_from_gaussian(complex_gaussian(d, rng))
                             for p in (0.5, 0.3, 0.2)])
    else:
        ch = random_channel(d, 2, rng)
    assert is_unital(ch) is unital
    path = tmp_path / "channel.json"
    save_channel(ch, path)
    seen, shapes = [], []
    monkeypatch.setattr(cli, "fef", lambda rho, **kw: seen.append(kw))
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    assert cli.main(["measures", str(path), "--input", "psi_prime"]) == 0
    report = json.loads(capsys.readouterr().out, parse_float=str)
    assert seen == []
    assert shapes == [(1, d * d, d * d)]
    assert report["fef_value"] == report["phiplus_fidelity"]
    assert report["fef_converged"] is True
    assert report["fef_certified"] is True


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("which", ["phiplus", "psi_prime", "state"])
def test_measures_makes_one_choi_eigensolve(tmp_path, capsys, monkeypatch, which, d):
    # every input reads lambda_max_choi off one Choi state J and one eigh of
    # it: J is Phi+'s output, psi' is read off J's top eigenvector, and a
    # state file's input is applied to the channel; with the FEF stubbed no
    # other eigh runs
    rng = np.random.default_rng(70 + d)
    ch = random_channel(d, 2, rng)
    path = tmp_path / "channel.json"
    save_channel(ch, path)
    if which == "state":
        state = tmp_path / "state.json"
        amps = random_pure_state(d, rng).amplitudes
        state.write_text(dumps_fixed(
            {"d": d, "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}))
        which = str(state)
    result = FefResult(0.5, np.eye(d), True, False)
    monkeypatch.setattr(cli, "fef", lambda rho, **kw: result)
    chois, shapes = [], []
    choi_state = cli.choi_state
    monkeypatch.setattr(cli, "choi_state", lambda c: chois.append(c) or choi_state(c))
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    assert cli.main(["measures", str(path), "--input", which]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(chois) == 1
    assert shapes == [(1, d * d, d * d)]
    assert report["lambda_max_choi"] == top_choi_eigenpair(ch).value


def test_fef_single_start_budget(fef_calls):
    # one start takes no QR; this state's identity start runs to the cap
    res = fef(near_saddle_state(), restarts=1)
    assert not res.converged
    assert fef_calls["svd"] == DEFAULT_MAX_ITER
    assert fef_calls["qr"] == 0


def test_fef_batch_empty_stack_budget(fef_calls):
    # with no start climbing, the ascent returns before its first SVD
    values = fef_batch(np.zeros((0, 9, 9), complex))
    assert isinstance(values, np.ndarray) and values.shape == (0,)
    assert fef_calls == {"svd": 0, "qr": 0}
