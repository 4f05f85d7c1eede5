"""Inputs, work items and correctness oracles of the four benchmark workloads.

A workload turns the workload seed into a fixed list of tasks (one round).
Each task runs one CLI command in-process or one library call; it covers one
or more work items (a certificate grid point, an audited channel, a
``measures``/``validate`` report, a negativity search). The program sees only
the generated inputs: spec, channel and state files, and flags.

The oracles below are written directly against numpy, so they hold whichever
algorithm the package uses to compute its answer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

import quditshare
import quditshare.cli

POOL_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "negsearch_pool.json")
NEG_RESTARTS = 8

# Rounding slack for identities that hold exactly in real arithmetic.
EXACT_TOL = 1e-12
# Tolerances of the optimizer-facing checks.
BOUND_TOL = 1e-9
REFERENCE_TOL = 1e-6


@dataclass
class Task:
    """One timed call. ``run`` is timed; ``collect`` and ``check`` are not.

    ``collect`` turns the raw result into a comparable value (the bytes the
    program produced); ``check`` returns a list of failure messages, at most
    one per failed item, for that value.
    """

    label: str
    items: int
    run: Callable[[], object]
    collect: Callable[[object], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# independent numpy oracles
# ---------------------------------------------------------------------------

def phiplus(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return v


def one_sided(ops, amps: np.ndarray, d: int) -> np.ndarray:
    """sum_k (I (x) K_k) |psi><psi| (I (x) K_k^dag)."""
    m = np.asarray(amps).reshape(d, d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        v = (m @ k.T).reshape(-1)
        out += np.outer(v, v.conj())
    return out


def pt_negativity(mat: np.ndarray, d: int) -> float:
    pt = mat.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0.0].sum())


def top_dual_input(ops, d: int) -> np.ndarray:
    """Top eigenvector of the dual-map Choi state (the exact best input)."""
    sigma = one_sided([k.conj().T for k in ops], phiplus(d), d)
    return np.linalg.eigh(sigma)[1][:, -1]


def lambda_max(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat)[-1])


def is_unital(ops, d: int) -> bool:
    acc = sum(k @ k.conj().T for k in ops)
    return bool(np.abs(acc - np.eye(d)).max() < 1e-10)


def damping_ops(x) -> list:
    """Kraus operators of the level-damping family, built from their definition."""
    d = len(x) + 1
    ops = [np.diag(np.concatenate([[1.0], x])).astype(complex)]
    for m in range(1, d):
        a = np.zeros((d, d), dtype=complex)
        a[0, m] = math.sqrt(1.0 - x[m - 1] ** 2)
        ops.append(a)
    return ops


def haar_isometry_ops(d: int, n_kraus: int, rng: np.random.Generator) -> list:
    """Kraus blocks of the first d columns of a Haar unitary on C^(d n_kraus)."""
    n = d * n_kraus
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    iso = q[:, :d]
    return [iso[i * d:(i + 1) * d, :] for i in range(n_kraus)]


def random_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return v / np.linalg.norm(v)


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


def channel_json(ops) -> str:
    d = ops[0].shape[0]
    return json.dumps({"d": d, "kraus": [[_pairs(row) for row in k] for k in ops]})


def ops_from_json(kraus) -> list:
    return [np.array([[complex(re, im) for re, im in row] for row in k]) for k in kraus]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _cli(argv) -> tuple:
    """In-process ``quditshare`` call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = quditshare.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_task(label: str, items: int, argv: list, check, out_path: str | None = None) -> Task:
    """A task running one CLI command. Its output is (exit code, stdout, the
    text written to ``out_path``); that text is None when the file is missing
    and "" for a command that writes no file."""
    return Task(
        label=label,
        items=items,
        run=lambda: _cli(argv),
        collect=lambda raw: (raw[0], raw[1], _read(out_path) if out_path else ""),
        check=check,
    )


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _sorted_uniform(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return np.sort(rng.uniform(lo, hi, n))


# ---------------------------------------------------------------------------
# certify: in-process `quditshare sweep` over damping-family grids
# ---------------------------------------------------------------------------

def _sweep_grid(axes: list, fixed: dict, d: int) -> list:
    grids = [np.linspace(a["start"], a["stop"], a["steps"]) for _, a in axes]
    points = []
    for multi in np.ndindex(*(g.size for g in grids)):
        values = dict(fixed)
        for (name, _), g, i in zip(axes, grids, multi):
            values[name] = float(g[i])
        points.append([values[f"x{i}"] for i in range(1, d)])
    return points


def _check_sweep(value, d: int, points: list) -> list:
    rc, stdout, text = value
    if rc != 0 or text is None:
        return [f"d={d}: exit {rc}, output {'missing' if text is None else 'present'}"] * len(points)
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(points):
        return [f"d={d}: {len(rows)} rows for {len(points)} grid points"] * len(points)
    skipped_expected = 0
    fails = []
    for row, x in zip(rows, points):
        tag = f"d={d} x={x}"
        got_x = [float(row[f"x{i}"]) for i in range(1, d)]
        if int(row["d"]) != d or any(not _close(a, b, EXACT_TOL) for a, b in zip(got_x, x)):
            fails.append(f"{tag}: row does not match its grid point")
            continue
        all_equal = max(x) - min(x) <= EXACT_TOL
        skipped_expected += all_equal
        if (row["status"] == "skipped") != all_equal:
            fails.append(f"{tag}: status {row['status']!r}, all-equal={all_equal}")
            continue
        if all_equal:
            continue
        sq = sum(v * v for v in x)
        lam = (1.0 + sq) / d
        neg = (sq + sum(a * b for a, b in combinations(x, 2))) / d
        verdicts = [row[k] for k in ("verdict_ceiling", "verdict_advantage",
                                     "verdict_negativity_advantage")]
        if not _close(float(row["lambda_max"]), lam, EXACT_TOL):
            fails.append(f"{tag}: lambda_max {row['lambda_max']} != (1+sum x^2)/d = {lam!r}")
        elif not _close(float(row["negativity_phiplus"]), neg, EXACT_TOL):
            fails.append(f"{tag}: negativity_phiplus {row['negativity_phiplus']} != {neg!r}")
        elif not _close(float(row["fef_psi_prime"]), lam, BOUND_TOL):
            fails.append(f"{tag}: fef_psi_prime {row['fef_psi_prime']} not within 1e-9 of {lam!r}")
        elif verdicts != ["true"] * 3:
            fails.append(f"{tag}: verdicts {verdicts} on a strict point")
    if f"rows: {len(points)}\nskipped: {skipped_expected}\n" not in stdout:
        fails.append(f"d={d}: summary {stdout!r} does not report {skipped_expected} skipped")
    return fails


def certify_tasks(rng: np.random.Generator, workdir: str, scale: str) -> list:
    # d=3: full grid with identical axes, so the diagonal points are skipped.
    # d>3: x1 and x_{d-1} swept, the components between them fixed.
    steps = {3: 8, 4: 5, 5: 5, 6: 5, 7: 5, 8: 5} if scale == "full" else {3: 3, 4: 2}
    tasks = []
    for d, n in steps.items():
        lo, hi = rng.uniform(0.05, 0.2), rng.uniform(0.8, 0.95)
        if d == 3:
            axes = [("x1", {"start": lo, "stop": hi, "steps": n}),
                    ("x2", {"start": lo, "stop": hi, "steps": n})]
            fixed = {}
        else:
            lo2, hi2 = rng.uniform(0.05, 0.2), rng.uniform(0.8, 0.95)
            axes = [("x1", {"start": lo, "stop": hi, "steps": n}),
                    (f"x{d - 1}", {"start": lo2, "stop": hi2, "steps": n})]
            mid = _sorted_uniform(rng, d - 3, 0.25, 0.75)
            fixed = {f"x{i}": float(v) for i, v in zip(range(2, d - 1), mid)}
        spec_path = os.path.join(workdir, f"sweep-d{d}.json")
        out_path = os.path.join(workdir, f"sweep-d{d}.csv")
        _write(spec_path, json.dumps({"d": d, "axes": dict(axes), "fixed": fixed}))
        points = _sweep_grid(axes, fixed, d)
        argv = ["sweep", spec_path, "--out", out_path, "--seed", str(_program_seed(rng))]
        tasks.append(_cli_task(f"sweep d={d}", len(points), argv,
                               lambda v, d=d, points=points: _check_sweep(v, d, points),
                               out_path))
    return tasks


# ---------------------------------------------------------------------------
# audit: in-process `quditshare audit` on Haar-random channels
# ---------------------------------------------------------------------------

def _check_audit(value, d: int, n: int) -> list:
    rc, _, text = value
    try:
        report = json.loads(text)
    except (TypeError, ValueError):
        report = None
    if rc != 0 or not isinstance(report, dict):
        return [f"audit d={d}: exit {rc}"] * n
    ok = (report.get("pass") is True and report.get("d") == d
          and report.get("n_channels") == n
          and all(c.get("pass") is True for c in report.get("checks", {}).values())
          and (d != 2 or "qubit_pauli_equality" in report.get("checks", {})))
    return [] if ok else [f"audit d={d}: report {report}"] * n


def audit_tasks(rng: np.random.Generator, workdir: str, scale: str) -> list:
    sizes = {2: 120, 3: 120, 4: 90, 5: 72, 6: 60} if scale == "full" else {2: 2, 3: 2}
    tasks = []
    for d, n in sizes.items():
        out_path = os.path.join(workdir, f"audit-d{d}.json")
        argv = ["audit", "--d", str(d), "--n", str(n), "--seed", str(_program_seed(rng)),
                "--out", out_path]
        tasks.append(_cli_task(f"audit d={d}", n, argv,
                               lambda v, d=d, n=n: _check_audit(v, d, n), out_path))
    return tasks


# ---------------------------------------------------------------------------
# measures: `quditshare measures` / `validate` over a corpus of files on disk
# ---------------------------------------------------------------------------

def _check_measures(value, ops, d: int, amps: np.ndarray, which: str) -> list:
    rc, _, text = value
    tag = f"measures d={d} --input {which}"
    try:
        r = json.loads(text)
        phi, fef_value = float(r["phiplus_fidelity"]), float(r["fef_value"])
        neg, fstar = float(r["negativity"]), float(r["fstar_upper_bound"])
        lam_choi = float(r["lambda_max_choi"])
    except (TypeError, ValueError, KeyError):
        return [f"{tag}: exit {rc}, unreadable report"]
    if rc != 0:
        return [f"{tag}: exit {rc}"]
    rho = one_sided(ops, amps, d)
    own_phi = float(np.vdot(phiplus(d), rho @ phiplus(d)).real)
    own_neg = pt_negativity(rho, d)
    own_fstar = (1.0 + 2.0 * own_neg) / d
    own_lam_choi = lambda_max(one_sided(ops, phiplus(d), d))
    ceiling = min(lambda_max(rho), fstar, own_fstar)
    if not _close(phi, own_phi, BOUND_TOL):
        return [f"{tag}: phiplus_fidelity {phi!r} != <Phi+|rho|Phi+> = {own_phi!r}"]
    if not own_phi <= fef_value + EXACT_TOL:
        return [f"{tag}: fef_value {fef_value!r} below the Phi+ fidelity {own_phi!r}"]
    if not fef_value <= ceiling + BOUND_TOL:
        return [f"{tag}: fef_value {fef_value!r} above the ceiling {ceiling!r}"]
    if not (_close(neg, own_neg, BOUND_TOL) and _close(fstar, own_fstar, BOUND_TOL)):
        return [f"{tag}: negativity {neg!r} / bound {fstar!r} vs {own_neg!r} / {own_fstar!r}"]
    if not _close(lam_choi, own_lam_choi, BOUND_TOL):
        return [f"{tag}: lambda_max_choi {lam_choi!r} vs {own_lam_choi!r}"]
    if which == "psi_prime" and not _close(phi, lam_choi, BOUND_TOL):
        return [f"{tag}: Phi+ fidelity {phi!r} != lambda_max_choi {lam_choi!r}"]
    return []


def _check_validate(value, ops, d: int) -> list:
    rc, stdout, _ = value
    verdict = "valid, unital" if is_unital(ops, d) else "valid, nonunital"
    lines = stdout.splitlines()
    expected_head = [f"dimension: {d}", f"kraus_count: {len(ops)}"]
    if rc != 0 or lines[:2] != expected_head or lines[-1] != verdict:
        return [f"validate d={d}: exit {rc}, output {stdout!r}, expected {verdict!r}"]
    return []


def measures_tasks(rng: np.random.Generator, workdir: str, scale: str) -> list:
    if scale == "full":
        # FEF cost per report is heavy-tailed (a few slow-converging states
        # dominate a round), so the corpus is large enough to average it.
        corpus = ([("damping", d) for d in (3, 4, 5)] + [("random", d) for d in (2, 3, 4, 5)]) * 16
    else:
        corpus = [("damping", 3), ("random", 2)]
    tasks = []
    for i, (kind, d) in enumerate(corpus):
        if kind == "damping":
            ops = damping_ops(_sorted_uniform(rng, d - 1, 0.05, 0.95))
        else:
            ops = haar_isometry_ops(d, int(rng.integers(2, d + 1)), rng)
        state = random_ket(d, rng)
        ch_path = os.path.join(workdir, f"channel-{i}.json")
        st_path = os.path.join(workdir, f"state-{i}.json")
        _write(ch_path, channel_json(ops))
        _write(st_path, json.dumps({"d": d, "amplitudes": _pairs(state)}))
        inputs = {"phiplus": phiplus(d), "psi_prime": top_dual_input(ops, d), st_path: state}
        for which, amps in inputs.items():
            out_path = os.path.join(workdir, f"measures-{i}-{len(tasks)}.json")
            argv = ["measures", ch_path, "--input", which, "--seed", str(_program_seed(rng)),
                    "--out", out_path]
            label = "STATE.json" if which == st_path else which
            tasks.append(_cli_task(
                f"measures {kind} d={d} --input {label}", 1, argv,
                lambda v, ops=ops, d=d, amps=amps, label=label:
                    _check_measures(v, ops, d, amps, label),
                out_path))
        tasks.append(_cli_task(f"validate {kind} d={d}", 1, ["validate", ch_path],
                               lambda v, ops=ops, d=d: _check_validate(v, ops, d)))
    return tasks


# ---------------------------------------------------------------------------
# negsearch: maximize_negativity_input on a recorded pool of channels
# ---------------------------------------------------------------------------

# Searches per round, by pool class. The d = 2 and 3 cases are drawn from the
# workload seed; the d = 4 and 5 classes hold one recorded case each (see
# record_pool.py).
NEG_ROUND = {"damping-3": 2, "damping-4": 1, "damping-5": 1,
             "random-2": 2, "random-3": 2, "random-4": 1}
NEG_ROUND_TINY = {"random-2": 1, "damping-3": 1}


def load_pool() -> list:
    with open(POOL_FILE) as fh:
        return json.load(fh)["cases"]


def case_ops(case: dict) -> list:
    if case["kind"] == "damping":
        return damping_ops(np.array(case["x"]))
    return ops_from_json(case["kraus"])


def _check_search(value, ops, d: int, reference: float, baselines: tuple) -> list:
    best_value, amps = value
    tag = f"negsearch d={d}"
    own = pt_negativity(one_sided(ops, amps, d), d)
    if not _close(best_value, own, BOUND_TOL):
        return [f"{tag}: best_value {best_value!r} != negativity of its state {own!r}"]
    if best_value < max(baselines) - BOUND_TOL:
        return [f"{tag}: best_value {best_value!r} below the Phi+/psi' baselines {baselines}"]
    if best_value < reference - REFERENCE_TOL:
        return [f"{tag}: best_value {best_value!r} more than 1e-6 below reference {reference!r}"]
    return []


def negsearch_tasks(rng: np.random.Generator, workdir: str, scale: str) -> list:
    by_class = {}
    for case in load_pool():
        by_class.setdefault(case["class"], []).append(case)
    tasks = []
    for cls, count in (NEG_ROUND if scale == "full" else NEG_ROUND_TINY).items():
        for j in rng.choice(len(by_class[cls]), size=count, replace=False):
            case = by_class[cls][int(j)]
            d, ops = case["d"], case_ops(case)
            channel = quditshare.KrausChannel(dim=d, kraus_ops=tuple(ops))
            baselines = (pt_negativity(one_sided(ops, phiplus(d), d), d),
                         pt_negativity(one_sided(ops, top_dual_input(ops, d), d), d))
            tasks.append(Task(
                label=f"negsearch {cls} case {case['index']}",
                items=1,
                run=lambda ch=channel, s=case["search_seed"]: quditshare.maximize_negativity_input(
                    ch, restarts=NEG_RESTARTS, seed=s),
                collect=lambda res: (float(res.best_value),
                                     np.array(res.best_state.amplitudes).tobytes()),
                check=lambda v, ops=ops, d=d, ref=case["reference"], b=baselines:
                    _check_search((v[0], np.frombuffer(v[1], dtype=complex)), ops, d, ref, b),
            ))
    return tasks


BUILDERS = {
    "certify": certify_tasks,
    "audit": audit_tasks,
    "negsearch": negsearch_tasks,
    "measures": measures_tasks,
}


def build_tasks(workload: str, seed: int, workdir: str, scale: str = "full") -> list:
    """The round of tasks for ``workload``; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed % 2**64)
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](rng, workdir, scale)
