"""quditshare benchmark: batch throughput of the toolkit's four jobs.

Usage, from the repository root:

    python3 perfbench/run.py --workload {certify,audit,negsearch,measures,all}
                             [--seed N] [--seconds S] [--trace 0|1]

One run builds the workload's inputs from ``--seed``, warms up on a tiny
version of them, then repeats one fixed round of tasks until ``--seconds`` have
passed (at least one round). Every round's outputs are checked by the
oracles in ``workloads.py`` outside the timed region.

``--trace 0`` reports the end-to-end metrics from untraced rounds:
``setup_s`` (fresh interpreters importing quditshare and building the CLI
parser, at a fixed host speed; see SETUP_REF_CODE), ``items_per_ref_s`` and
``cpu_ref_s_per_item`` (over all untraced rounds, in reference seconds; see
REF_UNIT), and
``peak_rss_mb``. ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics of ``tracer.py`` per round:
``<layer>.calls`` (identical in every traced round), ``<layer>.self_s``
(median), four derived ratios and the tracing overhead. ``--workload all``
runs every workload in its own process and prints all of their metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when every
item passed. A full report (run metadata, per-round samples, failures) and,
for traced runs, the span list are written to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("certify", "audit", "negsearch", "measures")
SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import quditshare, quditshare.cli; quditshare.cli.build_parser()")
# setup_s is expressed at a fixed host speed. Each setup launch follows a
# reference launch: a fresh interpreter that imports a fixed set of
# standard-library modules and numpy, and nothing of the package. setup_s is
# median(setup walls) / median(reference walls) * SETUP_REF_S. A fresh
# interpreter pays for page faults, cold caches, module loading and the start
# of the BLAS threads, which the warm kernel of Reference does not see; on the
# shared 2-vCPU host the setup wall time moves by 10-30% with host load, and
# its ratio to the reference launch moves by about 5%. SETUP_REF_S is the
# reference launch's median wall time on the 2 GHz Xeon vCPU the benchmark was
# set up on.
SETUP_REF_CODE = ("import argparse, csv, dataclasses, decimal, email.message, fractions, "
                  "http.client, json, statistics, typing, numpy")
SETUP_REF_S = 0.27
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Environment variables the benchmark sets for the program. None: pinning
# TOOLKIT_THREADS or the BLAS thread count would hide thread-pool changes.
ENV_SET = {}

END_TO_END_UNITS = {"setup_s": "s", "items_per_ref_s": "1/ref_s",
                    "cpu_ref_s_per_item": "ref_s", "peak_rss_mb": "MB"}

# Throughput is reported in reference seconds. One reference second is the
# wall time this machine needs, at that moment, for REF_UNIT iterations of the
# small numpy kernel in Reference (an SVD of a 3x3 complex matrix, a product,
# an inner product and a 9x9 eigvalsh: the calls the program's hot loops
# make), about 1 s on the 2 GHz Xeon vCPU the benchmark was set up on. A chunk
# of the kernel runs before the first task and after every task, for
# REF_SHARE of that task's wall time (at least REF_CHUNK iterations), and a
# round's reference second is the chunks' total wall time over their total
# iterations. Host contention on a shared machine (for caches and cores, or
# the hypervisor descheduling the virtual CPUs) slows the kernel and the
# program alike, and sampling in proportion to task time weights it as it
# weights the tasks, so the ratio stays put while raw wall time drifts by up
# to 1.8x within minutes. Raw wall and CPU seconds are kept in the run report.
REF_CHUNK = 40
REF_UNIT = 25_000
REF_SHARE = 0.03
# A chunk during which the program's other threads (a BLAS pool still
# spinning, a worker that outlived its task) used more CPU than this share of
# the chunk's wall time is left out of the round's reference second: it would
# slow the kernel and so make the program look faster. That CPU is added to
# the preceding task's CPU either way.
BUSY_SHARE = 0.05


class Reference:
    """The reference kernel, bound to numpy's own functions so that a traced
    round does not count its calls."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        sym = rng.standard_normal((9, 9))
        self.sym = sym + sym.T
        self.mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self.vec = rng.standard_normal(9) + 0j
        self.svd, self.eigvalsh, self.vdot = np.linalg.svd, np.linalg.eigvalsh, np.vdot

    def chunk(self, iterations: int) -> tuple:
        """Wall seconds of ``iterations`` kernel iterations, and the CPU
        seconds the process's other threads used meanwhile."""
        t0, p0, h0 = time.perf_counter(), time.process_time(), time.thread_time()
        for _ in range(iterations):
            u, _, vh = self.svd(self.mat)
            self.vdot((u @ vh).reshape(-1), self.vec)
            self.eigvalsh(self.sym)
        wall, own = time.perf_counter() - t0, time.thread_time() - h0
        return wall, max(0.0, time.process_time() - p0 - own)


def _load_package():
    """Import quditshare from this checkout's src/, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "quditshare", "__init__.py")):
        raise SystemExit(f"perfbench: no quditshare package under {SRC}")
    sys.path.insert(0, SRC)
    import quditshare

    if not os.path.abspath(quditshare.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported quditshare from {quditshare.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def _git_sha():
    """HEAD of this checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _src_sha256() -> str:
    """Digest of every file under src/, which identifies the code measured."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_metadata(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "TOOLKIT_THREADS": os.environ.get("TOOLKIT_THREADS"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "env_set_by_benchmark": ENV_SET,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _launch(code: str, *args: str) -> float:
    """Wall seconds of one fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in sleeps of up to
    # 50 ms, which would quantize the measurement
    subprocess.run([sys.executable, "-I", "-c", code, *args], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup() -> dict:
    """Wall seconds of SETUP_REPEATS fresh interpreters importing the package,
    each after one reference launch (see SETUP_REF_CODE)."""
    samples = {"setup_wall_s": [], "reference_wall_s": []}
    for _ in range(SETUP_REPEATS):
        samples["reference_wall_s"].append(_launch(SETUP_REF_CODE))
        samples["setup_wall_s"].append(_launch(SETUP_CODE, SRC))
    return samples


def setup_seconds(samples: dict) -> float:
    """setup_s: the median setup launch at the host speed of SETUP_REF_S."""
    return (_median(samples["setup_wall_s"]) / _median(samples["reference_wall_s"])
            * SETUP_REF_S)


class _Raised:
    """Stands in for the output of a task that raised."""

    def __init__(self, text: str):
        self.text = text


def run_round(tasks, reference: Reference) -> dict:
    """Run every task once, with a reference chunk before the first task and
    after each task. Returns the raw outputs; the wall and CPU seconds of each
    task (CPU of all threads, including what other threads used during the
    chunk after it); the round's reference second, from the chunks during
    which no other thread was busy (from all chunks if there is none); and the
    number of busy chunks."""
    raws, walls, cpus = [], [], []
    chunks = [(REF_CHUNK, *reference.chunk(REF_CHUNK))]
    for task in tasks:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raws.append(task.run())
        except Exception:  # one failed item must not stop the run; it is counted
            raws.append(_Raised(traceback.format_exc()))
        walls.append(time.perf_counter() - t0)
        cpu = time.process_time() - c0
        n = max(REF_CHUNK, round(REF_SHARE * walls[-1] * REF_UNIT))
        chunks.append((n, *reference.chunk(n)))
        cpus.append(cpu + chunks[-1][2])
    quiet = [c for c in chunks if c[2] <= BUSY_SHARE * c[1]]
    used = quiet or chunks
    ref_s = sum(wall for _, wall, _ in used) / sum(n for n, _, _ in used) * REF_UNIT
    return {"raws": raws, "task_wall_s": walls, "task_cpu_s": cpus, "ref_s": ref_s,
            "busy_chunks": len(chunks) - len(quiet)}


def check_round(tasks, raws, first: dict) -> list:
    """Failure messages, one per failed item, for one round's outputs.

    ``first`` maps a task index to the first round's (output, failures); a
    later round whose output is byte-identical reuses that verdict, and one
    whose output differs fails as nondeterministic.
    """
    failures = []
    for i, (task, raw) in enumerate(zip(tasks, raws)):
        if isinstance(raw, _Raised):
            failures += [f"{task.label}: raised\n{raw.text}"] * task.items
            continue
        value = task.collect(raw)
        if i not in first:
            first[i] = (value, task.check(value)[: task.items])
        elif first[i][0] != value:
            failures += [f"{task.label}: output differs from the first round"] * task.items
            continue
        failures += first[i][1]
    return failures


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(traced: list, untraced: list, items: int) -> tuple:
    """Per-layer metrics per round, and any inconsistency between rounds."""
    import tracer

    calls = traced[0]["layers"]["calls"]
    problems = [f"traced round {i} made calls {r['layers']['calls']}, round 0 made {calls}"
                for i, r in enumerate(traced) if r["layers"]["calls"] != calls]
    metrics = {}
    for name in tracer.LAYER_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = _median(r["layers"]["self_s"][name] for r in traced)
    first = traced[0]["layers"]
    searches = calls["search.maximize_negativity_input"]
    metrics["linalg.svd_per_item"] = calls["linalg.svd"] / items
    metrics["linalg.eig_per_item"] = (calls["linalg.eigh"] + calls["linalg.eigvalsh"]) / items
    metrics["search.evals_per_search"] = first["eig_in_search"] / searches if searches else 0.0
    metrics["measures.fef.improved_ratio"] = (
        first["fef_improved"] / first["fef_seen"] if first["fef_seen"] else 0.0)
    metrics["trace.overhead_s"] = (_median(r["wall_s"] for r in traced)
                                   - _median(r["wall_s"] for r in untraced))
    return metrics, problems


def _diff(after: dict, before: dict) -> dict:
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = {k: v - before[key][k] for k, v in value.items()}
        else:
            out[key] = value - before[key]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", out_dir: str = RUNS_DIR) -> dict:
    """One benchmark run; returns the result object and writes the full report."""
    import tracer
    import workloads

    os.makedirs(out_dir, exist_ok=True)
    meta = run_metadata(seed)
    print("perfbench metadata: " + json.dumps(meta), file=sys.stderr)
    setup = None if trace else measure_setup()
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    tr = tracer.Tracer() if trace else None
    rounds, failures = [], []
    try:
        warm = workloads.build_tasks(workload, seed, os.path.join(workdir, "warmup"), "tiny")
        reference = Reference()
        run_round(warm, reference)
        tasks = workloads.build_tasks(workload, seed, os.path.join(workdir, "inputs"), scale)
        items = sum(t.items for t in tasks)
        first = {}
        start = time.perf_counter()
        traced_next = False
        while True:
            traced = trace and traced_next
            if traced:
                before = tr.totals()
                tr.install()
            try:
                record = run_round(tasks, reference)
            finally:
                if traced:
                    tr.remove()
            raws = record.pop("raws")
            record.update(traced=traced, wall_s=sum(record["task_wall_s"]),
                          cpu_s=sum(record["task_cpu_s"]))
            if traced:
                record["layers"] = _diff(tr.totals(), before)
            failures += check_round(tasks, raws, first)
            rounds.append(record)
            traced_next = not traced_next
            done_both = not trace or len(rounds) >= 2
            if done_both and time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in rounds if not r["traced"]]
    problems = []
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics, problems = layer_metrics(traced_rounds, untraced, items)
        units = per_layer_units()
    else:
        done = items * len(untraced)
        metrics = {
            "setup_s": setup_seconds(setup),
            # pooled over the untraced rounds: the round-to-round noise of the
            # ratio averages out, where a median over a few rounds keeps it
            "items_per_ref_s": done / sum(r["wall_s"] / r["ref_s"] for r in untraced),
            "cpu_ref_s_per_item": sum(r["cpu_s"] / r["ref_s"] for r in untraced) / done,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
    attempted = items * len(rounds)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    report = {
        "workload": workload,
        "scale": scale,
        "seconds": seconds,
        "meta": meta,
        "items_per_round": items,
        "rounds": [{k: v for k, v in r.items() if k != "layers"} for r in rounds],
        "setup_samples": setup,
        "result": result,
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:50],
        "problems": problems,
    }
    if trace:
        report["absent"] = tr.absent
        report["fef_unscored"] = sum(r["layers"]["fef_unscored"] for r in rounds if r["traced"])
        _write_spans(tr, os.path.join(out_dir, f"{tag}.spans.tsv"))
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return result


def per_layer_units() -> dict:
    import tracer

    units = {}
    for name in tracer.LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({"linalg.svd_per_item": "count", "linalg.eig_per_item": "count",
                  "search.evals_per_search": "count", "measures.fef.improved_ratio": "ratio",
                  "trace.overhead_s": "s"})
    return units


def _write_spans(tr, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("layer\tthread\tspan\tparent\tstart_s\tend_s\n")
        for layer, thread, span, parent, t0, t1 in tr.spans():
            fh.write(f"{layer}\t{thread}\t{span}\t{parent}\t{t0!r}\t{t1!r}\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _print_result(workload: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.6g}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']!r:>24} {m['unit']}")


def _run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines or not lines[-1].startswith("{"):
            print(f"{workload}: exit {proc.returncode}, no result")
            continue
        _print_result(workload, json.loads(lines[-1]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    if args.workload == "all":
        return _run_all(args)
    _load_package()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
