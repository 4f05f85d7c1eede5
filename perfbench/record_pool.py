"""Record the negsearch channel pool and its reference search values.

Run from the repository root:

    python3 perfbench/record_pool.py

The pool is drawn from a fixed seed. Each class (damping family for d = 3..5,
Haar-random channels for d = 2..4) holds channels, each with a search seed:
twelve for the classes whose searches take well under a second, one for the
d = 4 and d = 5 classes. A search there takes seconds and its cost varies up
to twofold between channels, so drawing those channels from the workload seed
would make a round's cost depend on the seed.

The reference is the ``best_value`` that ``maximize_negativity_input``
(8 restarts) returns for a case at the commit that records it; the benchmark
fails a later search that lands more than 1e-6 below it. Random channels are stored as Kraus matrices so that the inputs stay
fixed even if the package's own channel sampler changes.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import quditshare  # noqa: E402

from workloads import (  # noqa: E402
    NEG_RESTARTS,
    POOL_FILE,
    _pairs,
    _sorted_uniform,
    case_ops,
    haar_isometry_ops,
)

POOL_SEED = 20171222
# (kind, d): number of cases
CLASSES = {("damping", 3): 12, ("damping", 4): 1, ("damping", 5): 1,
           ("random", 2): 12, ("random", 3): 12, ("random", 4): 1}


def main() -> int:
    cases = []
    for (kind, d), n_cases in CLASSES.items():
        for i in range(n_cases):
            rng = np.random.default_rng([POOL_SEED, d, i, kind == "random"])
            case = {"class": f"{kind}-{d}", "kind": kind, "index": i, "d": d}
            if kind == "damping":
                case["x"] = [float(v) for v in _sorted_uniform(rng, d - 1, 0.05, 0.95)]
            else:
                ops = haar_isometry_ops(d, int(rng.integers(2, d + 1)), rng)
                case["kraus"] = [[_pairs(row) for row in k] for k in ops]
            case["search_seed"] = int(rng.integers(0, 2**31 - 1))
            ch = quditshare.KrausChannel(dim=d, kraus_ops=tuple(case_ops(case)))
            t0 = time.perf_counter()
            res = quditshare.maximize_negativity_input(
                ch, restarts=NEG_RESTARTS, seed=case["search_seed"])
            case["reference"] = float(res.best_value)
            print(f"{case['class']} #{i}: {case['reference']!r} "
                  f"({time.perf_counter() - t0:.2f} s)", file=sys.stderr)
            cases.append(case)
    with open(POOL_FILE, "w") as fh:
        json.dump({"restarts": NEG_RESTARTS, "pool_seed": POOL_SEED, "cases": cases}, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
