"""Certificate sweep over a parameter grid, written to CSV.

Builds a sweep spec programmatically, runs it through the same machinery the
``quditshare sweep`` command uses, and summarizes the verdict landscape.
Grid points violating the strict-parameter rules (here: the diagonal, where
all x_i coincide) come back flagged 'skipped'. The table comes back as its
columns, one array per output column.

Run:  python demos/05_parameter_sweep.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from quditshare.cli import SweepSpec, main, parse_sweep_spec, run_sweep

SPEC = {
    "d": 3,
    "axes": {
        "x1": {"start": 0.1, "stop": 0.9, "steps": 9},
        "x2": {"start": 0.1, "stop": 0.9, "steps": 9},
    },
    "format": "csv",
}
spec = parse_sweep_spec(SPEC)
assert isinstance(spec, SweepSpec)

table = run_sweep(spec)  # one array per output column
ok = table["status"] == "ok"
n_ok = int(ok.sum())
print(f"grid points: {ok.size}  ok: {n_ok}  skipped: {ok.size - n_ok}")

verdict_true = sum(table["verdict_ceiling"][ok])
print(f"verdict_ceiling true on {verdict_true}/{n_ok} strict points")

print("\nsmallest strictness gaps on the grid:")
strict = sorted(np.flatnonzero(ok), key=lambda i: table["gap"][i])
for i in strict[:5]:
    print(f"  x=({table['x1'][i]:.2f}, {table['x2'][i]:.2f})  gap={table['gap'][i]:.4f}  "
          f"lambda_max={table['lambda_max'][i]:.6f}  ceiling={table['fstar_bound'][i]:.6f}")

# the full table, through the same entry point as `quditshare sweep SPEC.json --out FILE`
tmp = Path(tempfile.gettempdir())
spec_path, out = tmp / "quditshare_sweep_demo.json", tmp / "quditshare_sweep_demo.csv"
spec_path.write_text(json.dumps(SPEC))
print()
raise SystemExit(main(["sweep", str(spec_path), "--out", str(out)]))
