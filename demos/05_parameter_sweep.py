"""Certificate sweep over a parameter grid, written to CSV.

Builds a sweep spec programmatically, runs it through the same machinery the
``quditshare sweep`` command uses, and summarizes the verdict landscape.
Grid points violating the strict-parameter rules (here: the diagonal, where
all x_i coincide) come back flagged 'skipped'.

Run:  python demos/05_parameter_sweep.py
"""

import collections
import json
import tempfile
from pathlib import Path

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

rows = run_sweep(spec)
counts = collections.Counter(r["status"] for r in rows)
print(f"grid points: {len(rows)}  ok: {counts['ok']}  skipped: {counts['skipped']}")

verdict_true = sum(1 for r in rows if r["status"] == "ok" and r["verdict_ceiling"])
print(f"verdict_ceiling true on {verdict_true}/{counts['ok']} strict points")

print("\nsmallest strictness gaps on the grid:")
strict = sorted((r for r in rows if r["status"] == "ok"), key=lambda r: r["gap"])
for r in strict[:5]:
    print(f"  x=({r['x1']:.2f}, {r['x2']:.2f})  gap={r['gap']:.4f}  "
          f"lambda_max={r['lambda_max']:.6f}  ceiling={r['fstar_bound']:.6f}")

# the full table, through the same entry point as `quditshare sweep SPEC.json --out FILE`
tmp = Path(tempfile.gettempdir())
spec_path, out = tmp / "quditshare_sweep_demo.json", tmp / "quditshare_sweep_demo.csv"
spec_path.write_text(json.dumps(SPEC))
print()
raise SystemExit(main(["sweep", str(spec_path), "--out", str(out)]))
