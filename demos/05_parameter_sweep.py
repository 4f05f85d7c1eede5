"""Certificate sweep over a parameter grid, written to CSV.

Builds a sweep spec programmatically, runs it through the same machinery the
``quditshare sweep`` command uses, and summarizes the verdict landscape.
Grid points violating the strict-parameter rules (here: the diagonal, where
all x_i coincide) come back flagged 'skipped'. ``run_sweep`` hands over the
grid a chunk at a time: each chunk's points, the mask of its strict ones, and
the certificate arrays of those.

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

chunks = []
rows, skipped = run_sweep(spec, lambda xs, strict, certs: chunks.append((xs[strict], certs)))
xs = np.concatenate([points for points, _ in chunks])
certs = {field: np.concatenate([c[field] for _, c in chunks]) for field in chunks[0][1]}
print(f"grid points: {rows}  ok: {len(xs)}  skipped: {skipped}")

verdict_true = int(certs["verdict_ceiling"].sum())
print(f"verdict_ceiling true on {verdict_true}/{len(xs)} strict points")

print("\nsmallest strictness gaps on the grid:")
for i in np.argsort(certs["gap"], kind="stable")[:5]:
    print(f"  x=({xs[i, 0]:.2f}, {xs[i, 1]:.2f})  gap={certs['gap'][i]:.4f}  "
          f"lambda_max={certs['lambda_max_closed'][i]:.6f}  "
          f"ceiling={certs['fstar_bound_phiplus'][i]:.6f}")

# the full table, through the same entry point as `quditshare sweep SPEC.json --out FILE`
tmp = Path(tempfile.gettempdir())
spec_path, out = tmp / "quditshare_sweep_demo.json", tmp / "quditshare_sweep_demo.csv"
spec_path.write_text(json.dumps(SPEC))
print()
raise SystemExit(main(["sweep", str(spec_path), "--out", str(out)]))
