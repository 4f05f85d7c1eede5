"""Command-line front end.

Commands: ``validate``, ``measures``, ``certify``, ``sweep``, ``audit``.
All output is deterministic for fixed flags and seeds: JSON uses fixed field
order with 17-significant-digit reals, CSV uses '.' decimals, comma delimiter,
and a header row. Exit codes: 0 success / all verdicts true, 1 verified-false
or invariant violation, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .channels import (
    KrausChannel,
    apply_one_sided,
    channel_from_dict,
    choi_state,
    completeness_residual,
    dual,
    haar_unitary,
    is_unital,
    load_channel,
    random_channel,
    top_choi_eigenpair,
)
from .damping import (
    CERT_CSV_COLUMNS,
    DampingParams,
    advantage_certificate,
    certificate_row,
    certificate_to_dict,
    family_dimension,
)
from .errors import (
    ChannelCompletenessError,
    InvalidOperatorError,
    ParameterError,
    ToolkitError,
)
from .jsonio import csv_cell, dumps_fixed, format_real, json_int, load_json
from .measures import fef, fstar_upper_bound, negativity
from .states import (
    PureBipartiteState,
    fidelity_with,
    max_entangled,
    random_pure_state,
)

AUDIT_TOLERANCES = {
    "trace_preservation": 1e-12,
    "dual_primal_lambda_max": 1e-9,
    "local_unitary_covariance": 1e-12,
    "fef_floor": 1e-12,
    "fef_ceiling": 1e-9,
    "qubit_pauli_equality": 1e-10,
}

MAX_SWEEP_POINTS = 10**6


def _restarts(text: str) -> int:
    """argparse type for --restarts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_text(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_state_file(path) -> PureBipartiteState:
    data = load_json(path)
    try:
        d = json_int(data["d"], "d")
        amps = np.array([complex(float(a[0]), float(a[1])) for a in data["amplitudes"]])
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise InvalidOperatorError(f"malformed state file: {exc!r}") from exc
    return PureBipartiteState(d, amps)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    data = load_json(args.channel)
    try:
        ch = channel_from_dict(data)
    except ChannelCompletenessError as exc:
        residual = format_real(exc.residual)
        verdict = [f"invalid: not trace preserving (residual {residual} "
                   f"at entry {exc.position})"]
        code = 1
    else:
        residual = format_real(completeness_residual(ch.kraus_ops)[0])
        unital = is_unital(ch)
        verdict = [f"unital: {'true' if unital else 'false'}",
                   "valid, unital" if unital else "valid, nonunital"]
        code = 0
    # channel_from_dict has parsed the file, so these keys are well formed
    print("\n".join([f"dimension: {data['d']}", f"kraus_count: {len(data['kraus'])}",
                     f"completeness_residual: {residual}", *verdict]))
    return code


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def cmd_measures(args) -> int:
    ch = load_channel(args.channel)
    if args.input == "phiplus":
        psi = max_entangled(ch.dim)
    elif args.input == "psi_prime":
        psi = top_choi_eigenpair(dual(ch)).state
    else:
        psi = _load_state_file(args.input)
    rho = apply_one_sided(ch, psi)
    fef_res = fef(rho, restarts=args.restarts, seed=args.seed)
    report = {
        "phiplus_fidelity": fidelity_with(rho, max_entangled(ch.dim)),
        "fef_value": fef_res.value,
        "fef_converged": fef_res.converged,
        "negativity": negativity(rho),
        "fstar_upper_bound": fstar_upper_bound(rho),
        "lambda_max_choi": top_choi_eigenpair(ch).value,
    }
    _write_text(dumps_fixed(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _parse_x(text: str, d: int) -> np.ndarray:
    try:
        x = np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise ParameterError(f"could not parse x list: {exc}") from exc
    if x.size != d - 1:
        raise ParameterError(f"length violated: x must have d-1 = {d - 1} entries, got {x.size}")
    return x


def cmd_certify(args) -> int:
    params = DampingParams(d=args.d, x=_parse_x(args.x, args.d))
    cert = advantage_certificate(params)
    _write_text(dumps_fixed(certificate_to_dict(cert)), args.out)
    return 0 if cert.all_verdicts_true else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid description over the family's x components.

    Axes are {start, stop, steps} per component name ("x1".."x{d-1}"); the
    remaining components are pinned in ``fixed``. Grid points violating the
    strict-parameter rules are emitted as rows flagged 'skipped'.
    """

    d: int
    axes: tuple
    fixed: dict
    output_path: str | None
    format: str


def parse_sweep_spec(data: dict) -> SweepSpec:
    try:
        d = family_dimension(json_int(data["d"], "d"))
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed sweep spec: {exc}") from exc
    axes_raw = data.get("axes", {})
    fixed_raw = data.get("fixed", {})
    if not (isinstance(axes_raw, dict) and isinstance(fixed_raw, dict)):
        raise ParameterError("sweep spec 'axes' and 'fixed' must be objects")
    if not axes_raw:
        raise ParameterError("sweep spec has empty axes")
    try:
        fixed = {str(k): float(v) for k, v in fixed_raw.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"fixed components must be numbers: {exc}") from exc
    covered = set(axes_raw) | set(fixed)
    # stops after a few misses, and finds none only when the spec itself names
    # all d - 1 components, so a huge d costs nothing before it is rejected
    missing = list(islice((f"x{i}" for i in range(1, d) if f"x{i}" not in covered), 4))
    if missing:
        more = " and more" if len(missing) > 3 else ""
        raise ParameterError(f"components {missing[:3]}{more} neither swept nor fixed")
    names = [f"x{i}" for i in range(1, d)]
    axes = []
    for name, desc in axes_raw.items():
        if name not in names:
            raise ParameterError(f"unknown axis component {name!r} for d={d}")
        try:
            axes.append(
                (str(name), float(desc["start"]), float(desc["stop"]),
                 json_int(desc["steps"], "steps"))
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"axis {name!r} needs start/stop/steps: {exc}") from exc
    extra = sorted(set(fixed) - set(names))
    if extra:
        raise ParameterError(f"fixed components {extra} do not exist for d={d}")
    # every grid point must at least lie in the relaxed cube [0, 1]^{d-1};
    # a NaN bound fails these comparisons, so it is rejected too
    for name, start, stop, steps in axes:
        if steps < 1:
            raise ParameterError(f"axis {name!r} needs steps >= 1")
        if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
            raise ParameterError(f"axis {name!r} leaves the admissible range [0, 1]")
    if math.prod(steps for *_, steps in axes) > MAX_SWEEP_POINTS:
        raise ParameterError(f"sweep grid has more than {MAX_SWEEP_POINTS} points")
    for name, value in fixed.items():
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"fixed component {name!r} leaves the range [0, 1]")
    fmt = str(data.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ParameterError(f"format must be 'csv' or 'json', got {fmt!r}")
    output_path = data.get("output_path")
    if not (output_path is None or isinstance(output_path, str)):
        raise ParameterError(f"output_path must be a string or null, got {output_path!r}")
    return SweepSpec(
        d=d,
        axes=tuple(axes),
        fixed=fixed,
        output_path=output_path,
        format=fmt,
    )


def _sweep_points(spec: SweepSpec):
    grids = [np.linspace(start, stop, steps) for _, start, stop, steps in spec.axes]
    axis_names = [name for name, *_ in spec.axes]
    idx = np.ndindex(*(g.size for g in grids))
    for multi in idx:
        values = dict(spec.fixed)
        for name, g, i in zip(axis_names, grids, multi):
            values[name] = float(g[i])
        yield np.array([values[f"x{i}"] for i in range(1, spec.d)])


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid point, deterministic lexicographic order."""
    rows = []
    for x in _sweep_points(spec):
        row = {"d": spec.d}
        for i, v in enumerate(x, start=1):
            row[f"x{i}"] = float(v)
        try:
            params = DampingParams(d=spec.d, x=x)
        except ParameterError:
            row["status"] = "skipped"
            row.update({col: None for col in CERT_CSV_COLUMNS})
        else:
            cert = advantage_certificate(params)
            row["status"] = "ok"
            row.update(certificate_row(cert))
        rows.append(row)
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([csv_cell(row[k]) for k in header])
    return buf.getvalue()


def cmd_sweep(args) -> int:
    spec = parse_sweep_spec(load_json(args.spec))
    out_path = args.out or spec.output_path
    fmt = args.format or spec.format
    if not out_path:
        raise ParameterError("no output path: set 'output_path' in the spec or pass --out")
    rows = run_sweep(spec)
    if fmt == "csv":
        text = _rows_to_csv(rows)
    else:
        text = dumps_fixed(rows)
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output path {out_path!r}: {exc}") from exc
    skipped = sum(1 for r in rows if r["status"] == "skipped")
    print(f"rows: {len(rows)}")
    print(f"skipped: {skipped}")
    print(f"written: {out_path}")
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_one_channel(d: int, seed: int, index: int, restarts: int):
    rng = np.random.default_rng([seed, index])
    k = int(rng.integers(2, d + 1))
    ch = random_channel(d, k, rng)

    psi = random_pure_state(d, rng)
    rho = apply_one_sided(ch, psi)
    trace_dev = abs(rho.matrix.trace().real - 1.0)

    lam_primal = top_choi_eigenpair(ch).value
    lam_dual = top_choi_eigenpair(dual(ch)).value
    dual_dev = abs(lam_primal - lam_dual)

    w = haar_unitary(d, rng)
    rotated = PureBipartiteState(d, (w @ psi.coefficient_matrix()).reshape(-1))
    lhs = apply_one_sided(ch, rotated).matrix
    wi = np.kron(w, np.eye(d))
    rhs = wi @ rho.matrix @ wi.conj().T
    lu_dev = float(np.abs(lhs - rhs).max())

    fef_val = fef(rho, restarts=restarts).value
    floor_dev = max(0.0, fidelity_with(rho, max_entangled(d)) - fef_val)
    ceiling = min(float(np.linalg.eigvalsh(rho.matrix)[-1]), fstar_upper_bound(rho))
    ceiling_dev = max(0.0, fef_val - ceiling)

    return trace_dev, dual_dev, lu_dev, floor_dev, ceiling_dev


def _audit_pauli(seed: int, index: int) -> float:
    rng = np.random.default_rng([seed, 10_000_019 + index])
    weights = rng.dirichlet(np.ones(4))
    j = int(np.argmax(weights))
    weights = 0.5 * weights
    weights[j] += 0.5
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    ops = tuple(np.sqrt(p) * s for p, s in zip(weights, paulis))
    ch = KrausChannel(dim=2, kraus_ops=ops)
    rho = choi_state(ch)
    lam = float(np.linalg.eigvalsh(rho.matrix)[-1])
    if lam < 0.5:
        return 0.0
    return abs(lam - (1.0 + 2.0 * negativity(rho)) / 2.0)


def run_audit(d: int, n_channels: int, seed: int, restarts: int) -> dict:
    """Random-channel invariant audit; max violation per invariant."""
    results = [_audit_one_channel(d, seed, i, restarts) for i in range(n_channels)]
    maxima = [max(col) for col in zip(*results)]
    checks = {}
    names = [
        "trace_preservation",
        "dual_primal_lambda_max",
        "local_unitary_covariance",
        "fef_floor",
        "fef_ceiling",
    ]
    for name, value in zip(names, maxima):
        tol = AUDIT_TOLERANCES[name]
        checks[name] = {
            "max_violation": float(value),
            "tolerance": tol,
            "pass": bool(value < tol),
        }
    if d == 2:
        pauli_dev = max(_audit_pauli(seed, i) for i in range(n_channels))
        tol = AUDIT_TOLERANCES["qubit_pauli_equality"]
        checks["qubit_pauli_equality"] = {
            "max_violation": float(pauli_dev),
            "tolerance": tol,
            "pass": bool(pauli_dev < tol),
        }
    return {
        "d": d,
        "n_channels": n_channels,
        "seed": seed,
        "restarts": restarts,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def cmd_audit(args) -> int:
    if not (2 <= args.d <= 6):
        raise ParameterError(f"audit supports d in [2, 6], got {args.d}")
    if args.n < 1:
        raise ParameterError(f"n_channels must be >= 1, got {args.n}")
    report = run_audit(args.d, args.n, args.seed, args.restarts)
    _write_text(dumps_fixed(report), args.out)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditshare",
        description="Entanglement sharing over noisy qudit channels: "
        "channel validation, entanglement measures, and advantage certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a channel file for completeness and unitality")
    p.add_argument("channel", help="channel JSON file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("measures", help="entanglement measures of a channel output")
    p.add_argument("channel", help="channel JSON file")
    p.add_argument("--input", default="phiplus",
                   help="'phiplus', 'psi_prime', or a state JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=_restarts, default=32)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_measures)

    p = sub.add_parser("certify", help="advantage certificate for one parameter point")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", required=True, help="comma-separated x_1,...,x_{d-1}")
    p.add_argument("--seed", type=int, default=0, help="accepted but unused")
    p.add_argument("--restarts", type=_restarts, default=32, help="accepted but unused")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("sweep", help="certificate grid sweep from a spec file")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--seed", type=int, default=0, help="accepted but unused")
    p.add_argument("--restarts", type=_restarts, default=32, help="accepted but unused")
    p.add_argument("--out", default=None, help="override the spec's output path")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("audit", help="random-channel invariant audit")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of channels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=_restarts, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChannelCompletenessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
