"""Command-line front end.

Commands: ``validate``, ``measures``, ``certify``, ``sweep``, ``audit``.
All output is deterministic for fixed flags and seeds: JSON uses fixed field
order with 17-significant-digit reals, CSV uses '.' decimals, comma delimiter,
and a header row. Exit codes: 0 success / all verdicts true, 1 verified-false
or invariant violation, 2 usage or parameter error, 3 a dense linear-algebra
routine failed (numpy.linalg.LinAlgError), a numerical cross-check failed
(ArithmeticError: a closed form against its dense eigensolve, or an
eigenvector's residual) or memory ran out (MemoryError), so no verdict was
reached.
Every error, a malformed command line included, leaves through ``main`` as
one ``error: ...`` line on stderr; integer flags are bounded where they are
parsed (seeds >= 0, ``--n`` and ``measures --restarts`` >= 1, ``audit --d`` in
2..6).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import re
import sys
from dataclasses import dataclass
from itertools import islice, product

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
    ParameterError,
    ToolkitError,
)
from .jsonio import csv_cell, dumps_fixed, format_real, json_int, json_real, load_json
from .measures import fef, fef_batch, fef_batch_size, fstar_upper_bound, negativity
from .search import qubit_optimal_fidelity
from .states import (
    PureBipartiteState,
    fidelity_with,
    load_state,
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


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _write_text(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        psi = load_state(args.input)
    rho = apply_one_sided(ch, psi)
    phiplus_fidelity = fidelity_with(rho, max_entangled(ch.dim))
    if args.input == "psi_prime":
        # psi' is the top eigenvector of the dual Choi state sigma, so every
        # maximally entangled Phi_W has <Phi_W| rho |Phi_W> =
        # <psi'| (W (x) I) sigma (W^dag (x) I) |psi'> <= lambda_max(sigma), and
        # W = I attains it: the Phi+ overlap is the fully entangled fraction
        # (the identity damping.advantage_certificate uses for fef_psi_prime)
        fef_value, fef_converged, fef_certified = phiplus_fidelity, True, True
    else:
        fef_res = fef(rho, restarts=args.restarts, seed=args.seed)
        fef_value, fef_converged, fef_certified = (
            fef_res.value, fef_res.converged, fef_res.certified)
    report = {
        "phiplus_fidelity": phiplus_fidelity,
        "fef_value": fef_value,
        "fef_converged": fef_converged,
        "fef_certified": fef_certified,
        "negativity": negativity(rho),
        "fstar_upper_bound": fstar_upper_bound(rho),
        "lambda_max_choi": top_choi_eigenpair(ch).value,
    }
    _write_text(dumps_fixed(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _parse_x(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise ParameterError(f"could not parse x list: {exc}") from exc


def cmd_certify(args) -> int:
    params = DampingParams(d=args.d, x=_parse_x(args.x))
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
    remaining components are pinned in ``fixed``. Grid points outside the
    certificate's hypotheses (open interval, distinct entries) are emitted as
    rows flagged 'skipped'.
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
        fixed = {str(k): json_real(v, k) for k, v in fixed_raw.items()}
    except (TypeError, OverflowError) as exc:
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
                (str(name), json_real(desc["start"], "start"), json_real(desc["stop"], "stop"),
                 json_int(desc["steps"], "steps"))
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ParameterError(f"axis {name!r} needs start/stop/steps: {exc}") from exc
    extra = sorted(set(fixed) - set(names))
    if extra:
        raise ParameterError(f"fixed components {extra} do not exist for d={d}")
    # every grid point must lie in the family's cube [0, 1]^{d-1}; a NaN bound
    # fails these comparisons, so it is rejected too
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
    axis_names = [name for name, *_ in spec.axes]
    grids = [np.linspace(start, stop, steps).tolist() for _, start, stop, steps in spec.axes]
    for point in product(*grids):
        values = {**spec.fixed, **dict(zip(axis_names, point))}
        yield np.array([values[f"x{i}"] for i in range(1, spec.d)])


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid point, deterministic lexicographic order."""
    rows = []
    for x in _sweep_points(spec):
        row = {"d": spec.d}
        for i, v in enumerate(x, start=1):
            row[f"x{i}"] = float(v)
        try:
            cert = advantage_certificate(DampingParams(d=spec.d, x=x))
        except ParameterError:
            row["status"] = "skipped"
            row.update({col: None for col in CERT_CSV_COLUMNS})
        else:
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
    _write_text(text, out_path)
    skipped = sum(1 for r in rows if r["status"] == "skipped")
    print(f"rows: {len(rows)}")
    print(f"skipped: {skipped}")
    print(f"written: {out_path}")
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_channel(d: int, seed: int, index: int):
    """Channel ``index`` of the audit: its output rho and the deviations that
    need no FEF."""
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

    return rho, (trace_dev, dual_dev, lu_dev)


def _fef_deviations(rho, fef_val: float):
    floor_dev = max(0.0, fidelity_with(rho, max_entangled(rho.dim)) - fef_val)
    ceiling = min(float(np.linalg.eigvalsh(rho.matrix)[-1]), fstar_upper_bound(rho))
    ceiling_dev = max(0.0, fef_val - ceiling)
    return floor_dev, ceiling_dev


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
    lam = float(np.linalg.eigvalsh(choi_state(ch).matrix)[-1])
    if lam < 0.5:
        return 0.0
    return abs(lam - qubit_optimal_fidelity(ch))


def run_audit(d: int, n_channels: int, seed: int) -> dict:
    """Random-channel invariant audit: per invariant, the max violation and
    ``worst_index``, the first channel index that reaches it.

    Channel i is drawn from default_rng([seed, i]) alone (the Pauli check's
    from default_rng([seed, 10_000_019 + i])), and each FEF result equals
    ``fef`` on that channel alone, so an audit with ``n_channels`` =
    worst_index + 1 replays the worst channel as its last one.

    Each FEF is ``fef(rho, restarts=1)``: the identity start's ascent, which
    climbs from Phi+ and so meets the floor check by construction. Channels
    are built in chunks of ``fef_batch_size(d)``, and each chunk's FEFs come
    from one ``fef_batch`` call.
    """
    chunk = fef_batch_size(d)
    results = []
    for lo in range(0, n_channels, chunk):
        built = [_audit_channel(d, seed, i) for i in range(lo, min(lo + chunk, n_channels))]
        fefs = fef_batch([rho for rho, _ in built])
        results += [devs + _fef_deviations(rho, res.value) for (rho, devs), res in zip(built, fefs)]
    columns = list(zip(*results))
    if d == 2:
        columns.append([_audit_pauli(seed, i) for i in range(n_channels)])
    # AUDIT_TOLERANCES lists the checks in report order, the qubit-only one last
    checks = {}
    for (name, tol), col in zip(AUDIT_TOLERANCES.items(), columns):
        worst = max(range(n_channels), key=col.__getitem__)
        value = col[worst]
        checks[name] = {"max_violation": float(value), "worst_index": worst,
                        "tolerance": tol, "pass": bool(value < tol)}
    return {
        "d": d,
        "n_channels": n_channels,
        "seed": seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def cmd_audit(args) -> int:
    report = run_audit(args.d, args.n, args.seed)
    _write_text(dumps_fixed(report), args.out)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ParameterError, so ``main`` reports
    it like any other usage error; subparsers inherit the class."""

    def error(self, message):
        raise ParameterError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="FEF ascent seed; used only for phiplus/STATE.json inputs at d >= 3, "
                   "when the identity's bracket stays open; fef_certified does not depend on it")
    p.add_argument("--restarts", type=_int_at_least(1), default=32, metavar="N",
                   help="FEF ascent: at most N starts; seeded starts run only when the "
                   "identity's bracket stays open (phiplus/STATE.json inputs at d >= 3); "
                   "the dual-point search that may close it tries the least-squares "
                   "point, and polishes it only when N - 1 >= d^2")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_measures)

    p = sub.add_parser("certify", help="advantage certificate for one parameter point")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", required=True, help="comma-separated x_1,...,x_{d-1}")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("sweep", help="certificate grid sweep from a spec file")
    p.add_argument("spec", help="sweep spec JSON file")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="accepted but unused")
    p.add_argument("--out", default=None, help="override the spec's output path")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("audit", help="random-channel invariant audit")
    p.add_argument("--d", type=int, choices=range(2, 7), required=True, metavar="D")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of channels")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="seeds the random channels, input states and unitaries")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_audit)

    return parser


def _join_negative_x(argv: list) -> list:
    """argparse reads a comma list that starts with '-' ("-0.1,0.5") as an
    option, so ``--x -0.1,0.5`` is passed on as ``--x=-0.1,0.5`` and reaches
    the parameter checks."""
    out = []
    for token in argv:
        if out and out[-1] == "--x" and re.match(r"-[\d.]", token):
            out[-1] = f"--x={token}"
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once; parse_args fills a fresh Namespace per call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_join_negative_x(sys.argv[1:] if argv is None else argv))
        return args.fn(args)
    except SystemExit as exc:
        # only --help leaves parse_args this way; _Parser raises every error
        return int(exc.code or 0)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
