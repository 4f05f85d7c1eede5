"""Command-line front end.

Commands: ``validate``, ``measures``, ``certify``, ``sweep``, ``audit``.
All output is deterministic for fixed flags and seeds: JSON uses fixed field
order with 17-significant-digit reals, CSV uses '.' decimals, comma delimiter,
and a header row. Exit codes: 0 success / all verdicts true, 1 verified-false
or invariant violation, 2 usage or parameter error, 3 a dense linear-algebra
routine failed (numpy.linalg.LinAlgError), a numerical cross-check failed
(ArithmeticError: a closed form against its symmetry-sector eigensolve,
the damping family's completeness on its own Kraus entries, or an
eigenvector's residual) or memory ran out (MemoryError), so no verdict was
reached.
Every error, a malformed command line included, leaves through ``main`` as
one ``error: ...`` line on stderr; integer flags are bounded where they are
parsed (seeds >= 0, ``--n`` and ``measures --restarts`` >= 1, ``audit --d`` in
2..6), and the damping family's d, of ``certify --d`` and a sweep spec, in
3..``damping.MAX_DIMENSION`` before anything of size d is built.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import stat
import sys
from dataclasses import dataclass

import numpy as np

from .channels import (
    _psi_prime,
    apply_one_sided,
    branch_sum,
    branch_vectors,
    channel_from_dict,
    check_completeness,
    choi_state,
    completeness_residual,
    ginibre_from_normals,
    haar_dilation_kraus,
    haar_from_gaussian,
    is_unital,
    load_channel,
    one_sided_stack,
    top_eigenpairs,
)
from .damping import (
    CERT_CSV_COLUMNS,
    DampingParams,
    _certificates,
    _hypotheses,
    advantage_certificate,
    certificate_to_dict,
    family_dimension,
)
from .errors import (
    ChannelCompletenessError,
    ParameterError,
    ToolkitError,
)
from .jsonio import RowWriter, dumps_fixed, format_real, json_int, json_real, load_json
from .measures import DEFAULT_RESTARTS, fef, fef_batch, negativity, negativity_of_matrix
from .states import (
    fidelity_with,
    load_state,
    max_entangled,
)

AUDIT_TOLERANCES = {
    "trace_preservation": 1e-12,
    "local_unitary_covariance": 1e-12,
    "fef_ceiling": 1e-9,
    "qubit_pauli_equality": 1e-10,
}

MAX_SWEEP_POINTS = 10**6
# bytes of the stacks a sweep chunk or an audit batch's FEF ascent may hold at once
CHUNK_BYTES = 1024 * 1024


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
    if args.input not in ("phiplus", "psi_prime"):
        psi = load_state(args.input)
    # every input reads lambda_max_choi off one eigh of the Choi state J:
    # J is Phi+'s output, and psi', the dual's top eigenvector, is read off
    # J's top eigenvector
    choi = choi_state(ch)
    lam, v, _ = top_eigenpairs(choi.matrix[None])
    if args.input == "phiplus":
        rho = choi
    elif args.input == "psi_prime":
        rho = apply_one_sided(ch, _psi_prime(v[0], ch.dim))
    else:
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
    neg = negativity(rho)
    report = {
        "phiplus_fidelity": phiplus_fidelity,
        "fef_value": fef_value,
        "fef_converged": fef_converged,
        "fef_certified": fef_certified,
        "negativity": neg,
        # fstar_upper_bound(rho): rho has unit trace, as the channel file is
        # validated trace preserving
        "fstar_upper_bound": (1.0 + 2.0 * neg) / ch.dim,
        "lambda_max_choi": float(lam[0]),
    }
    _write_text(dumps_fixed(report), args.out)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _parse_x(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
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
    both = sorted(set(axes_raw) & set(fixed_raw))
    if both:
        raise ParameterError(f"components {both} are both swept and fixed")
    try:
        fixed = {str(k): json_real(v, k) for k, v in fixed_raw.items()}
    except (TypeError, OverflowError) as exc:
        raise ParameterError(f"fixed components must be numbers: {exc}") from exc
    covered = set(axes_raw) | set(fixed)
    missing = [f"x{i}" for i in range(1, d) if f"x{i}" not in covered]
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


def _sweep_chunk_size(d: int) -> int:
    """Grid rows per sweep chunk. The symmetry-sector cross-check holds
    O(d^2) numbers per point: the d x d block on span{|ii>} and the
    eigensolver's copy, the d(d-1)/2 2x2 blocks, their eigenvalues and the
    clamped copy, at most about 64 d^2 bytes in all. So the chunk keeps its
    stacks within CHUNK_BYTES (256 points at d = 8, 1,820 at d = 3), at
    least one. Once certified, a chunk also holds its rows' formatted cells
    and text. Beyond its axes nothing else of the grid is held, so a whole
    sweep peaks at one chunk, whatever the grid's size."""
    return max(1, CHUNK_BYTES // (64 * d**2))


def run_sweep(spec: SweepSpec, emit) -> tuple[int, int]:
    """Certify the sweep grid a chunk at a time, and return the number of
    rows and of skipped rows.

    Rows run over the grid in lexicographic order, ``_sweep_chunk_size(d)``
    consecutive rows per chunk. A chunk takes its points from their flat
    indices, each axis's ``linspace`` value picked by ``np.unravel_index``,
    so only the axes are held for the whole grid. Each chunk is passed on as
    ``emit(xs, strict, certs)``: its points xs (n, d-1); the mask of those
    that meet the certificate's hypotheses (``damping._hypotheses``), the
    others being 'skipped' rows; and the ``damping._certificates`` arrays of
    the strict points, whose stacked cross-check names a failing point by
    its row. Each row is the one its point gives alone, so the rows do not
    depend on the chunk size.
    """
    d = spec.d
    axes = [np.linspace(start, stop, steps) for _, start, stop, steps in spec.axes]
    shape = tuple(axis.size for axis in axes)
    rows = math.prod(shape)
    chunk = _sweep_chunk_size(d)
    skipped = 0
    for lo in range(0, rows, chunk):
        flat = np.arange(lo, min(lo + chunk, rows))
        xs = np.empty((flat.size, d - 1))
        for name, value in spec.fixed.items():
            xs[:, int(name[1:]) - 1] = value
        for (name, *_), axis, index in zip(spec.axes, axes, np.unravel_index(flat, shape)):
            xs[:, int(name[1:]) - 1] = axis[index]
        strict = np.logical_and(*_hypotheses(xs))
        emit(xs, strict, _certificates(d, xs[strict], rows=flat[strict]))
        skipped += flat.size - np.count_nonzero(strict)
    return rows, skipped


@contextlib.contextmanager
def _output_file(path: str):
    """The text file that writes ``path``. A path that names a regular file,
    or nothing yet, is written through a new file beside it, .NAME.PID.tmp
    (opened with "x", so its mode follows the umask), which replaces it once
    the block ends and is deleted if the block raises: the path then holds
    the whole output or what it held before. Any other existing path (a
    symbolic link such as /dev/stdout, a FIFO) is opened and written
    directly, never replaced."""
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "x")
    except FileExistsError:
        raise
    except OSError as exc:
        # a missing or unwritable directory: name the output, not the
        # temporary file, as a direct open would
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_sweep(args) -> int:
    spec = parse_sweep_spec(load_json(args.spec))
    out_path = args.out or spec.output_path
    fmt = args.format or spec.format
    if not out_path:
        raise ParameterError("no output path: set 'output_path' in the spec or pass --out")
    names = ["d", *(f"x{i}" for i in range(1, spec.d)), "status", *CERT_CSV_COLUMNS]
    with _output_file(out_path) as fh:
        writer = RowWriter(fh, names, fmt)

        def emit(xs, strict, certs):
            writer.write([np.full(len(xs), spec.d), *xs.T, np.where(strict, "ok", "skipped"),
                          *((certs[field], strict) for field in CERT_CSV_COLUMNS.values())])

        rows, skipped = run_sweep(spec, emit)
        writer.close()
    print(f"rows: {rows}")
    print(f"skipped: {skipped}")
    print(f"written: {out_path}")
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

# the Pauli matrices I, X, Y, Z
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                   dtype=complex)


def _audit_draws(d: int, seed: int, lo: int, hi: int):
    """The random draws of channels lo..hi-1 of the audit: their Kraus lists
    as one (n, d, d, d) stack, padded with zero operators to d, the largest
    Kraus count, their inputs' coefficient matrices and their local
    unitaries W.

    Channel i draws from default_rng([seed, i]) alone: its Kraus count k,
    then one block of 2 (d k)^2 + 4 d^2 standard normals, which hold in
    turn the Gaussian of its Haar dilation on C^{d k}, its input (the
    normals of ``random_pure_state``) and the Gaussian of W, the order and
    values of separate draws. The channels of one Kraus count are assembled
    as one stack, and ``haar_dilation_kraus`` turns their dilations into
    Kraus lists with one QR of the d columns each keeps; the W take one QR.
    """
    counts, normals = [], []
    for i in range(lo, hi):
        rng = np.random.default_rng([seed, i])
        k = int(rng.integers(2, d + 1))
        counts.append(k)
        normals.append(rng.standard_normal(2 * (d * k) ** 2 + 4 * d * d))
    n, m = hi - lo, d * d
    kraus = np.zeros((n, d, d, d), dtype=complex)
    inputs = np.empty((n, m), dtype=complex)
    gaussians = np.empty((n, d, d), dtype=complex)
    # sorted(set()), not np.unique, whose first call adds 1.7 MB of RSS
    for k in sorted(set(counts)):
        rows = [r for r, count in enumerate(counts) if count == k]
        block = np.stack([normals[r] for r in rows])
        dilation, amps, rotation = np.split(block, [2 * m * k * k, 2 * m * (k * k + 1)], axis=1)
        kraus[rows, :k] = haar_dilation_kraus(ginibre_from_normals(dilation, d * k), d)
        inputs[rows] = amps[:, :m] + 1j * amps[:, m:]
        gaussians[rows] = ginibre_from_normals(rotation, d)
    # one norm per row, each as random_pure_state takes it
    inputs /= np.array([np.linalg.norm(v) for v in inputs])[:, None]
    return kraus, inputs.reshape(n, d, d), haar_from_gaussian(gaussians)


def _audit_chunk(d: int, seed: int, lo: int, hi: int):
    """Channels lo..hi-1 of the audit (``_audit_draws``): their outputs rho
    as one (n, d^2, d^2) stack, an (n, 2) array of the deviations that need
    no FEF (trace, local-unitary covariance), and lambda_max of each output.

    The linear algebra runs on stacks: one ``check_completeness``, the
    outputs as ``branch_sum`` of their vectors v_i = (I (x) K_i)|psi>, and
    one ``eigvalsh`` of the K x K Gram matrices <v_i|v_j> of those vectors:
    rho = sum_i v_i v_i^dag has the Gram matrix's nonzero spectrum. The
    covariance check compares (I (x) K_i)(W (x) I)|psi> with (W (x) I) v_i:
    equal branches give covariant outputs. The Kraus lists are padded to
    K = d whatever channels lo..hi-1 hold, as a Gram matrix's eigensolve,
    unlike a sum of zero terms, may round differently with more zero rows.
    Each value is bit for bit the one the channel gives alone.
    """
    kraus, psi, w = _audit_draws(d, seed, lo, hi)
    check_completeness(kraus)

    v = branch_vectors(kraus, psi)
    rho = branch_sum(v)
    top = np.linalg.eigvalsh(v.conj() @ v.swapaxes(-1, -2))[:, -1]
    trace_dev = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)

    # each branch (I (x) K_i)(W (x) I)|psi> against (W (x) I)(I (x) K_i)|psi>:
    # W acts on the rows of each branch's d x d coefficient matrix
    rot = np.matmul(w[:, None], v.reshape(*v.shape[:2], d, d)).reshape(v.shape)
    lhs = branch_vectors(kraus, w @ psi) - rot
    lu_dev = np.abs(lhs).max(axis=(1, 2))

    return rho, np.column_stack((trace_dev, lu_dev)), top


def _fef_deviations(rho: np.ndarray, top: np.ndarray, fef_values: np.ndarray):
    """For a stack of outputs, their lambda_max ``top`` and their FEF values,
    how far each value rises above the ceiling min(lambda_max, (1 + 2N) / d)
    of ``fstar_upper_bound``, clamped at 0."""
    d = math.isqrt(rho.shape[-1])
    fstar = (1.0 + 2.0 * negativity_of_matrix(rho, d)) / d
    return np.maximum(0.0, fef_values - np.minimum(top, fstar))


def _audit_pauli(seed: int, lo: int, hi: int) -> np.ndarray:
    """|lambda_max(J) - qubit_optimal_fidelity| of the Pauli channels
    lo..hi-1, 0 where lambda_max(J) < 1/2; channel i draws its weights
    from default_rng([seed, 10_000_019 + i])."""
    weights = np.empty((hi - lo, 4))
    for row, i in enumerate(range(lo, hi)):
        rng = np.random.default_rng([seed, 10_000_019 + i])
        w = rng.dirichlet(np.ones(4))
        j = int(np.argmax(w))
        w = 0.5 * w
        w[j] += 0.5
        weights[row] = w
    kraus = np.sqrt(weights)[:, :, None, None] * _PAULIS
    check_completeness(kraus)
    # Phi+'s coefficient matrix, I / sqrt(2)
    choi = one_sided_stack(kraus, np.eye(2)[None] / np.sqrt(2))
    lam = np.linalg.eigvalsh(choi)[:, -1]
    # qubit_optimal_fidelity: (1 + 2 N(J)) / 2
    exact = (1.0 + 2.0 * negativity_of_matrix(choi, 2)) / 2.0
    return np.where(lam < 0.5, 0.0, np.abs(lam - exact))


def _fef_batch_size(d: int) -> int:
    """Channels per audit batch: CHUNK_BYTES over two complex d^2 x d^2
    matrices per channel, the outputs and the FEF ascent's copy of them
    (25 at d = 6, 52 at d = 5, 404 at d = 3), at least one. A stack of
    identity starts climbs until its slowest start stops, so each batch takes
    as many channels as the ascent's memory allows. Building a batch with
    ``_audit_chunk`` holds more, about three such matrices per channel at
    its peak (the outputs and ``branch_sum``'s temporaries), so the audit's
    peak is about 1.5 CHUNK_BYTES whatever the number of channels."""
    return max(1, CHUNK_BYTES // (2 * 16 * d**4))


def run_audit(d: int, n_channels: int, seed: int) -> dict:
    """Random-channel invariant audit: per invariant, the max violation and
    ``worst_index``, the first channel index that reaches it.

    Channel i is drawn from default_rng([seed, i]) alone (the Pauli check's
    from default_rng([seed, 10_000_019 + i])), and each FEF result equals
    ``fef`` on that channel alone, so an audit with ``n_channels`` =
    worst_index + 1 replays the worst channel as its last one.

    The checks are identities every channel meets, each of which a fault in
    the code under it would break: the output's unit trace (the one-sided
    kernel), covariance under a local unitary on the kept side (a kernel
    acting on the wrong factor), the FEF ceiling (an ascent that leaves the
    maximally entangled states, or a wrong lambda_max or partial transpose)
    and, at d = 2, the Pauli channels' closed form (the negativity and
    lambda_max against an exact formula).

    Each FEF is ``fef(rho, restarts=1).value``: the identity start's ascent;
    no certificate is read, so none is proved. Channels are audited in
    batches of ``_fef_batch_size(d)``: ``_audit_chunk`` builds a batch's
    channels and runs its linear algebra as stacked calls, and ``fef_batch``
    climbs the batch's stack of outputs as one stack of identity starts. The
    ceiling reads the batch's lambda_max and one stacked ``eigvalsh`` for the
    partial-transpose negativity. At d = 2 the Pauli check of the batch's
    indices is stacked the same way. Every deviation is bit for bit the one
    its channel gives alone, so the report does not depend on the batch size.
    """
    batch = _fef_batch_size(d)
    parts = []
    for lo in range(0, n_channels, batch):
        hi = min(lo + batch, n_channels)
        rho, devs, top = _audit_chunk(d, seed, lo, hi)
        part = [*devs.T, _fef_deviations(rho, top, fef_batch(rho))]
        del rho  # the next batch is built without this one's outputs
        if d == 2:
            part.append(_audit_pauli(seed, lo, hi))
        parts.append(np.column_stack(part))
    # AUDIT_TOLERANCES lists the checks in report order, the qubit-only one last
    checks = {}
    for (name, tol), col in zip(AUDIT_TOLERANCES.items(), np.concatenate(parts).T):
        worst = int(np.argmax(col))
        value = float(col[worst])
        checks[name] = {"max_violation": value, "worst_index": worst,
                        "tolerance": tol, "pass": value < tol}
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
    p.add_argument("--restarts", type=_int_at_least(1), default=DEFAULT_RESTARTS, metavar="N",
                   help="FEF ascent: at most N starts; seeded starts run only when the "
                   "identity's bracket stays open (phiplus/STATE.json inputs at d >= 3); "
                   "fef_certified does not depend on it")
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
