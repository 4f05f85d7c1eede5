"""Command-line surface: exit codes, report schemas, determinism."""

import argparse
import io
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import closed_form_row
from quditshare import (
    DampingParams,
    ParameterError,
    apply_one_sided,
    damping_channel,
    fstar_upper_bound,
    kraus_validate,
    max_entangled,
    negativity,
    random_channel,
    random_pure_state,
    save_channel,
    top_choi_eigenpair,
)
from quditshare import channels, cli, damping, measures
from quditshare.cli import main, parse_sweep_spec
from quditshare.jsonio import RowWriter, dumps_fixed, format_real, format_reals

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def omega_file(tmp_path):
    path = tmp_path / "family3.json"
    save_channel(damping_channel(DampingParams(3, [0.5, 0.9])), path)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity3.json"
    save_channel(kraus_validate([np.eye(3)]), path)
    return str(path)


def _run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "quditshare", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_validate_identity(identity_file, capsys):
    assert main(["validate", identity_file]) == 0
    out = capsys.readouterr().out
    assert "valid, unital" in out
    assert "kraus_count: 1" in out


def test_validate_family_nonunital(omega_file, capsys):
    assert main(["validate", omega_file]) == 0
    out = capsys.readouterr().out
    assert "valid, nonunital" in out


def test_validate_truncated_kraus(tmp_path, capsys):
    data = {
        "d": 2,
        "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(dumps_fixed(data))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    residual = float(out.split("completeness_residual: ")[1].split("\n")[0])
    assert abs(residual - 0.36) < 1e-12
    # only validate's verdict is "verified false"; measures rejects the file
    assert main(["measures", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Kraus operators are not trace preserving")
    assert err.count("\n") == 1, err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    # "d" must be a JSON integer: no truncation of 2.9, no "2", no true;
    # and a channel needs d >= 2
    texts = ["{not json", json.dumps({"d": 1, "kraus": [[[[1, 0]]]]})]
    texts += [json.dumps({"d": d, "kraus": [eye]}) for d in (2.9, "2", True)]
    for text in texts:
        path.write_text(text)
        for argv in (["validate", str(path)], ["measures", str(path)]):
            assert main(argv) == 2, (argv, text)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_completeness_within_tolerance_validates_and_measures(tmp_path, capsys):
    # residual 4e-11 is inside the 1e-10 completeness tolerance but its output
    # trace deviates from 1 by more than the density-operator trace tolerance
    path = tmp_path / "ch.json"
    op = [[[1, 0], [0, 0]], [[0, 0], [float(np.sqrt(1 + 4e-11)), 0]]]
    path.write_text(json.dumps({"d": 2, "kraus": [op]}))
    assert main(["validate", str(path)]) == 0
    assert "valid, unital" in capsys.readouterr().out
    for which in ("phiplus", "psi_prime"):
        assert main(["measures", str(path), "--input", which, "--restarts", "2"]) == 0
        # the qubit FEF is exact for every input
        assert json.loads(capsys.readouterr().out)["fef_certified"] is True


def test_oversized_json_integer_is_usage_error(omega_file, tmp_path, capsys):
    # json.load raises a plain ValueError for integer literals above 4300 digits
    huge = "1" * 5000
    channel = tmp_path / "ch.json"
    channel.write_text('{"d": %s, "kraus": []}' % huge)
    state = tmp_path / "state.json"
    state.write_text('{"d": %s, "amplitudes": []}' % huge)
    spec = tmp_path / "spec.json"
    spec.write_text('{"d": %s, "axes": {}, "output_path": "x.csv"}' % huge)
    for argv in (["validate", str(channel)],
                 ["measures", omega_file, "--input", str(state)],
                 ["sweep", str(spec)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSON") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["validate", "measures"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_kraus_entry_is_usage_error(tmp_path, capsys, command, bad):
    # NaN makes the completeness residual NaN, which no tolerance check rejects;
    # json.dumps writes the NaN and Infinity tokens that json.load reads back
    path = tmp_path / "ch.json"
    entry = [float(bad), 0]
    path.write_text(json.dumps({"d": 2, "kraus": [[[entry, [0, 0]], [[0, 0], [1, 0]]]]}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Kraus operator has a non-finite entry\n"


def test_overflowing_kraus_entry_is_not_trace_preserving(tmp_path):
    # |1e200 + 1e200 i|^2 overflows to a NaN completeness residual, which a
    # "residual > tolerance" test let through as trace preserving; numpy's
    # overflow warnings stay off stderr
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 2, "kraus": [[[[1e200, 1e200], [0, 0]],
                                                   [[0, 0], [1, 0]]]]}))
    validate = _run_cli(["validate", str(path)])
    assert validate.returncode == 1
    assert validate.stdout.splitlines()[-1].startswith(
        "invalid: not trace preserving (residual ")
    assert validate.stderr == ""
    measures = _run_cli(["measures", str(path)])
    assert measures.returncode == 2
    assert measures.stdout == ""
    assert measures.stderr.startswith("error: Kraus operators are not trace preserving")
    assert measures.stderr.count("\n") == 1
    assert "RuntimeWarning" not in validate.stderr + measures.stderr


@pytest.mark.parametrize("command", ["validate", "measures"])
@pytest.mark.parametrize(
    "entry", [["nan", 0], ["inf", 0], ["1", 0], [True, 0], [1, False], [1, 0, 99]])
def test_kraus_entry_must_be_a_pair_of_numbers(tmp_path, capsys, command, entry):
    # float() read strings and bools as numbers and a third entry went unread,
    # so these files validated as the identity channel (the "nan" and "inf"
    # strings reached the finiteness check); the NaN token is the test above
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 2, "kraus": [[[entry, [0, 0]], [[0, 0], [1, 0]]]]}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed channel data: 'Kraus entry' must be")
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("command", ["validate", "measures"])
@pytest.mark.parametrize("row", [[[0, 0]], []])
def test_ragged_kraus_rows_are_usage_error(tmp_path, capsys, command, row):
    # np.array raises ValueError on rows of different lengths
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 2, "kraus": [[[[1, 0], [0, 0]], row]]}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed channel data: ")
    assert captured.err.count("\n") == 1, captured.err


def test_measures_phiplus(omega_file, capsys):
    assert main(["measures", omega_file, "--restarts", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["negativity"] - 0.5033333333333333) < 1e-10
    assert abs(report["fstar_upper_bound"] - 0.6688888888888889) < 1e-10
    assert abs(report["phiplus_fidelity"] - 0.64) < 1e-10
    assert list(report.keys()) == [
        "phiplus_fidelity",
        "fef_value",
        "fef_converged",
        "fef_certified",
        "negativity",
        "fstar_upper_bound",
        "lambda_max_choi",
    ]


def test_measures_psi_prime(omega_file, capsys):
    assert main(["measures", omega_file, "--input", "psi_prime", "--restarts", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["fef_value"] - 0.6866666666666666) < 1e-6
    assert report["fef_certified"] is True


@pytest.mark.parametrize("which", ["psi_prime", "phiplus", "state"])
def test_measures_eigenvector_defect_is_one_line_exit_3(omega_file, tmp_path, capsys,
                                                        monkeypatch, which):
    # measures takes its Choi eigenpair from top_eigenpairs, whatever the
    # input, which checks the top eigenvector's residual (psi' is read off
    # it; the Phi+ output is the channel's Choi state); at a zero tolerance
    # no residual passes, and measures writes no report
    if which == "state":
        state = tmp_path / "state.json"
        state.write_text(dumps_fixed({"d": 3, "amplitudes": [[0.6, 0.0]] + [[0.0, 0.0]] * 7
                                      + [[0.8, 0.0]]}))
        which = str(state)
    monkeypatch.setattr(channels, "EIGVEC_DEFECT_TOL", 0.0)
    assert main(["measures", omega_file, "--input", which]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: numerical failure: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("which", ["phiplus", "psi_prime", "state"])
def test_measures_fstar_bound_is_the_library_bound(tmp_path, capsys, monkeypatch, which):
    # the report reads N(rho) once and forms fstar_upper_bound from it: the
    # same bits as the library call, with one partial-transpose eigensolve
    rng = np.random.default_rng(41)
    ch = random_channel(4, 3, rng)
    channel = tmp_path / "channel.json"
    save_channel(ch, channel)
    psi_prime = channels._psi_prime(top_choi_eigenpair(ch).state.amplitudes, 4)
    psi = {"phiplus": max_entangled(4), "psi_prime": psi_prime,
           "state": random_pure_state(4, rng)}[which]
    state = tmp_path / "state.json"
    state.write_text(dumps_fixed(
        {"d": 4, "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes]}))
    seen = []
    original = measures.negativity_of_matrix
    monkeypatch.setattr(measures, "negativity_of_matrix",
                        lambda m, d: seen.append(d) or original(m, d))
    argv = ["measures", str(channel), "--input", str(state) if which == "state" else which]
    assert main(argv) == 0
    assert seen == [4]
    report = json.loads(capsys.readouterr().out)
    rho = apply_one_sided(ch, psi)
    assert report["negativity"] > 0
    assert report["fstar_upper_bound"] == fstar_upper_bound(rho)
    assert report["negativity"] == negativity(rho)


def test_linalg_failure_is_one_line_exit_3(omega_file, capsys, monkeypatch):
    # a LAPACK routine that does not converge reaches no verdict: exit 3, not
    # the 1 of a verdict checked and false, and no traceback
    def fail(rho, **kw):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "fef", fail)
    assert main(["measures", omega_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numerical failure: SVD did not converge\n"


def _perturb_closed_form(monkeypatch, field, at):
    """Make the certificate kernel's closed-form ``field`` 1e-9 off, at the
    rows of xs where ``at(xs)`` is true."""
    original = damping._closed_forms

    def perturbed(d, xs):
        cols = original(d, xs)
        cols[field] = cols[field] + np.where(at(xs), 1e-9, 0.0)
        return cols

    monkeypatch.setattr(damping, "_closed_forms", perturbed)


@pytest.mark.parametrize("field, name", [
    ("lambda_max_closed", "lambda_max"), ("negativity_phiplus_closed", "negativity")])
def test_cross_check_failure_is_one_line_exit_3(capsys, monkeypatch, field, name):
    # a closed form the sector eigensolve contradicts reaches no verdict: the
    # certificate's ArithmeticError leaves as exit 3 and one line. The
    # point's kernel row carries the same error
    p = DampingParams(3, [0.2, 0.7])
    exact = closed_form_row(p)[field]
    _perturb_closed_form(monkeypatch, field, lambda xs: True)
    assert closed_form_row(p)[field] == exact + 1e-9
    assert main(["certify", "--d", "3", "--x", "0.2,0.7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: numerical failure: closed-form {name} disagrees with "
                            "eigensolve by 1e-09 at d = 3, x = 0.2,0.7\n")


# a d = 4 grid of 15 points; row 7 has x1 = x2 = x3 = 0.5 and is skipped
CROSS_CHECK_SPEC = {"d": 4, "axes": {"x1": {"start": 0.1, "stop": 0.9, "steps": 5},
                                     "x3": {"start": 0.3, "stop": 0.7, "steps": 3}},
                    "fixed": {"x2": 0.5}}


@pytest.mark.parametrize("field, name", [
    ("lambda_max_closed", "lambda_max"), ("negativity_phiplus_closed", "negativity")])
def test_sweep_cross_check_failure_names_row(tmp_path, capsys, monkeypatch, field, name):
    # a closed form the stacked cross-check contradicts at one grid point
    # stops the sweep with exit 3 and one line that names the point's row in
    # grid order and its x, and certify with that x replays it alone. Three
    # rows per chunk, so the row sits inside a chunk, after a chunk that
    # holds a skipped row and was written already
    monkeypatch.setattr(cli, "CHUNK_BYTES", 3 * 64 * 4**2)
    assert cli._sweep_chunk_size(4) == 3
    grid = [np.array([x1, 0.5, x3]) for x1 in np.linspace(0.1, 0.9, 5).tolist()
            for x3 in np.linspace(0.3, 0.7, 3).tolist()]
    row = 10
    bad = grid[row]
    _perturb_closed_form(monkeypatch, field, lambda xs: (xs == bad).all(axis=1))
    out = tmp_path / "grid.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(dumps_fixed(CROSS_CHECK_SPEC))
    assert main(["sweep", str(spec), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    x_text = ",".join(repr(v) for v in bad.tolist())
    assert captured.out == ""
    assert captured.err == (f"error: numerical failure: closed-form {name} disagrees with "
                            f"eigensolve by 1e-09 at sweep row {row} (d = 4, x = {x_text})\n")
    assert not out.exists()
    assert main(["certify", "--d", "4", "--x", x_text]) == 3
    assert capsys.readouterr().err == (
        f"error: numerical failure: closed-form {name} disagrees with "
        f"eigensolve by 1e-09 at d = 4, x = {x_text}\n")


# a d = 8 grid whose 24 strict points (the centre is skipped) span several
# 5-point chunks
CHUNK_SPEC = {"d": 8, "axes": {"x1": {"start": 0.3, "stop": 0.7, "steps": 5},
                               "x7": {"start": 0.3, "stop": 0.7, "steps": 5}},
              "fixed": {f"x{i}": 0.5 for i in range(2, 7)}}


def test_sweep_csv_does_not_depend_on_chunks(tmp_path, capsys, monkeypatch):
    # the grid gives the bytes of one point per chunk
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(CHUNK_SPEC))
    tables = []
    for points in (5, 1):
        monkeypatch.setattr(cli, "CHUNK_BYTES", points * 64 * 8**2)
        assert cli._sweep_chunk_size(8) == points
        out = tmp_path / f"grid-{points}.csv"
        assert main(["sweep", str(spec_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["rows: 25", "skipped: 1"]
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


# run in a child process: sweeps CHUNK_SPEC in 5-point and 1-point chunks
# and certifies one d = 6 point, then writes the two tables and the
# certificate to the result file
_KERNEL_CHILD = """
import contextlib, io, json, pathlib, sys
from quditshare import cli
spec, out, result = sys.argv[1:]
tables = []
with contextlib.redirect_stdout(io.StringIO()):
    for points in (5, 1):
        cli.CHUNK_BYTES = points * 64 * 8**2
        assert cli.main(["sweep", spec, "--out", out]) == 0
        tables.append(pathlib.Path(out).read_text())
assert cli.main(["certify", "--d", "6", "--x", "0.11,0.37,0.52,0.8,0.93", "--out", out]) == 0
certify = json.loads(pathlib.Path(out).read_text())
pathlib.Path(result).write_text(json.dumps({"tables": tables, "certify": certify}))
"""


def test_closed_forms_do_not_depend_on_the_openblas_kernel(tmp_path):
    # OpenBLAS picks its CPU kernel at load time, so each kernel runs in a
    # child process with OPENBLAS_CORETYPE set in its environment alone
    # (None: the host's own). Under each one the sweep's bytes do not depend
    # on the chunk size, and every certificate field but the two *_numeric
    # eigensolves has the same bits on every kernel
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(CHUNK_SPEC))
    certs = []
    for kernel in (None, "Haswell", "Prescott"):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        result = tmp_path / "result.json"
        res = subprocess.run([sys.executable, "-c", _KERNEL_CHILD, str(spec_path),
                              str(tmp_path / "out"), str(result)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, (kernel, res.stderr)
        got = json.loads(result.read_text())
        assert got["tables"][0] == got["tables"][1], kernel
        certs.append({k: v for k, v in got["certify"].items() if not k.endswith("_numeric")})
    assert certs[1:] == certs[:1] * 2


def _corrupt_kraus_entry(monkeypatch, at):
    """Move A_0's diagonal entry at level 2 by 1e-6 at the rows of xs where
    ``at(xs)`` is true."""
    original = damping._kraus_entries

    def corrupted(xs):
        a, b = original(xs)
        a[:, 2] += np.where(at(xs), 1e-6, 0.0)
        return a, b

    monkeypatch.setattr(damping, "_kraus_entries", corrupted)


def test_completeness_failure_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    # a completeness miss on the family's own Kraus entries is a failed
    # numerical check, not a bad input: certify and sweep exit 3 with one
    # line naming the residual, the entry and the point (in a sweep, its
    # row), and the sweep writes no table
    _corrupt_kraus_entry(monkeypatch, lambda xs: xs[:, 1] == 0.7)
    residual = abs((0.7 + 1e-6) ** 2 + 0.51 - 1.0)
    assert main(["certify", "--d", "3", "--x", "0.2,0.7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: numerical failure: Kraus operators are not trace preserving: "
                            f"residual {residual!r} at entry (2, 2) at d = 3, x = 0.2,0.7\n")
    spec = tmp_path / "spec.json"
    spec.write_text(dumps_fixed({"d": 3, "axes": {"x1": {"start": 0.1, "stop": 0.3, "steps": 3}},
                                 "fixed": {"x2": 0.7}}))
    out = tmp_path / "grid.csv"
    assert main(["sweep", str(spec), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: numerical failure: Kraus operators are not trace preserving: "
                            f"residual {residual!r} at entry (2, 2) at sweep row 0 "
                            "(d = 3, x = 0.1,0.7)\n")
    assert sorted(os.listdir(tmp_path)) == ["spec.json"]


# a d = 3 grid of 25 points whose diagonal rows 0, 6, 12, 18 and 24 are skipped
DIAGONAL_SPEC = {"d": 3, "axes": {"x1": {"start": 0.1, "stop": 0.9, "steps": 5},
                                  "x2": {"start": 0.1, "stop": 0.9, "steps": 5}}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_bytes_do_not_depend_on_chunks(tmp_path, capsys, monkeypatch, fmt):
    # the table is written a chunk at a time; with 1, 3, 6 or 25 rows per
    # chunk, skipped rows fall inside chunks, first in them and alone in them
    # (row 24 with 3 or 6), and every chunk size gives the same bytes
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(DIAGONAL_SPEC))
    tables = []
    for points in (1, 3, 6, 25):
        monkeypatch.setattr(cli, "CHUNK_BYTES", points * 64 * 3**2)
        assert cli._sweep_chunk_size(3) == points
        out = tmp_path / f"grid-{points}.{fmt}"
        assert main(["sweep", str(spec_path), "--out", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["rows: 25", "skipped: 5"]
        tables.append(out.read_bytes())
    assert tables[1:] == tables[:1] * 3
    rows = json.loads(tables[0]) if fmt == "json" else tables[0].decode().splitlines()[1:]
    assert len(rows) == 25


@pytest.mark.parametrize("existing", [None, "an earlier table\n"])
def test_failed_sweep_leaves_no_table(tmp_path, capsys, monkeypatch, existing):
    # a cross-check that fails in the last chunk, after two chunks were
    # written to the temporary file, leaves neither that file nor a table:
    # the output path holds what it held before
    monkeypatch.setattr(cli, "CHUNK_BYTES", 10 * 64 * 3**2)
    _perturb_closed_form(monkeypatch, "lambda_max_closed", lambda xs: (xs[:, 0] == 0.9)
                         & (xs[:, 1] == 0.5))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(DIAGONAL_SPEC))
    out = tmp_path / "grid.csv"
    if existing is not None:
        out.write_text(existing)
    assert main(["sweep", str(spec_path), "--out", str(out)]) == 3
    assert "at sweep row 22 " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == sorted(["spec.json"] + (["grid.csv"] if existing else []))
    if existing is not None:
        assert out.read_text() == existing


@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_sweep_writes_non_regular_path_in_place(tmp_path, capsys, kind):
    # an output path that is not a regular file, a FIFO or a symbolic link,
    # is written directly and stays what it was; no temporary file is left
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(DIAGONAL_SPEC))
    plain = tmp_path / "grid.csv"
    assert main(["sweep", str(spec_path), "--out", str(plain)]) == 0
    out = tmp_path / kind
    received = []
    if kind == "fifo":
        os.mkfifo(out)
        reader = threading.Thread(target=lambda: received.append(out.read_bytes()))
        reader.start()
    else:
        target = tmp_path / "target.csv"
        target.write_text("an earlier table\n")
        out.symlink_to(target)
    try:
        assert main(["sweep", str(spec_path), "--out", str(out)]) == 0
    finally:
        if kind == "fifo":
            reader.join(timeout=30)
    if kind == "fifo":
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
    else:
        assert out.is_symlink() and os.readlink(out) == str(target)
        received.append(target.read_bytes())
    assert received == [plain.read_bytes()]
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["grid.csv", "spec.json", kind] + (["target.csv"] if kind == "symlink" else []))
    capsys.readouterr()


@pytest.mark.parametrize("routine, argv", [
    ("choi_state", ["measures", "OMEGA"]),
    ("advantage_certificate", ["certify", "--d", "3", "--x", "0.5,0.9"]),
])
def test_memory_failure_is_one_line_exit_3(omega_file, capsys, monkeypatch, routine, argv):
    # an allocation numpy cannot make reaches no verdict either: exit 3 and
    # one line. The failure is raised, never provoked: a real oversized
    # allocation may be granted and then killed.
    def fail(*args, **kw):
        raise MemoryError("Unable to allocate 9.54 GiB for an array")

    monkeypatch.setattr(cli, routine, fail)
    assert main([omega_file if a == "OMEGA" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 9.54 GiB for an array\n"


def test_measures_identity(identity_file, capsys):
    assert main(["measures", identity_file, "--restarts", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["phiplus_fidelity"] - 1.0) < 1e-10
    assert abs(report["fef_value"] - 1.0) < 1e-10
    assert abs(report["negativity"] - 1.0) < 1e-10


def test_measures_fully_depolarizing_negativity_is_positive_zero(tmp_path, capsys):
    # its Choi state is I/4, whose partial transpose has no negative eigenvalue
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])]
    path = tmp_path / "depolarizing.json"
    save_channel(kraus_validate([0.5 * np.array(p) for p in paulis]), path)
    assert main(["measures", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["negativity"] == 0.0 and math.copysign(1.0, report["negativity"]) == 1.0


def test_measures_state_file(omega_file, tmp_path, capsys):
    amps = [[0.0, 0.0]] * 9
    amps[0] = [1.0, 0.0]
    path = tmp_path / "state.json"
    path.write_text(dumps_fixed({"d": 3, "amplitudes": amps}))
    assert main(["measures", omega_file, "--input", str(path), "--restarts", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["negativity"] < 1e-10


def test_main_reuses_parser_without_leaking_defaults(omega_file, capsys, monkeypatch):
    # main() builds its parser once; an option given in one call must not
    # become the default of the next
    seen = []
    real_fef = cli.fef
    monkeypatch.setattr(cli, "fef", lambda rho, **kw: seen.append(kw) or real_fef(rho, **kw))
    assert main(["measures", omega_file, "--restarts", "2", "--seed", "5"]) == 0
    assert main(["measures", omega_file]) == 0
    capsys.readouterr()
    assert seen == [{"restarts": 2, "seed": 5}, {"restarts": 32, "seed": 0}]
    assert cli._parser() is cli._parser()


def test_measures_dimension_mismatch(omega_file, tmp_path, capsys):
    amps = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "state2.json"
    path.write_text(dumps_fixed({"d": 2, "amplitudes": amps}))
    assert main(["measures", omega_file, "--input", str(path)]) == 2


@pytest.mark.parametrize(
    "data",
    [
        {"d": 3},
        {"d": 3, "amplitudes": [["a", 0.0]] * 9},
        {"d": 3, "amplitudes": [[1.0]] * 9},
        {"d": 3, "amplitudes": 5},
        [1, 2],
        {"d": 3, "amplitudes": [["nan", 0.0]] + [[0.0, 0.0]] * 8},
        {"d": 3.9, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 8},
        {"d": "3", "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 8},
        {"d": True, "amplitudes": [[1.0, 0.0]]},
        {"d": 3, "amplitudes": [["1", 0.0]] + [[0.0, 0.0]] * 8},
        {"d": 3, "amplitudes": [[True, False]] + [[0.0, 0.0]] * 8},
        {"d": 3, "amplitudes": [[1.0, 0.0, 99]] + [[0.0, 0.0]] * 8},
    ],
)
def test_measures_malformed_state_file(omega_file, tmp_path, capsys, data):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    assert main(["measures", omega_file, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Error(" not in err, err


def test_certify_reference_point(capsys):
    assert main(["certify", "--d", "3", "--x", "0.5,0.9"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict_ceiling"] is True
    assert cert["verdict_advantage"] is True
    assert cert["verdict_negativity_advantage"] is True
    assert abs(cert["lambda_max_closed"] - 0.6866666666666666) < 1e-12


@pytest.mark.parametrize("x", ["0.5,0.500000001", "1e-9,2e-9"])
def test_certify_strict_points_where_the_ceiling_sides_cancel(x, capsys):
    # both meet the theorem's hypotheses, and the verdicts read the gap, which
    # keeps its sign where lambda_max and (1 + 2N)/d round to a tie or cross
    assert main(["certify", "--d", "3", "--x", x]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["gap"] > 0
    assert [cert[k] for k in ("verdict_ceiling", "verdict_advantage",
                              "verdict_negativity_advantage")] == [True] * 3


@pytest.mark.parametrize("x", ["0.999999999,0.999999998", "0.5,0.5000000000001",
                               "1e-200,2e-200"])
def test_certify_strict_points_read_exact_verdicts(x, capsys):
    # N(psi') - N(Phi+) is O((1 - x)^2) at the first, gap is 1e-26 at the
    # second and underflows to 0.0 at the third; each verdict reads an exact
    # predicate of x, so all three are true
    assert main(["certify", "--d", "3", "--x", x]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert [cert[k] for k in ("verdict_ceiling", "verdict_advantage",
                              "verdict_negativity_advantage")] == [True] * 3


def test_sweep_certifies_rows_with_tiny_spread(tmp_path, capsys):
    # distinctness is exact: only the point with x1 = x2 is skipped
    out = tmp_path / "grid.json"
    spec = {"d": 3, "axes": {"x1": {"start": 0.5, "stop": 0.5 + 1e-12, "steps": 3}},
            "fixed": {"x2": 0.5}, "output_path": str(out), "format": "json"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(spec))
    assert main(["sweep", str(spec_path)]) == 0
    rows = json.loads(out.read_text())
    assert [r["status"] for r in rows] == ["skipped", "ok", "ok"]
    assert all(r["verdict_negativity_advantage"] for r in rows[1:])


def test_certify_distinctness_violation(capsys):
    code = main(["certify", "--d", "3", "--x", "0.5,0.5"])
    assert code == 2
    assert "distinctness" in capsys.readouterr().err


def test_certify_wrong_x_length(capsys):
    assert main(["certify", "--d", "4", "--x", "0.5,0.9"]) == 2
    capsys.readouterr()
    # an empty item is an error, not a dropped component
    for x in ("0.5,,0.9", ",0.5,0.9", "0.5,0.9,"):
        assert main(["certify", "--d", "3", "--x", x]) == 2, x
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (x, err)
    # the dimension is checked before the length of x
    assert main(["certify", "--d", "-5", "--x", "0.5"]) == 2
    assert "dimension" in capsys.readouterr().err


def test_certify_negative_x_reaches_range_check(capsys):
    # argparse alone would read "-0.1,0.5" as an option and report that --x
    # has no argument
    for argv in (["--x", "-0.1,0.5"], ["--x=-0.1,0.5"], ["--x", "-.1,0.5"]):
        assert main(["certify", "--d", "3", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == "error: range violated: x_i must lie in [0, 1]\n", argv


def test_certify_rejects_non_finite_x(capsys):
    for x in ("0.5,nan", "inf,0.5"):
        assert main(["certify", "--d", "3", "--x", x]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: finiteness violated") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["measures", "channel.json"],
        ["certify", "--d", "3", "--x", "0.5,0.9"],
        ["sweep", "spec.json"],
    ],
)
def test_restarts_below_one_is_usage_error(argv, capsys):
    for value in ("0", "-3"):
        assert main([*argv, "--restarts", value]) == 2
        err = capsys.readouterr().err
        if argv[0] in ("certify", "sweep"):
            # neither command takes --restarts, so any value is refused
            assert f"error: unrecognized arguments: --restarts {value}" in err, err
        else:
            assert f"argument --restarts: must be >= 1, got {int(value)}" in err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_certify_d6(capsys):
    code = main(["certify", "--d", "6", "--x", "0.1,0.3,0.5,0.7,0.9"])
    assert code == 0


def test_sweep_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    spec = {
        "d": 3,
        "axes": {
            "x1": {"start": 0.1, "stop": 0.9, "steps": 9},
            "x2": {"start": 0.1, "stop": 0.9, "steps": 9},
        },
        "output_path": str(out),
        "format": "csv",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(spec))
    assert main(["sweep", str(spec_path)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 82  # header + 81 rows
    rows = [line.split(",") for line in lines[1:]]
    skipped = [r for r in rows if r[3] == "skipped"]
    ok = [r for r in rows if r[3] == "ok"]
    assert len(skipped) == 9
    assert len(ok) == 72
    header = lines[0].split(",")
    v_idx = header.index("verdict_ceiling")
    assert all(r[v_idx] == "true" for r in ok)


def test_sweep_single_point_matches_certify(tmp_path, capsys):
    out = tmp_path / "single.json"
    spec = {
        "d": 3,
        "axes": {"x1": {"start": 0.5, "stop": 0.5, "steps": 1}},
        "fixed": {"x2": 0.9},
        "output_path": str(out),
        "format": "json",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed(spec))
    assert main(["sweep", str(spec_path)]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert main(["certify", "--d", "3", "--x", "0.5,0.9"]) == 0
    cert = json.loads(capsys.readouterr().out)
    for key in ("gap", "fef_psi_prime", "negativity_psi_prime"):
        assert rows[0][key] == cert[key]
    assert rows[0]["lambda_max"] == cert["lambda_max_closed"]
    assert rows[0]["fstar_bound"] == cert["fstar_bound_phiplus"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_grid_with_no_strict_point(tmp_path, capsys, fmt):
    # x1 = 0 and x1 = 1 both leave the open interval, so no point is
    # certified: the table is the header and two skipped rows, whose
    # certificate cells are empty in CSV and null in JSON
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed({"d": 3, "axes": {"x1": {"start": 0.0, "stop": 1.0,
                                                              "steps": 2}},
                                      "fixed": {"x2": 0.5}}))
    out = tmp_path / f"grid.{fmt}"
    assert main(["sweep", str(spec_path), "--out", str(out), "--format", fmt]) == 0
    assert capsys.readouterr().out == f"rows: 2\nskipped: 2\nwritten: {out}\n"
    columns = _readme_sweep_columns(3)
    if fmt == "csv":
        expected = "".join(f"{line}\n" for line in (
            ",".join(columns), "3,0.0,0.5,skipped,,,,,,,,,", "3,1.0,0.5,skipped,,,,,,,,,"))
    else:
        expected = dumps_fixed([dict(zip(columns, [3, x1, 0.5, "skipped"]), **dict.fromkeys(
            columns[4:])) for x1 in (0.0, 1.0)])
    assert out.read_text() == expected


def _sweep_peak(tmp_path, capsys, fmt, steps):
    """The tracemalloc peak of a d = 3 sweep over a steps[0] x steps[1] grid."""
    axes = {f"x{i}": {"start": 0.0, "stop": 1.0, "steps": n} for i, n in zip((1, 2), steps)}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(dumps_fixed({"d": 3, "axes": axes}))
    argv = ["sweep", str(spec_path), "--out", str(tmp_path / f"grid.{fmt}"), "--format", fmt]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.splitlines()[0] == f"rows: {math.prod(steps)}"
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_memory_per_point(tmp_path, capsys, fmt):
    # the sweep holds one chunk and the grid's axes, never the table: a
    # 10^5-point grid peaks where a 10^4-point grid does, within the axes'
    # extra 7 KB and some slack, and far below 0.1 KB per point
    small = _sweep_peak(tmp_path, capsys, fmt, (100, 100))
    large = _sweep_peak(tmp_path, capsys, fmt, (1000, 100))
    assert large < 1.1 * small
    assert large < 100 * 10**5


def _write_rows(fmt, names, rows, block):
    """The text RowWriter writes for ``rows`` (dicts keyed by ``names``),
    handed over ``block`` rows at a time; a None cell is left out of its
    column's values and marked in its ``where`` mask."""
    fh = io.StringIO()
    writer = RowWriter(fh, names, fmt)
    for lo in range(0, len(rows), block):
        columns = []
        for name in names:
            cells = [row[name] for row in rows[lo:lo + block]]
            where = np.array([cell is not None for cell in cells])
            values = np.array([cell for cell in cells if cell is not None])
            columns.append(values if where.all() else (values, where))
        writer.write(columns)
    writer.close()
    return fh.getvalue()


@pytest.mark.parametrize("items", [
    [],
    [{"d": 3, "x1": 0.5, "status": "ok", "verdict": True}],
    [{"a": 1.0, "b": None}, {"a": -0.0, "b": False}, {"a": 2.5, "b": None}],
    [{"n": k, "x": x, "s": s, "v": v}
     for k, (x, s, v) in enumerate(zip([0.1, 1e22, 5.0, 1e-300, 123456789.0, 2.0 / 3.0],
                                       ["ok", "skipped", "a \"q\"", "ok", "b\\", "ok"],
                                       [True, None, False, None, True, False]))],
])
def test_dump_fixed_items_writes_dumps_fixed_bytes(items):
    # the sweep's JSON rows, written a block at a time from typed columns,
    # are the bytes dumps_fixed gives for the rows as a list of dicts
    names = list(items[0]) if items else ["d", "x1"]
    for block in (1, 2, 4):
        assert _write_rows("json", names, items, block) == dumps_fixed(items)


def test_format_reals_is_format_real():
    # the column formatter spells format_real's rule once more, for speed:
    # both give the same text on every kind of float
    values = [0.0, -0.0, 1.0, -3.0, 0.1, 2.0 / 3.0, 1e16, 1e17, 1e22, 123456789.0, 1e-300,
              5e-324, float("inf"), float("-inf"), float("nan")]
    values += np.random.default_rng(37).standard_normal(200).tolist()
    assert format_reals(values) == [format_real(v) for v in values]


README = os.path.join(os.path.dirname(REPO_SRC), "README.md")

CERTIFY_KEYS = [
    "d", "x", "lambda_max_closed", "lambda_max_numeric", "negativity_phiplus_closed",
    "negativity_phiplus_numeric", "fstar_bound_phiplus", "gap", "psi_prime",
    "psi_prime_schmidt_spread", "fef_psi_prime", "negativity_psi_prime", "verdict_ceiling",
    "verdict_advantage", "verdict_negativity_advantage",
]


def _readme_sweep_columns(d):
    """The README's sweep "Columns" list, with x1..x{d-1} written out for d."""
    with open(README) as fh:
        text = fh.read()
    listed = text[text.index("Columns:"):].split("`")[1]
    columns = []
    for name in " ".join(listed.split()).split(", "):
        columns += [f"x{i}" for i in range(1, d)] if name == "x1..x{d-1}" else [name]
    return columns


def test_certify_json_keys_pinned(capsys):
    assert main(["certify", "--d", "3", "--x", "0.5,0.9"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert list(cert) == CERTIFY_KEYS
    assert len(cert["psi_prime"]) == 9 and all(len(a) == 2 for a in cert["psi_prime"])


@pytest.mark.parametrize("d", [3, 5])
def test_sweep_csv_header_matches_readme(tmp_path, capsys, d):
    out = tmp_path / "grid.csv"
    spec = {
        "d": d,
        "axes": {"x1": {"start": 0.0, "stop": 0.9, "steps": 2}},
        "fixed": {f"x{i}": 0.1 * i for i in range(2, d)},
        "output_path": str(out),
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path)]) == 0
    capsys.readouterr()
    header, skipped, ok = out.read_text().splitlines()
    assert header.split(",") == _readme_sweep_columns(d)
    assert skipped.split(",")[d] == "skipped" and ok.split(",")[d] == "ok"


def _readme_cli_flags():
    """{subcommand: set of --flags} from the README's command-line block."""
    with open(README) as fh:
        text = fh.read()
    block = text[text.index("```sh\nquditshare validate"):]
    block = block[:block.index("```", 3)]
    flags = {}
    command = None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["quditshare"]:
            command = words[1]
            flags[command] = set()
        if command is not None and not line.lstrip().startswith("#"):
            flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def _subcommands():
    """{subcommand: its parser} from cli.build_parser()."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_readme_cli_synopsis_matches_parser():
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in _subcommands().items()
    }
    assert _readme_cli_flags() == parsed


def _assert_sweep_usage_error(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path)]) == 2, spec
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_sweep_empty_axes(tmp_path, capsys):
    axis = {"x1": {"start": 0.1, "stop": 0.9, "steps": 3}}
    for fields in (
        {"axes": {}},
        {"axes": ["x1"]},
        {"axes": {"x1": {"start": 0.5, "stop": 0.5, "steps": 1}}, "fixed": None},
        {"d": 2, "axes": axis},
        # "d" and "steps" must be JSON integers: no truncation, no "3", no true
        {"d": 3.7, "axes": axis, "fixed": {"x2": 0.5}},
        {"d": "3", "axes": axis, "fixed": {"x2": 0.5}},
        {"d": True, "axes": axis},
        {"axes": {"x1": {"start": 0.1, "stop": 0.9, "steps": 2.9}}, "fixed": {"x2": 0.5}},
        # and every start, stop and fixed value a JSON number: no "0.2", no true
        {"axes": {"x1": {"start": "0.2", "stop": 0.9, "steps": 2}}, "fixed": {"x2": 0.5}},
        {"axes": axis, "fixed": {"x2": True}},
        # a component swept and fixed at once
        {"axes": axis, "fixed": {"x1": 0.5, "x2": 0.7}},
    ):
        spec = {"d": 3, "output_path": str(tmp_path / "x.csv"), **fields}
        err = _assert_sweep_usage_error(tmp_path, capsys, spec)
        if fields.get("d") == 2:
            # the same message as certify --d 2
            assert err == "error: dimension violated: d must be an integer >= 3, got 2\n"
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rejects_out_of_range_grid(tmp_path, capsys):
    for axis, fixed in (
        ({"start": 0.5, "stop": 1.2, "steps": 4}, 0.9),
        ({"start": 0.5, "stop": float("nan"), "steps": 4}, 0.9),
        ({"start": float("-inf"), "stop": 0.5, "steps": 4}, 0.9),
        ({"start": 0.5, "stop": 0.5, "steps": 1}, "abc"),
        ({"start": 0.5, "stop": 0.5, "steps": 1}, float("nan")),
    ):
        spec = {
            "d": 3,
            "axes": {"x1": axis},
            "fixed": {"x2": fixed},
            "output_path": str(tmp_path / "x.csv"),
        }
        _assert_sweep_usage_error(tmp_path, capsys, spec)
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rejects_oversized_grid(tmp_path, capsys):
    axis = {"start": 0.1, "stop": 0.9, "steps": 10**9}
    _assert_sweep_usage_error(
        tmp_path, capsys, {"d": 3, "axes": {"x1": axis}, "fixed": {"x2": 0.5}})
    # two axes of 1001 points: each is small, the grid is above the cap
    axis = {"start": 0.1, "stop": 0.9, "steps": 1001}
    _assert_sweep_usage_error(tmp_path, capsys, {"d": 3, "axes": {"x1": axis, "x2": axis}})


def test_sweep_huge_dimension_fails_fast(tmp_path, capsys):
    spec = {"d": 10**7, "axes": {"x1": {"start": 0.1, "stop": 0.9, "steps": 3}}}
    _assert_sweep_usage_error(tmp_path, capsys, spec)
    # d is bounded before any component is looked at
    with pytest.raises(ParameterError) as info:
        parse_sweep_spec(spec)
    assert str(info.value).startswith("dimension violated: d must be at most")
    # at the bound the message names the first three missing components
    with pytest.raises(ParameterError) as info:
        parse_sweep_spec({**spec, "d": damping.MAX_DIMENSION})
    assert str(info.value) == "components ['x2', 'x3', 'x4'] and more neither swept nor fixed"


def test_dimension_above_bound_is_usage_error(tmp_path, capsys):
    # certify --d and a sweep spec's d one above MAX_DIMENSION exit 2 with
    # one line, before any array of size d is built
    d = damping.MAX_DIMENSION + 1
    message = (f"error: dimension violated: d must be at most MAX_DIMENSION = "
               f"{damping.MAX_DIMENSION}, got {d}\n")
    x = ",".join(["0.5"] * (d - 1))
    assert main(["certify", "--d", str(d), "--x", x]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)
    axes = {"x1": {"start": 0.1, "stop": 0.9, "steps": 3}}
    spec = {"d": d, "axes": axes, "fixed": {f"x{i}": 0.5 for i in range(2, d)},
            "output_path": str(tmp_path / "x.csv")}
    assert _assert_sweep_usage_error(tmp_path, capsys, spec) == message
    assert not (tmp_path / "x.csv").exists()


def test_sweep_unwritable_output(tmp_path, capsys):
    missing = str(tmp_path / "missing_dir" / "x.csv")
    for output_path in (missing, 1.5, 987654, ["x.csv"]):
        spec = {
            "d": 3,
            "axes": {"x1": {"start": 0.3, "stop": 0.3, "steps": 1}},
            "fixed": {"x2": 0.9},
            "output_path": output_path,
        }
        err = _assert_sweep_usage_error(tmp_path, capsys, spec)
        if output_path == missing:
            # the message names the output, not its temporary file
            assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_audit_passes(capsys):
    # the report holds exactly the checks that can fail, in report order,
    # with the Pauli check at d = 2 only
    names = ["trace_preservation", "local_unitary_covariance", "fef_ceiling"]
    for d, extra in ((3, []), (2, ["qubit_pauli_equality"])):
        assert main(["audit", "--d", str(d), "--n", "10", "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert list(report["checks"]) == names + extra


def test_audit_covariance_catches_a_kernel_on_the_wrong_factor(capsys, monkeypatch):
    # branch vectors (K_i (x) I)|psi> = vec(K_i M) in place of
    # (I (x) K_i)|psi>: the outputs keep unit trace, so the trace check
    # passes, but W on the kept side no longer commutes with the channel
    def first_factor(kraus, m):
        n, count, d, _ = kraus.shape
        return np.matmul(kraus, m[:, None]).reshape(n, count, d * d)

    monkeypatch.setattr(cli, "branch_vectors", first_factor)
    assert main(["audit", "--d", "3", "--n", "10", "--seed", "7"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["local_unitary_covariance"]["pass"] is False
    assert checks["trace_preservation"]["pass"] is True


def test_audit_names_the_worst_channel(capsys, monkeypatch):
    # channel 5's trace deviation is forced past its tolerance: the report
    # names it; every other check names the channel of its own maximum, and
    # an audit of the first worst_index + 1 channels replays that maximum
    built = cli._audit_chunk

    def faulty(d, seed, lo, hi):
        rho, devs, top = built(d, seed, lo, hi)
        if lo <= 5 < hi:
            devs[5 - lo, 0] = 1e-6
        return rho, devs, top

    argv = ["audit", "--d", "3", "--seed", "7"]
    monkeypatch.setattr(cli, "_audit_chunk", faulty)
    assert main([*argv, "--n", "9"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["checks"]["trace_preservation"] == {
        "max_violation": 1e-6, "worst_index": 5, "tolerance": 1e-12, "pass": False}
    monkeypatch.setattr(cli, "_audit_chunk", built)
    for name, check in report["checks"].items():
        if name == "trace_preservation":
            continue
        assert main([*argv, "--n", str(check["worst_index"] + 1)]) == 0
        replay = json.loads(capsys.readouterr().out)["checks"][name]
        assert replay == check


@pytest.mark.parametrize("d, n", [(2, 130), (3, 150), (6, 30)])
def test_audit_report_does_not_depend_on_chunking(monkeypatch, d, n):
    # the same bytes from 2-channel batches, from 7-channel batches (the last
    # one partial, as no n here is a multiple of 7), from the default size
    # (a batch boundary at d = 6) and from one batch holding every channel;
    # at d = 2 the Pauli column is built per batch too
    matrix = 16 * d**4
    reports = []
    for size, batch in [(4 * matrix, 2), (14 * matrix, 7), (cli.CHUNK_BYTES, None),
                        (64 * cli.CHUNK_BYTES, None)]:
        monkeypatch.setattr(cli, "CHUNK_BYTES", size)
        if batch:
            assert cli._fef_batch_size(d) == batch
        reports.append(dumps_fixed(cli.run_audit(d, n, 5)))
    assert cli._fef_batch_size(d) >= n
    assert reports[1:] == reports[:1] * 3


@pytest.mark.parametrize("d", [2, 3, 6])
def test_audit_gram_lambda_max_is_each_channels_own(d):
    # a chunk takes each output's lambda_max from the K x K Gram matrix of
    # its vectors (I (x) K_i)|psi>: it agrees with the d^2 x d^2 eigensolve
    # of the output within rounding, and, as every Kraus list is padded to
    # d operators, it is the channel's own bits in any chunk
    n = 30
    rho, _, top = cli._audit_chunk(d, 4, 0, n)
    assert np.abs(top - np.linalg.eigvalsh(rho)[:, -1]).max() < 1e-14
    alone = [cli._audit_chunk(d, 4, i, i + 1)[2][0] for i in range(n)]
    assert top.tolist() == alone


def test_audit_checks_each_channel_completeness(capsys, monkeypatch):
    # every drawn channel passes the completeness check; below a zero
    # tolerance none does, and the audit stops as on a malformed channel file
    monkeypatch.setattr(channels, "COMPLETENESS_TOL", -1.0)
    assert main(["audit", "--d", "3", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_audit_qubit_includes_pauli_check(capsys):
    assert main(["audit", "--d", "2", "--n", "10", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "qubit_pauli_equality" in report["checks"]
    assert report["checks"]["qubit_pauli_equality"]["pass"] is True


def test_audit_usage_errors(capsys):
    for argv in (["--d", "3", "--n", "0"], ["--d", "9", "--n", "5"],
                 ["--d", "3", "--n", "2", "--seed", "-1"]):
        assert main(["audit", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["certify", "--x", "0.5,0.9"], "the following arguments are required: --d"),
        (["validate", "ch.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["audit", "--d", "3", "--n", "two"], "argument --n: invalid int value: 'two'"),
        (["measures", "ch.json", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["sweep", "SPEC", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        # refused before the file is opened, so before either FEF path runs:
        # an open bracket sent the seed to default_rng (a traceback, exit 1),
        # a closed one never read it (exit 0)
        (["measures", "ch.json", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
    ],
)
def test_usage_errors_print_one_line(tmp_path, capsys, argv, message):
    # argparse's own route printed a usage block before its error line; the
    # sweep spec is valid, so a refused --seed must leave its output unwritten
    out = tmp_path / "grid.csv"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"d": 3, "axes": {"x1": {"start": 0.2, "stop": 0.4, "steps": 2}},
                                "fixed": {"x2": 0.9}, "output_path": str(out)}))
    assert main([str(spec) if a == "SPEC" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


def test_help_exits_0(capsys):
    for argv in (["--help"], ["audit", "--help"]):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: quditshare")


def test_every_integer_flag_is_bounded():
    # an unbounded integer flag let `--seed -1` reach numpy's default_rng and
    # leave with a traceback; certify's --d is range-checked by DampingParams
    unbounded = [
        (name, opt) for name, sub in _subcommands().items() for action in sub._actions
        if action.type is int and action.choices is None for opt in action.option_strings
    ]
    assert unbounded == [("certify", "--d")]


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_certify_subprocess_byte_identical(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (out1, out2):
        res = _run_cli(["certify", "--d", "4", "--x", "0.3,0.6,0.9", "--out", str(out)])
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--d", "3", "--x", "0.5,0.9", "--seed", "1"],
        ["certify", "--d", "3", "--x", "0.5,0.9", "--restarts", "4"],
        ["sweep", "spec.json", "--restarts", "4"],
        ["audit", "--d", "3", "--n", "2", "--restarts", "4"],
    ],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    # certify and audit run no seeded step, and sweep keeps only --seed
    # (accepted, unused)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in err, err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_sweep_subprocess_byte_identical(tmp_path):
    spec = {
        "d": 3,
        "axes": {
            "x1": {"start": 0.2, "stop": 0.8, "steps": 3},
            "x2": {"start": 0.2, "stop": 0.8, "steps": 3},
        },
        "output_path": None,
        "format": "csv",
    }
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"grid_{tag}.csv"
        spec["output_path"] = str(out)
        spec_path = tmp_path / f"spec_{tag}.json"
        spec_path.write_text(dumps_fixed(spec))
        res = _run_cli(["sweep", str(spec_path), "--seed", "5"])
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_audit_subprocess_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    for out in (out1, out2):
        res = _run_cli(
            ["audit", "--d", "2", "--n", "6", "--seed", "9", "--out", str(out)]
        )
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_import_loads_no_scipy():
    # loading the CLI is part of every command's start-up; scipy.optimize
    # alone takes about 0.7 s to import, more than the whole CLI start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, quditshare.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_shared_kernels_have_one_spelling():
    # A (x) I, <v|rho|v> and tr_B are written once, in states: no module
    # spells them with np.kron, np.vdot or its own tr_B einsum
    sources = {path.name: path.read_text()
               for path in sorted(pathlib.Path(REPO_SRC, "quditshare").glob("*.py"))}
    assert "states.py" in sources
    for name, text in sources.items():
        assert "np.kron" not in text, name
        assert "np.vdot" not in text, name
        if name != "states.py":
            assert '"ijkj->ik"' not in text, name
    assert '"ijkj->ik"' in sources["states.py"]
