"""Command-line surface: exit codes, report schemas, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quditshare import (
    DampingParams,
    ParameterError,
    damping_channel,
    kraus_validate,
    save_channel,
)
from quditshare.cli import main, parse_sweep_spec
from quditshare.jsonio import dumps_fixed

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


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    # "d" must be a JSON integer: no truncation of 2.9, no "2", no true
    for text in ["{not json"] + [json.dumps({"d": d, "kraus": [eye]}) for d in (2.9, "2", True)]:
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
        capsys.readouterr()


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
    # NaN makes the completeness residual NaN, which no tolerance check rejects
    path = tmp_path / "ch.json"
    path.write_text(json.dumps({"d": 2, "kraus": [[[[bad, 0], [0, 0]], [[0, 0], [1, 0]]]]}))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Kraus operator has a non-finite entry\n"


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
        "negativity",
        "fstar_upper_bound",
        "lambda_max_choi",
    ]


def test_measures_psi_prime(omega_file, capsys):
    assert main(["measures", omega_file, "--input", "psi_prime", "--restarts", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["fef_value"] - 0.6866666666666666) < 1e-6


def test_measures_identity(identity_file, capsys):
    assert main(["measures", identity_file, "--restarts", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["phiplus_fidelity"] - 1.0) < 1e-10
    assert abs(report["fef_value"] - 1.0) < 1e-10
    assert abs(report["negativity"] - 1.0) < 1e-10


def test_measures_state_file(omega_file, tmp_path, capsys):
    amps = [[0.0, 0.0]] * 9
    amps[0] = [1.0, 0.0]
    path = tmp_path / "state.json"
    path.write_text(dumps_fixed({"d": 3, "amplitudes": amps}))
    assert main(["measures", omega_file, "--input", str(path), "--restarts", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["negativity"] < 1e-10


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
    ],
)
def test_measures_malformed_state_file(omega_file, tmp_path, capsys, data):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(data))
    assert main(["measures", omega_file, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_certify_reference_point(capsys):
    assert main(["certify", "--d", "3", "--x", "0.5,0.9", "--restarts", "8"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict_ceiling"] is True
    assert cert["verdict_advantage"] is True
    assert cert["verdict_negativity_advantage"] is True
    assert abs(cert["lambda_max_closed"] - 0.6866666666666666) < 1e-12


def test_certify_distinctness_violation(capsys):
    code = main(["certify", "--d", "3", "--x", "0.5,0.5"])
    assert code == 2
    assert "distinctness" in capsys.readouterr().err


def test_certify_wrong_x_length(capsys):
    assert main(["certify", "--d", "4", "--x", "0.5,0.9"]) == 2


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
        ["audit", "--d", "3", "--n", "2"],
    ],
)
def test_restarts_below_one_is_usage_error(argv, capsys):
    for value in ("0", "-3"):
        assert main([*argv, "--restarts", value]) == 2
        err = capsys.readouterr().err
        assert f"argument --restarts: must be >= 1, got {int(value)}" in err
        assert "Traceback" not in err


def test_certify_d6(capsys):
    code = main(["certify", "--d", "6", "--x", "0.1,0.3,0.5,0.7,0.9", "--restarts", "4"])
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
    assert main(["sweep", str(spec_path), "--restarts", "4"]) == 0
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
    assert main(["sweep", str(spec_path), "--restarts", "8"]) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert main(["certify", "--d", "3", "--x", "0.5,0.9", "--restarts", "8"]) == 0
    cert = json.loads(capsys.readouterr().out)
    for key in ("gap", "fef_psi_prime", "negativity_psi_prime"):
        assert rows[0][key] == cert[key]
    assert rows[0]["lambda_max"] == cert["lambda_max_closed"]
    assert rows[0]["fstar_bound"] == cert["fstar_bound_phiplus"]


def _assert_sweep_usage_error(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["sweep", str(spec_path), "--restarts", "2"]) == 2, spec
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
    # an eager scan would list ~10^7 missing names
    with pytest.raises(ParameterError) as info:
        parse_sweep_spec(spec)
    assert str(info.value) == "components ['x2', 'x3', 'x4'] and more neither swept nor fixed"


def test_sweep_unwritable_output(tmp_path, capsys):
    for output_path in (str(tmp_path / "missing_dir" / "x.csv"), 1.5, 987654, ["x.csv"]):
        spec = {
            "d": 3,
            "axes": {"x1": {"start": 0.3, "stop": 0.3, "steps": 1}},
            "fixed": {"x2": 0.9},
            "output_path": output_path,
        }
        _assert_sweep_usage_error(tmp_path, capsys, spec)


def test_audit_passes(capsys):
    assert main(["audit", "--d", "3", "--n", "10", "--seed", "7", "--restarts", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["checks"]["dual_primal_lambda_max"]["max_violation"] < 1e-9


def test_audit_qubit_includes_pauli_check(capsys):
    assert main(["audit", "--d", "2", "--n", "10", "--seed", "3", "--restarts", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "qubit_pauli_equality" in report["checks"]
    assert report["checks"]["qubit_pauli_equality"]["pass"] is True


def test_audit_usage_errors(capsys):
    assert main(["audit", "--d", "3", "--n", "0"]) == 2
    assert main(["audit", "--d", "9", "--n", "5"]) == 2


def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_certify_subprocess_byte_identical(tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (out1, out2):
        res = _run_cli(
            ["certify", "--d", "4", "--x", "0.3,0.6,0.9", "--seed", "11",
             "--restarts", "6", "--out", str(out)]
        )
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_certify_ignores_seed_and_restarts(capsys):
    outputs = []
    for seed, restarts in (("0", "1"), ("9", "32")):
        argv = ["certify", "--d", "3", "--x", "0.5,0.9", "--seed", seed, "--restarts", restarts]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
        res = _run_cli(["sweep", str(spec_path), "--restarts", "4", "--seed", "5"])
        assert res.returncode == 0, res.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_audit_subprocess_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    for out in (out1, out2):
        res = _run_cli(
            ["audit", "--d", "2", "--n", "6", "--seed", "9", "--restarts", "4",
             "--out", str(out)]
        )
        assert res.returncode == 0, res.stderr
    assert out1.read_bytes() == out2.read_bytes()
