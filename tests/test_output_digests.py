"""The byte contract: the same flags and seed give the same output bytes.

Pins the sha256 of a few `measures`, `audit`, `certify` and `sweep` outputs,
so a change that moves any byte of them, even in the 17th digit, fails here
and has to record the new digest and say why. The `sweep` case is a small
d = 4 grid with one component fixed and one skipped point, the form of the
benchmark's certify workload, pinned as CSV and as JSON. The `measures` cases
cover `--input phiplus`, `psi_prime` and a state file at d = 3 and 4, and both FEF
paths: the identity's bracket closed (`fef_certified` true) and open (seeded
restarts ran). One more report's bracket only the polish closes, and it is
pinned at 8 and 32 starts and two seeds, which must not move it, as no seeded
start runs once the bracket is closed. One more covers `--input phiplus` at
d = 2, where the FEF is the magic-basis eigensolve.
The `audit` cases are d = 3 at the default seed, d = 2 with its Pauli check,
and d = 6 at 53 channels, which run in several chunks, so the stacked
per-chunk path has to give the per-channel bytes. Recorded with
numpy 2.4 on x86-64 Linux, on OpenBLAS's `SkylakeX` kernel; another LAPACK
build or kernel may round differently and move the digests without any
change to this package.
"""

import hashlib
import json

import numpy as np
import pytest

from quditshare import cli, max_entangled, random_channel, random_pure_state, save_channel
from quditshare.jsonio import dumps_fixed

# (d, input, fef_certified, sha256 of the report)
MEASURES = [
    (2, "phiplus", True, "98a7283f9dde9de3196f939ef2c02f9243cde46c62deac6470a7709d873181bc"),
    (3, "phiplus", False, "d008faa5bab45a464cb6814438cc807a0ebc543e68fb39d40e97a11ae7f7d788"),
    (3, "state", True, "4bcb1f6b2242e63baeb22f39c791d11fc833481c08397b3d075834064782aa08"),
    (4, "phiplus", True, "fde7c2655d1f6c029d459be8fb85eecb3e4b47730d7e2d0b23c56da614c71659"),
    (4, "state", False, "7cdc73d7fdee52fa77f0ea10b5946757b726567fafa9ae622b9d4858efaec4d7"),
]
# (d, sha256) of the psi_prime report on case CASE_SEED[d]: the input is the
# dual Choi state's top eigenvector, read off the channel's Choi state, and
# no FEF ascent runs
PSI_PRIME = [
    (3, "5a9a281c6c9c56907b39deaf8c31176678baf61ad9c96e028194f65cecf013e2"),
    (4, "f4fd7052c356ebc8f4c658ef0ce77c0b842c6fcfe7bd863195b3bcca5b9c0a2b"),
]
# the case seed per d: at d = 3 the state file's bracket closes, at d = 4
# the phiplus bracket closes and the state file's stays open; at d = 2 the
# FEF is exact
CASE_SEED = {2: 0, 3: 0, 4: 1}
# the d = 3 phiplus report is pinned on a case of its own, whose bracket
# stays open: case 0's closes
OPEN_PHIPLUS_CASE = 105
# (d, case seed, sha256) of a phiplus report whose bracket the least-squares
# dual point leaves open and the polish from it closes: no seeded start runs,
# so the report is the same at every --restarts and --seed
POLISHED = (4, 4, "08d79ba15346029c2b51f24d02d551cb49223e46a2086be7aac8dbe06422064b")
AUDIT_SHA256 = "61d27c9240858b14e44d1ce1d8b1ce4331b57091c65ac51a1424722355717be5"
# (d, --n, --seed, sha256) of more audit reports: the qubit Pauli check, and
# a run across chunk and FEF batch boundaries
AUDIT_MORE = [
    (2, 12, 3, "635fa8bbe6a6614d592fce1875ca975fc3ee0c454cd8f1742c75d67a1d1ef856"),
    (6, 53, 11, "3aec5fc909eae35f696fa0972256a3b642bee0ea630dbe1569f28c907fb8ca7b"),
]
# "gap" is the O(d) pair sum of (x_i - x_j)^2, 0.53999999999999981 here,
# two ulps below the exact 0.54: the closed forms sum in numpy, not a BLAS
# dot, so these bits do not depend on the OpenBLAS kernel
CERTIFY_SHA256 = "3137d82f8e81fcc3f2d1960ed117848ebb6bc893a3a8a0ae0a2010f8a5dc0b8b"
SWEEP_SPEC = {"d": 4, "axes": {"x1": {"start": 0.1, "stop": 0.9, "steps": 5},
                               "x3": {"start": 0.3, "stop": 0.7, "steps": 3}},
              "fixed": {"x2": 0.5}}
SWEEP_SHA256 = "051dd77c8d3f0e4f426683c86570af8f8084e1ef8bace5f174bb1d587dbc7829"
# the same grid as `sweep --format json`: its verdict cells are JSON booleans
# and a skipped row's cells null
SWEEP_JSON_SHA256 = "432c5c8395dca81fd104b13ca4720132413e1a70714f65c5cd352f07bb05f8e3"


def _run(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0, argv
    data = out.read_bytes()
    return data, hashlib.sha256(data).hexdigest()


def _measures(tmp_path, d, case_seed, which, *flags):
    """(fef_certified, sha256) of the measures report on case ``case_seed``."""
    rng = np.random.default_rng([d, case_seed])
    ch = random_channel(d, d, rng)
    psi = random_pure_state(d, rng) if which == "state" else max_entangled(d)
    channel = tmp_path / "channel.json"
    save_channel(ch, channel)
    state = tmp_path / "state.json"
    pairs = [[float(a.real), float(a.imag)] for a in psi.amplitudes]
    state.write_text(dumps_fixed({"d": d, "amplitudes": pairs}))
    argv = ["measures", str(channel), "--input", str(state) if which == "state" else which,
            *flags]
    data, got = _run(argv, tmp_path / "report.json")
    return json.loads(data)["fef_certified"], got


@pytest.mark.parametrize("d, which, certified, digest", MEASURES)
def test_measures_digest(tmp_path, d, which, certified, digest):
    case_seed = OPEN_PHIPLUS_CASE if (d, which) == (3, "phiplus") else CASE_SEED[d]
    assert _measures(tmp_path, d, case_seed, which) == (certified, digest)


@pytest.mark.parametrize("d, digest", PSI_PRIME)
def test_measures_psi_prime_digest(tmp_path, d, digest):
    assert _measures(tmp_path, d, CASE_SEED[d], "psi_prime") == (True, digest)


def test_measures_polished_digest_does_not_depend_on_restarts_or_seed(tmp_path):
    d, case_seed, digest = POLISHED
    for restarts in ("8", "32"):
        for seed in ("0", "5"):
            flags = ["--restarts", restarts, "--seed", seed]
            assert _measures(tmp_path, d, case_seed, "phiplus", *flags) == (True, digest), flags


def test_audit_digest(tmp_path):
    assert _run(["audit", "--d", "3", "--n", "20"], tmp_path / "audit.json")[1] == AUDIT_SHA256


@pytest.mark.parametrize("d, n, seed, digest", AUDIT_MORE)
def test_audit_more_digests(tmp_path, d, n, seed, digest):
    argv = ["audit", "--d", str(d), "--n", str(n), "--seed", str(seed)]
    assert _run(argv, tmp_path / "audit.json")[1] == digest


def test_certify_digest(tmp_path):
    argv = ["certify", "--d", "4", "--x", "0.2,0.5,0.8"]
    assert _run(argv, tmp_path / "cert.json")[1] == CERTIFY_SHA256


def test_sweep_digest(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(dumps_fixed(SWEEP_SPEC))
    assert _run(["sweep", str(spec)], tmp_path / "grid.csv")[1] == SWEEP_SHA256


def test_sweep_json_digest(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(dumps_fixed(SWEEP_SPEC))
    argv = ["sweep", str(spec), "--format", "json"]
    assert _run(argv, tmp_path / "grid.json")[1] == SWEEP_JSON_SHA256
