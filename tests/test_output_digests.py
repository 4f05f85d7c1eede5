"""The byte contract: the same flags and seed give the same output bytes.

Pins the sha256 of a few `measures`, `audit` and `certify` outputs, so a
change that moves any byte of them, even in the 17th digit, fails here and
has to record the new digest and say why. The `measures` cases cover
`--input phiplus` and a state file at d = 3 and 4, and both FEF paths: the
identity's bracket closed (`fef_certified` true) and open (seeded restarts
ran), and one report at 8 starts, where no dual polish runs. Recorded with
numpy 2.4 on x86-64 Linux; another LAPACK build may round differently and
move the digests without any change to this package.
"""

import hashlib
import json

import numpy as np
import pytest

from quditshare import cli, max_entangled, random_channel, random_pure_state, save_channel
from quditshare.jsonio import dumps_fixed

# (d, input, fef_certified, sha256 of the report)
MEASURES = [
    (3, "phiplus", False, "86b2cb95548b9866ecd0a467724b98add05f069b047af04915093276830e1927"),
    (3, "state", True, "5d067b28ee34bc9501da8e37613ecb0e5a377296f6b76f83bf6b5a1f5b397aeb"),
    (4, "phiplus", True, "bd077de15042a37b324be94d9ffef1f85250eaa38f02c0b5a11fcbe745ead83b"),
    (4, "state", False, "974cebc91b3e58153006cb6680733c32b6021ae767692b377534741164a7b8d3"),
]
# the case seed per d: at d = 3 the phiplus bracket stays open and the state
# file's closes, at d = 4 the other way round
CASE_SEED = {3: 0, 4: 1}
# (d, case seed, --restarts, sha256) of a phiplus report whose ascent tries
# the least-squares dual point alone (restarts - 1 < d^2): it leaves the
# bracket open, which the default 32 starts' polish closes, so the seeded
# starts run
LEAST_SQUARES_ONLY = (4, 4, 8, "7fd42d9eac573f712f4068057ca58341b15146e3fd9a38c80900ebb5d04153cb")
AUDIT_SHA256 = "d901b4c959a8c1f49b60e6a57d42a295abaf10f7bf010775a5b72c21fa29c3fb"
CERTIFY_SHA256 = "8a7c09565a7a15018485b7acf4e312a5c3983b1416c41a48012c5ee8a9effddc"


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
    argv = ["measures", str(channel), "--input", "phiplus" if which == "phiplus" else str(state),
            *flags]
    data, got = _run(argv, tmp_path / "report.json")
    return json.loads(data)["fef_certified"], got


@pytest.mark.parametrize("d, which, certified, digest", MEASURES)
def test_measures_digest(tmp_path, d, which, certified, digest):
    assert _measures(tmp_path, d, CASE_SEED[d], which) == (certified, digest)


def test_measures_least_squares_only_digest(tmp_path):
    d, case_seed, restarts, digest = LEAST_SQUARES_ONLY
    assert _measures(tmp_path, d, case_seed, "phiplus")[0] is True
    assert _measures(tmp_path, d, case_seed, "phiplus", "--restarts", str(restarts)) == (
        False, digest)


def test_audit_digest(tmp_path):
    assert _run(["audit", "--d", "3", "--n", "20"], tmp_path / "audit.json")[1] == AUDIT_SHA256


def test_certify_digest(tmp_path):
    argv = ["certify", "--d", "4", "--x", "0.2,0.5,0.8"]
    assert _run(argv, tmp_path / "cert.json")[1] == CERTIFY_SHA256
