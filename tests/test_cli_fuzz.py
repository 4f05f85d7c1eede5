"""Fuzz the CLI error contract: malformed channel, state and sweep-spec files.

Each example starts from a well-formed input file and replaces or deletes one
or two of its nodes with junk. Whatever the file holds, ``main`` must return
an exit code in {0, 1, 2} without raising, and exit 2 must come with exactly
one ``error:`` line on stderr.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quditshare import DampingParams, channel_to_dict, damping_channel, kraus_validate
from quditshare.cli import main

# Small integers only: a junk value may land on a sweep's "d" or "steps",
# and a large one there would allocate a large grid.
JUNK = [
    float("nan"),
    float("inf"),
    float("-inf"),
    "nan",
    "inf",
    "abc",
    "",
    None,
    -1,
    0,
    0.5,
    1.5,
    [],
    [0.5],
    {},
]
DELETE = object()

FUZZ = settings(derandomize=True, deadline=None, max_examples=200)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _set(doc, path, value):
    if not path:
        return None if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(draw(base))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _set(doc, path, draw(st.sampled_from([*JUNK, DELETE])))
    return doc


def _damping_doc(d):
    return channel_to_dict(damping_channel(DampingParams(d, np.linspace(0.3, 0.8, d - 1))))


channels = st.one_of(
    st.builds(lambda d: channel_to_dict(kraus_validate([np.eye(d)])), st.integers(2, 4)),
    st.builds(_damping_doc, st.integers(3, 4)),
)

states = st.just({"d": 3, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 8})


@st.composite
def sweep_specs(draw):
    d = draw(st.integers(2, 4))
    axes, fixed = {}, {}
    for i in range(1, d):
        if i == 1 or draw(st.booleans()):
            axes[f"x{i}"] = {"start": 0.2, "stop": 0.8, "steps": draw(st.integers(1, 3))}
        else:
            fixed[f"x{i}"] = 0.1 * i
    return {"d": d, "axes": axes, "fixed": fixed, "output_path": "grid.csv",
            "format": draw(st.sampled_from(["csv", "json"]))}


def _assert_contract(argv, files):
    """Write ``files`` into a fresh directory and run ``main(argv)`` there."""
    old_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in files.items():
                with open(name, "w") as fh:
                    json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(old_cwd)
    stderr = err.getvalue()
    assert code in (0, 1, 2), (code, files)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (stderr, files)


@FUZZ
@given(mutated(channels), st.sampled_from(["validate", "measures"]))
def test_fuzz_channel_file(doc, command):
    argv = [command, "ch.json"] + (["--restarts", "1"] if command == "measures" else [])
    _assert_contract(argv, {"ch.json": doc})


@FUZZ
@given(mutated(states))
def test_fuzz_state_file(doc):
    argv = ["measures", "ch.json", "--input", "state.json", "--restarts", "1"]
    _assert_contract(argv, {"ch.json": _damping_doc(3), "state.json": doc})


@FUZZ
@given(mutated(sweep_specs()))
def test_fuzz_sweep_spec(doc):
    _assert_contract(["sweep", "spec.json"], {"spec.json": doc})
