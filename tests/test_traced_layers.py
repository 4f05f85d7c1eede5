"""Every layer the benchmark's tracer times stays bound in the package.

perfbench/tracer.py patches the functions named in its LAYERS table and
records a name it cannot find as absent; a renamed or deleted function would
then drop out of the per-layer metrics silently. This test fails instead.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

run._load_package()

import tracer  # noqa: E402


def test_no_traced_layer_is_absent():
    tr = tracer.Tracer()
    tr.install()
    tr.remove()
    assert tr.absent == []
