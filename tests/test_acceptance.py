"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; nothing is deferred.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import closed_form_row, pt_spectrum_oracle, random_strict_params
from quditshare import (
    DampingParams,
    DensityOperator,
    PureBipartiteState,
    apply_one_sided,
    damping_channel,
    dual,
    fef,
    fidelity_with,
    fstar_upper_bound,
    kraus_validate,
    max_entangled,
    negativity,
    partial_transpose,
    random_channel,
    schmidt,
    top_choi_eigenpair,
)
from quditshare.channels import complex_gaussian, haar_from_gaussian
from quditshare.cli import main
from quditshare.jsonio import dumps_fixed

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SAMPLES_PER_D = 1000
DIMS = (3, 4, 5, 6)


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def strict_samples():
    """1000 strict parameter points per dimension, shared by criteria 1-3."""
    rng = np.random.default_rng(90210)
    return {d: [random_strict_params(d, rng) for _ in range(SAMPLES_PER_D)] for d in DIMS}


@pytest.fixture(scope="module")
def choi_cache(strict_samples):
    """Choi matrices for the shared samples (built once, used by criteria 1-2)."""
    cache = {}
    for d in DIMS:
        cache[d] = [
            apply_one_sided(damping_channel(p), max_entangled(d))
            for p in strict_samples[d]
        ]
    return cache


def test_criterion_01_lambda_max_closed_vs_eigensolve(strict_samples, choi_cache):
    t0 = time.monotonic()
    worst = 0.0
    for d in DIMS:
        for p, rho in zip(strict_samples[d], choi_cache[d]):
            lam = float(np.linalg.eigvalsh(rho.matrix)[-1])
            worst = max(worst, abs(lam - closed_form_row(p)["lambda_max_closed"]))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 1: closed-form vs numeric lambda_max (< 1e-10, < 60 s)",
        worst < 1e-10 and elapsed < 60.0,
        f"max dev {worst:.2e}, {elapsed:.1f} s over {len(DIMS) * SAMPLES_PER_D} samples",
    )


def test_criterion_02_negativity_and_pt_spectrum(strict_samples, choi_cache):
    worst_neg = 0.0
    worst_spec = 0.0
    for d in DIMS:
        for p, rho in zip(strict_samples[d], choi_cache[d]):
            closed = closed_form_row(p)["negativity_phiplus_closed"]
            worst_neg = max(worst_neg, abs(negativity(rho) - closed))
            numeric = np.sort(np.linalg.eigvalsh(partial_transpose(rho)))
            worst_spec = max(worst_spec, np.abs(numeric - pt_spectrum_oracle(p)).max())
    _report(
        "criterion 2: closed-form vs numeric negativity and PT spectrum (< 1e-10)",
        worst_neg < 1e-10 and worst_spec < 1e-10,
        f"negativity dev {worst_neg:.2e}, spectrum dev {worst_spec:.2e}",
    )


def test_criterion_03_strict_ceiling_inequality(strict_samples):
    ok = True
    min_margin = np.inf
    for d in DIMS:
        for p in strict_samples[d]:
            row = closed_form_row(p)
            lam = row["lambda_max_closed"]
            bound = (1.0 + 2.0 * row["negativity_phiplus_closed"]) / d
            margin = lam - bound
            min_margin = min(min_margin, margin)
            ok = ok and margin > 0.0
    boundary_ok = True
    for d in DIMS:
        gap = abs(closed_form_row(DampingParams(d, [0.6] * (d - 1)))["gap"])
        boundary_ok = boundary_ok and gap < 1e-12
    ref = closed_form_row(DampingParams(3, [0.5, 0.9]))
    ref_ok = (
        abs(ref["lambda_max_closed"] - 0.6866666666666666) < 1e-10
        and abs((1 + 2 * ref["negativity_phiplus_closed"]) / 3 - 0.6688888888888889) < 1e-10
        and abs(ref["gap"] - 0.16) < 1e-12
    )
    _report(
        "criterion 3: lambda_max strictly above the (1+2N)/d ceiling; zero gap at the "
        "all-equal boundary",
        ok and boundary_ok and ref_ok,
        f"min strict margin {min_margin:.2e}",
    )


def test_criterion_04_best_input_fef_equals_lambda_max():
    rng = np.random.default_rng(41004)
    worst = 0.0
    min_spread = np.inf
    for d in (3, 4, 5):
        for _ in range(100):
            p = random_strict_params(d, rng)
            ch = damping_channel(p)
            top = top_choi_eigenpair(dual(ch))
            spread = schmidt(top.state).spread
            min_spread = min(min_spread, spread)
            val = fef(apply_one_sided(ch, top.state), restarts=4).value
            worst = max(worst, abs(val - closed_form_row(p)["lambda_max_closed"]))
    _report(
        "criterion 4: FEF of the best-input output equals lambda_max (< 1e-6), "
        "best input never maximally entangled (spread > 1e-8)",
        worst < 1e-6 and min_spread > 1e-8,
        f"max dev {worst:.2e}, min Schmidt spread {min_spread:.2e}",
    )


def test_criterion_05_certify_exits_zero(capsys):
    rng = np.random.default_rng(51005)
    failures = 0
    total = 0
    for d in (3, 4, 5, 6):
        for _ in range(50):
            p = random_strict_params(d, rng)
            xs = ",".join(repr(float(v)) for v in p.x)
            code = main(["certify", "--d", str(d), "--x", xs])
            total += 1
            failures += code != 0
    capsys.readouterr()
    _report(
        "criterion 5: certify exits 0 on random strict parameter points",
        failures == 0,
        f"{total - failures}/{total} runs returned 0",
    )


def test_criterion_06_negativity_advantage_of_best_input():
    rng = np.random.default_rng(61006)
    min_margin = np.inf
    ok = True
    for d in (3, 4, 5):
        for _ in range(100):
            p = random_strict_params(d, rng)
            ch = damping_channel(p)
            psi = top_choi_eigenpair(dual(ch)).state
            closed = closed_form_row(p)["negativity_phiplus_closed"]
            margin = negativity(apply_one_sided(ch, psi)) - closed
            min_margin = min(min_margin, margin)
            ok = ok and margin > 0.0
    _report(
        "criterion 6: best-input output strictly more negative than the "
        "maximally-entangled-input output",
        ok,
        f"min margin {min_margin:.2e}",
    )


def test_criterion_07_dual_primal_lambda_max_identity():
    rng = np.random.default_rng(71007)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for i in range(100):
            k = int(rng.integers(2, d + 1))
            ch = random_channel(d, k, rng)
            a = top_choi_eigenpair(ch).value
            b = top_choi_eigenpair(dual(ch)).value
            worst = max(worst, abs(a - b))
    _report(
        "criterion 7: dual/primal largest Choi eigenvalue identity (< 1e-9)",
        worst < 1e-9,
        f"max dev {worst:.2e} over 400 random channels",
    )


def test_criterion_08_qubit_formula_consistency():
    rng = np.random.default_rng(81008)
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    worst_pauli = 0.0
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        j = int(np.argmax(w))
        w = 0.5 * w
        w[j] += 0.5
        ch = kraus_validate([np.sqrt(q) * s for q, s in zip(w, paulis)])
        rho = apply_one_sided(ch, max_entangled(2))
        lam = float(np.linalg.eigvalsh(rho.matrix)[-1])
        assert lam >= 0.5
        worst_pauli = max(worst_pauli, abs(lam - (1 + 2 * negativity(rho)) / 2))
    ad = kraus_validate(
        [
            np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex),
            np.array([[0.0, 0.6], [0.0, 0.0]], dtype=complex),
        ]
    )
    rho_ad = apply_one_sided(ad, max_entangled(2))
    n_ad = negativity(rho_ad)
    f_ad = (1 + 2 * n_ad) / 2
    ad_ok = abs(n_ad - 0.32) < 1e-10 and abs(f_ad - 0.82) < 1e-10
    _report(
        "criterion 8: qubit exact formula (Pauli equality < 1e-10; amplitude damping "
        "N = 0.32, F = 0.82)",
        worst_pauli < 1e-10 and ad_ok,
        f"max Pauli dev {worst_pauli:.2e}, AD N {n_ad:.10f}, F {f_ad:.10f}",
    )


def test_criterion_09_measure_invariants():
    rng = np.random.default_rng(91009)
    worst_neg = 0.0
    worst_fef = 0.0
    worst_floor = 0.0
    worst_ceiling = 0.0
    for d in (2, 3, 4):
        for i in range(200):
            if i % 2 == 0:
                rank = int(rng.integers(1, d * d + 1))
                g = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal(
                    (d * d, rank)
                )
                m = g @ g.conj().T
                rho = DensityOperator(d, m / m.trace().real)
            else:
                ch = random_channel(d, int(rng.integers(1, d + 1)), rng)
                v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
                psi = PureBipartiteState(d, v / np.linalg.norm(v))
                rho = apply_one_sided(ch, psi)
            u = haar_from_gaussian(complex_gaussian(d, rng))
            w = haar_from_gaussian(complex_gaussian(d, rng))
            big = np.kron(u, w)
            rotated = DensityOperator(d, big @ rho.matrix @ big.conj().T)

            worst_neg = max(worst_neg, abs(negativity(rotated) - negativity(rho)))
            a = fef(rho, restarts=16).value
            b = fef(rotated, restarts=16).value
            worst_fef = max(worst_fef, abs(a - b))

            lam = float(np.linalg.eigvalsh(rho.matrix)[-1])
            worst_floor = max(worst_floor, fidelity_with(rho, max_entangled(d)) - a)
            worst_ceiling = max(worst_ceiling, a - min(lam, fstar_upper_bound(rho)))
    _report(
        "criterion 9: negativity LU-invariant (< 1e-9), FEF LU-invariant (< 1e-6), "
        "FEF sandwiched between the Phi+ overlap and min(lambda_max, (1+2N)/d)",
        worst_neg < 1e-9
        and worst_fef < 1e-6
        and worst_floor < 1e-12
        and worst_ceiling < 1e-9,
        f"neg dev {worst_neg:.2e}, fef dev {worst_fef:.2e}, "
        f"floor {worst_floor:.2e}, ceiling {worst_ceiling:.2e}",
    )


def _run_cli(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "quditshare", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    ok = True
    details = []

    pair = []
    for tag in ("a", "b"):
        out = tmp_path / f"cert_{tag}.json"
        res = _run_cli(
            ["certify", "--d", "4", "--x", "0.2,0.5,0.8", "--out", str(out)]
        )
        assert res.returncode == 0, res.stderr
        pair.append(out.read_bytes())
    ok &= pair[0] == pair[1]
    details.append(f"certify identical: {pair[0] == pair[1]}")

    pair = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        spec = {
            "d": 3,
            "axes": {
                "x1": {"start": 0.15, "stop": 0.85, "steps": 4},
                "x2": {"start": 0.15, "stop": 0.85, "steps": 4},
            },
            "output_path": str(out),
            "format": "csv",
        }
        spec_path = tmp_path / f"spec_{tag}.json"
        spec_path.write_text(dumps_fixed(spec))
        res = _run_cli(["sweep", str(spec_path), "--seed", "23"])
        assert res.returncode == 0, res.stderr
        pair.append(out.read_bytes())
    ok &= pair[0] == pair[1]
    details.append(f"sweep identical: {pair[0] == pair[1]}")

    pair = []
    for tag in ("a", "b"):
        out = tmp_path / f"audit_{tag}.json"
        res = _run_cli(
            ["audit", "--d", "3", "--n", "8", "--seed", "29", "--out", str(out)]
        )
        assert res.returncode == 0, res.stderr
        pair.append(out.read_bytes())
    ok &= pair[0] == pair[1]
    details.append(f"audit identical: {pair[0] == pair[1]}")

    _report(
        "criterion 10: certify/sweep/audit outputs byte-identical across repeated "
        "seeded runs",
        ok,
        "; ".join(details),
    )
