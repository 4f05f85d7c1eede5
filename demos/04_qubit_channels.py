"""Qubit channels, where the one-shot optimal singlet fraction is exact.

For any qubit channel the optimum equals (1 + 2N(Choi))/2. This script checks
the formula against the Choi spectrum for Pauli channels, then walks an
amplitude-damping family to show where maximally entangled inputs fall short.

Run:  python demos/04_qubit_channels.py
"""

import numpy as np

from quditshare import (
    apply_one_sided,
    fef,
    kraus_validate,
    max_entangled,
    maximize_negativity_input,
    negativity,
    qubit_optimal_fidelity,
    top_choi_eigenpair,
)

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def amplitude_damping(gamma):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return kraus_validate([k0, k1])


print("=" * 70)
print("Pauli channels: unital, so Phi+ is already optimal")
print("=" * 70)
rng = np.random.default_rng(3)
print(f"{'weights':<38} {'lambda_max':>12} {'(1+2N)/2':>12}")
for _ in range(5):
    w = rng.dirichlet(np.ones(4))
    j = int(np.argmax(w))
    w = 0.5 * w
    w[j] += 0.5
    ch = kraus_validate([np.sqrt(q) * s for q, s in zip(w, PAULIS)])
    lam = top_choi_eigenpair(ch).value
    print(f"{np.round(w, 3)!s:<38} {lam:>12.8f} {qubit_optimal_fidelity(ch):>12.8f}")

print()
print("=" * 70)
print("Amplitude damping: the optimum needs a nonmaximally entangled input")
print("=" * 70)
print(f"{'gamma':>6} {'exact optimum':>14} {'lambda_max':>12} {'best MES (exact)':>17}")
for gamma in (0.1, 0.36, 0.6, 0.9):
    ch = amplitude_damping(gamma)
    exact = qubit_optimal_fidelity(ch)
    lam = top_choi_eigenpair(ch).value
    # for qubits fef is the exact magic-basis closed form, not a search
    mes_best = fef(apply_one_sided(ch, max_entangled(2))).value
    print(f"{gamma:>6.2f} {exact:>14.8f} {lam:>12.8f} {mes_best:>17.8f}")
print("""
exact optimum and lambda_max coincide at 1 - gamma/2 for every rate; the best
a maximally entangled input can do, (1 + sqrt(1-gamma))^2 / 4, stays strictly
below, so the optimum is only reachable with a nonmaximal input.""")

print("=" * 70)
print("Output negativity over inputs (gamma = 0.36)")
print("=" * 70)
ch = amplitude_damping(0.36)
phi_neg = negativity(apply_one_sided(ch, max_entangled(2)))
search = maximize_negativity_input(ch)
print("negativity from Phi+             :", phi_neg)
print("optimum over pure inputs lies in :", [search.best_value, search.upper])
print("(best_value is reached by search.best_state; upper is a proved bound)")
