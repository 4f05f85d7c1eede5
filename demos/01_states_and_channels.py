"""Tour of the state and channel primitives.

Builds maximally entangled states, takes Schmidt decompositions, constructs a
few Kraus channels, and inspects their Choi states and duals.

Run:  python demos/01_states_and_channels.py
"""

import numpy as np

from quditshare import (
    apply_one_sided,
    choi_state,
    dual,
    fidelity_with,
    is_unital,
    kraus_validate,
    max_entangled,
    mes_from_unitary,
    negativity,
    partial_trace,
    pure_density,
    schmidt,
    top_choi_eigenpair,
)

print("=" * 70)
print("Maximally entangled states and Schmidt structure")
print("=" * 70)

phi = max_entangled(3)
print("Phi+ amplitudes (d=3):", np.round(phi.amplitudes.real, 4))
dec = schmidt(phi)
print("Schmidt coefficients:", np.round(dec.coefficients, 6))
print("maximally entangled?", dec.is_maximally_entangled())

# every maximally entangled state is (W x I)|Phi+> for a unitary W
w = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)  # cyclic shift
shifted = mes_from_unitary(w)
print("\ncyclic-shift MES Schmidt spread:", schmidt(shifted).spread)
print("overlap with Phi+:", fidelity_with(pure_density(shifted), phi))

print()
print("=" * 70)
print("Channels: identity, bit flip, and a nonunital example")
print("=" * 70)

identity = kraus_validate([np.eye(3)])
print("identity channel unital?", is_unital(identity))

p = 0.25
X = np.array([[0, 1], [1, 0]], dtype=complex)
bit_flip = kraus_validate([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * X])
print("bit-flip channel unital?", is_unital(bit_flip))

k0 = np.array([[1, 0], [0, 0.8]], dtype=complex)
k1 = np.array([[0, 0.6], [0, 0]], dtype=complex)
damping = kraus_validate([k0, k1])
print("amplitude-damping channel unital?", is_unital(damping))

print()
print("=" * 70)
print("Choi states and dual maps")
print("=" * 70)

choi = choi_state(bit_flip)
print("bit-flip Choi trace:", choi.matrix.trace().real)
print("first marginal == I/2?",
      np.abs(partial_trace(choi, "first") - np.eye(2) / 2).max() < 1e-12)
print("bit-flip Choi negativity:", negativity(choi))

# the dual of a nonunital channel is not trace preserving, but its Choi
# state still has trace one and shares the primal's largest eigenvalue
primal = top_choi_eigenpair(damping)
dual_top = top_choi_eigenpair(dual(damping))
print("\namplitude damping: primal lambda_max =", primal.value)
print("                   dual   lambda_max =", dual_top.value)
out = apply_one_sided(damping, max_entangled(2))
print("output of Phi+ through the channel, Phi+ overlap:",
      fidelity_with(out, max_entangled(2)))
