"""Closed forms of the level-damping family against dense numerics.

The family's Choi state is a sum of orthogonal rank-one pieces, so its largest
eigenvalue, its full partial-transpose spectrum, and the negativity all have
closed forms. This script spot-checks them against eigensolves over a random
parameter sample and prints the worst deviations.

Run:  python demos/02_closed_forms.py
"""

import numpy as np

from quditshare import (
    DampingParams,
    choi_state,
    damping_channel,
    damping_gap,
    damping_lambda_max,
    damping_negativity,
    damping_pt_spectrum,
    negativity,
    partial_transpose,
)

rng = np.random.default_rng(7)

print("=" * 70)
print("Reference point d=3, x=(0.5, 0.9)")
print("=" * 70)
p = DampingParams(3, [0.5, 0.9])
rho = choi_state(damping_channel(p))
print("lambda_max closed:", damping_lambda_max(p))
print("lambda_max eig   :", np.linalg.eigvalsh(rho.matrix)[-1])
print("negativity closed:", damping_negativity(p))
print("negativity eig   :", negativity(rho))
print("PT spectrum closed:", np.round(damping_pt_spectrum(p), 6))
print("PT spectrum eig   :",
      np.round(np.sort(np.linalg.eigvalsh(partial_transpose(rho))), 6))
print("strictness gap sum_{i<j} (x_i - x_j)^2:", damping_gap(p))

print()
print("=" * 70)
print("Random sample, d = 3..6")
print("=" * 70)
worst_lam, worst_neg, worst_spec = 0.0, 0.0, 0.0
for d in (3, 4, 5, 6):
    for _ in range(200):
        x = rng.uniform(0.02, 0.98, size=d - 1)
        if x.max() - x.min() < 1e-6:
            continue
        params = DampingParams(d, x)
        choi = choi_state(damping_channel(params))
        lam = np.linalg.eigvalsh(choi.matrix)[-1]
        worst_lam = max(worst_lam, abs(lam - damping_lambda_max(params)))
        worst_neg = max(worst_neg, abs(negativity(choi) - damping_negativity(params)))
        spec = np.sort(np.linalg.eigvalsh(partial_transpose(choi)))
        worst_spec = max(worst_spec, np.abs(spec - damping_pt_spectrum(params)).max())
print("worst lambda_max deviation :", worst_lam)
print("worst negativity deviation :", worst_neg)
print("worst PT-spectrum deviation:", worst_spec)

print()
print("=" * 70)
print("Limit behaviour as all x_i -> 1 (the closed cube: no certificate needed)")
print("=" * 70)
x0 = np.array([0.2, 0.5, 0.7])
for t in (0.0, 0.5, 0.9, 1.0):
    params = DampingParams(4, x0 + t * (1 - x0))
    print(f"t={t:.1f}  lambda_max={damping_lambda_max(params):.6f}  "
          f"negativity={damping_negativity(params):.6f}  gap={damping_gap(params):.6f}")
print("(at t=1 the channel is the identity: lambda_max -> 1, negativity -> (d-1)/2)")
