"""Closed forms of the level-damping family against dense numerics.

The family's Choi state is a sum of orthogonal rank-one pieces, so its largest
eigenvalue, its full partial-transpose spectrum, and the negativity all have
closed forms. The certificate reports lambda_max and the negativity; the
partial-transpose spectrum is written out below. This script spot-checks
them against dense eigensolves over a random parameter sample and prints the
worst deviations.

Run:  python demos/02_closed_forms.py
"""

import numpy as np

from quditshare import (
    DampingParams,
    advantage_certificate,
    choi_state,
    damping_channel,
    negativity,
    partial_transpose,
)


def pt_spectrum(p):
    """The Choi state's partial-transpose spectrum, sorted: 1/d with
    multiplicity d, +-x_i^2/d, and +-x_i x_j/d for i < j."""
    pairs = np.outer(p.x, p.x)[np.triu_indices(p.d - 1)] / p.d
    return np.sort(np.concatenate((np.full(p.d, 1.0 / p.d), pairs, -pairs)))


rng = np.random.default_rng(7)

print("=" * 70)
print("Reference point d=3, x=(0.5, 0.9)")
print("=" * 70)
p = DampingParams(3, [0.5, 0.9])
cert = advantage_certificate(p)
rho = choi_state(damping_channel(p))
print("lambda_max closed:", cert.lambda_max_closed)
print("lambda_max eig   :", np.linalg.eigvalsh(rho.matrix)[-1])
print("negativity closed:", cert.negativity_phiplus_closed)
print("negativity eig   :", negativity(rho))
print("PT spectrum closed:", np.round(pt_spectrum(p), 6))
print("PT spectrum eig   :",
      np.round(np.sort(np.linalg.eigvalsh(partial_transpose(rho))), 6))
print("strictness gap sum_{i<j} (x_i - x_j)^2:", cert.gap)

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
        cert = advantage_certificate(params)
        choi = choi_state(damping_channel(params))
        lam = np.linalg.eigvalsh(choi.matrix)[-1]
        worst_lam = max(worst_lam, abs(lam - cert.lambda_max_closed))
        worst_neg = max(worst_neg, abs(negativity(choi) - cert.negativity_phiplus_closed))
        spec = np.sort(np.linalg.eigvalsh(partial_transpose(choi)))
        worst_spec = max(worst_spec, np.abs(spec - pt_spectrum(params)).max())
print("worst lambda_max deviation :", worst_lam)
print("worst negativity deviation :", worst_neg)
print("worst PT-spectrum deviation:", worst_spec)

print()
print("=" * 70)
print("Limit behaviour as all x_i -> 1")
print("=" * 70)
x0 = np.array([0.2, 0.5, 0.7])
for t in (0.0, 0.5, 0.9):
    cert = advantage_certificate(DampingParams(4, x0 + t * (1 - x0)))
    print(f"t={t:.1f}  lambda_max={cert.lambda_max_closed:.6f}  "
          f"negativity={cert.negativity_phiplus_closed:.6f}  gap={cert.gap:.6f}")
# at t = 1 every x_i is 1, outside the theorem's open interval, so no
# certificate exists there; the channel is the identity, read off its Choi state
choi = choi_state(damping_channel(DampingParams(4, np.ones(3))))
print(f"t=1.0  lambda_max={np.linalg.eigvalsh(choi.matrix)[-1]:.6f}  "
      f"negativity={negativity(choi):.6f}  gap=0 (all x_i equal)")
print("(at t=1 the channel is the identity: lambda_max -> 1, negativity -> (d-1)/2)")
