"""The advantage certificate, end to end.

For the level-damping family, the largest Choi eigenvalue lies strictly above
the ceiling (1 + 2N)/d that bounds what any maximally entangled input can reach
even with trace-preserving local post-processing. The top eigenvector of the
dual Choi state, known in closed form, is a nonmaximally entangled input
whose plain output fidelity already attains that eigenvalue, so sending it
beats every maximally entangled transmission. Its output also carries
strictly more negativity.

This script walks the whole chain at one parameter point and prints each
quantity next to the inequality it participates in.

Run:  python demos/03_advantage_certificate.py
"""

import numpy as np

from quditshare import (
    DampingParams,
    advantage_certificate,
    apply_one_sided,
    damping_channel,
    fef_by_ascent,
    fidelity_with,
    max_entangled,
    negativity,
    schmidt,
)

params = DampingParams(3, [0.5, 0.9])
cert = advantage_certificate(params)

print("=" * 70)
print(f"Certificate for d={params.d}, x={params.x.tolist()}")
print("=" * 70)

print(f"""
largest Choi eigenvalue (closed form) : {cert.lambda_max_closed:.10f}
largest Choi eigenvalue (eigensolve)  : {cert.lambda_max_numeric:.10f}
Choi negativity (closed form)         : {cert.negativity_phiplus_closed:.10f}
Choi negativity (eigensolve)          : {cert.negativity_phiplus_numeric:.10f}
fidelity ceiling (1 + 2N)/d           : {cert.fstar_bound_phiplus:.10f}
strictness gap                        : {cert.gap:.10f}
""")

print("chain head: lambda_max > ceiling ?",
      cert.lambda_max_closed, ">", cert.fstar_bound_phiplus,
      "->", cert.verdict_ceiling)

dec = schmidt(cert.psi_prime)
print("\nbest input psi' = (|00> + sum x_i |ii>) / sqrt(s), closed form")
print("  (the top dual-Choi eigenvector; s = 1 + sum x_i^2):")
print("  amplitudes on |ii>  :", np.round(cert.psi_prime.amplitudes[:: params.d + 1].real, 6))
print("  Schmidt coefficients:", np.round(dec.coefficients, 6), "(SVD)")
print("  Schmidt spread      :", cert.psi_prime_schmidt_spread, "(closed form)")
print("  maximally entangled?", dec.is_maximally_entangled())

print("\nits output through the channel:")
out = apply_one_sided(damping_channel(params), cert.psi_prime)
print("  Phi+ overlap (dense)      :", fidelity_with(out, max_entangled(3)))
print("  FEF (closed form s/d)     :", cert.fef_psi_prime)
print("  FEF (unitary ascent)      :", fef_by_ascent(cert))
print("  negativity (closed form)  :", cert.negativity_psi_prime)
print("  negativity (eigensolve)   :", negativity(out))

# N(psi') - N(Phi+) = gap/(2d) + sum_m y_m h_m/(2s), two terms >= 0 (damping module docstring)
y = params.x**2
h = (1 - y) ** 2 / (np.sqrt((1 - y) ** 2 + 4) + 2)
s = 1 + y.sum()
print("\nnegativity margin N(psi') - N(Phi+):")
print("  gap/(2d)                  :", cert.gap / (2 * params.d))
print("  sum_m y_m h_m/(2s)        :", (y * h).sum() / (2 * s))
print("  their sum, from the two N :", cert.negativity_psi_prime - cert.negativity_phiplus_closed)

print("\nverdicts (exact predicates of x):")
print("  ceiling exceeded            :", cert.verdict_ceiling)
print("  nonmaximal input advantage  :", cert.verdict_advantage)
print("  negativity advantage        :", cert.verdict_negativity_advantage,
      "(the margin is 0 only at x = (0, ..., 0) and (1, ..., 1))")
print("\nall verdicts true:", cert.all_verdicts_true)
print("""
reading: the channel's one-shot optimal singlet fraction is at least
lambda_max (the best input attains it without any post-processing), while no
maximally entangled input can exceed the ceiling even with post-processing;
the certificate never claims the exact optimum, only the separation.""")
