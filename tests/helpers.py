"""Shared test utilities: independent oracles, seeded samplers, and
``closed_form_row``, which reads the library's closed-form kernel.

Oracle functions here are written directly against numpy so they stay
independent of the library code paths they check.
"""

import numpy as np

from quditshare import DampingParams, DensityOperator, damping


def phi_plus_vector(d):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def one_sided_oracle(ops, psi_vec, d):
    """sum_i (I (x) K_i) |psi><psi| (I (x) K_i^dag), built from Kronecker products."""
    rho = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        big = np.kron(np.eye(d), k)
        w = big @ psi_vec
        rho += np.outer(w, w.conj())
    return rho


def pt_second_oracle(mat, d):
    """Partial transpose on the second subsystem by explicit index swap."""
    out = np.zeros_like(mat)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[i * d + j, k * d + l] = mat[i * d + l, k * d + j]
    return out


def partial_trace_oracle(mat, d):
    """Trace over the second subsystem by explicit loops, summing j in order."""
    out = np.zeros((d, d), dtype=mat.dtype)
    for i in range(d):
        for k in range(d):
            for j in range(d):
                out[i, k] += mat[i * d + j, k * d + j]
    return out


def negativity_oracle(mat, d):
    eigs = np.linalg.eigvalsh(pt_second_oracle(mat, d))
    return float(-eigs[eigs < 0].sum())


def damping_kraus_oracle(d, x):
    """The family's Kraus operators written out directly."""
    ops = [np.diag(np.concatenate([[1.0], np.asarray(x, dtype=float)])).astype(complex)]
    for m in range(1, d):
        a = np.zeros((d, d), dtype=complex)
        a[0, m] = np.sqrt(1.0 - float(x[m - 1]) ** 2)
        ops.append(a)
    return ops


def closed_form_row(p):
    """The point p's row of ``damping._closed_forms``, the kernel that
    ``certify`` and ``sweep`` read, looked up at each call: field -> value."""
    return {name: col[0] for name, col in damping._closed_forms(p.d, p.x[None]).items()}


def pt_spectrum_oracle(p):
    """Partial-transpose spectrum of the family's Choi state, sorted
    ascending: 1/d with multiplicity d, +-x_i^2/d, and +-x_i x_j/d for i < j."""
    d = p.d
    pairs = np.outer(p.x, p.x)[np.triu_indices(d - 1)] / d
    return np.sort(np.concatenate((np.full(d, 1.0 / d), pairs, -pairs)))


def random_strict_params(d, rng):
    """Strict parameter point with x_i drawn from (0.02, 0.98)."""
    while True:
        x = rng.uniform(0.02, 0.98, size=d - 1)
        if x.max() - x.min() > 1e-6:
            return DampingParams(d=d, x=x)


def random_unitary_oracle(d, rng):
    """Haar unitary via QR, independent of the library implementation."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def padded_kraus_stack(lists):
    """n Kraus lists on one C^d as one (n, K, d, d) array, K the length of
    the longest; a shorter list is padded with zero operators."""
    d = lists[0][0].shape[-1]
    stack = np.zeros((len(lists), max(len(ops) for ops in lists), d, d), dtype=complex)
    for row, ops in zip(stack, lists):
        row[:len(ops)] = ops
    return stack


def random_mixed(d, rng, rank=None):
    """A random density operator of the given rank (full rank by default)."""
    rank = rank or d * d
    g = rng.standard_normal((d * d, rank)) + 1j * rng.standard_normal((d * d, rank))
    m = g @ g.conj().T
    return DensityOperator(d, m / m.trace().real)


def near_saddle_state():
    """A d = 3 state whose FEF ascent from the identity runs to
    DEFAULT_MAX_ITER: 0.999 P_asym / 3 + 0.001 sigma, sigma a random
    full-rank state. Phi+ is a stationary point of P_asym / 3 that is not
    its maximum, so the identity start climbs away from a saddle, by gains
    that grow only slowly."""
    d = 3
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    sigma = random_mixed(d, np.random.default_rng(5)).matrix
    return DensityOperator(d, 0.999 * (np.eye(d * d) - swap) / 6 + 0.001 * sigma)
