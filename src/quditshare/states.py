"""Bipartite state algebra: pure/mixed state containers, Schmidt decomposition,
partial transpose, partial trace, fidelity overlaps, and state JSON files.

Every operator in this package is square, d^2 x d^2 on C^d (x) C^d: the first
factor is retained, the second is transmitted through the channel. A basis
label (i, j), with i on the first factor and j on the second, maps to the flat
index i * d + j. The partial transpose acts on the second factor and the
partial trace keeps the first. Transposing the first factor instead would give
rho^{T_A} = (rho^{T_B})^T, which has the same spectrum, so no measure here
depends on the choice.

The bipartite layout kernels are written once here, on raw arrays:
``kron_identity`` (A (x) I or I (x) A), ``overlaps`` (<v|rho|v>, clamped),
``partial_transpose_matrix`` and ``partial_trace_matrix``. The first three
take a stack (..., d, d) or (..., d^2, d^2) as well as one matrix, and a
function on one object (``partial_transpose``, ``partial_trace``,
``fidelity_with``) is the kernel's one-row case, so a stacked caller gets the
bits the one-object call gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidOperatorError
from .jsonio import json_complex, json_int, load_json

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10
EIG_CLAMP = 1e-12
UNITARY_TOL = 1e-10
MES_COEFF_TOL = 1e-8


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureBipartiteState:
    """Unit vector on C^d (x) C^d; amplitudes flat in (i, j) -> i*d + j order."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dim < 2:
            raise DimensionError(f"bipartite dimension must be >= 2, got {self.dim}")
        amps = _readonly(np.asarray(self.amplitudes).reshape(-1))
        if amps.size != self.dim * self.dim:
            raise DimensionError(
                f"amplitude vector has length {amps.size}, expected {self.dim ** 2}"
            )
        with np.errstate(over="ignore"):  # an overflow reads inf, rejected below
            norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN/inf amplitudes
            raise InvalidOperatorError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    def coefficient_matrix(self) -> np.ndarray:
        """d x d matrix M with M[i, j] = amplitude at basis label (i, j)."""
        return self.amplitudes.reshape(self.dim, self.dim)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian PSD operator on C^dim (x) C^dim.

    ``unit_trace`` is False for outputs of non-trace-preserving maps (duals of
    nonunital channels), where the trace requirement is deliberately relaxed.
    """

    dim: int
    matrix: np.ndarray
    unit_trace: bool = True

    def __post_init__(self):
        n = self.dim * self.dim
        mat = _readonly(np.asarray(self.matrix))
        if mat.shape != (n, n):
            raise DimensionError(f"matrix shape {mat.shape} does not match dims ({n}, {n})")
        # every comparison with NaN is false, so the checks below would pass it
        if not np.isfinite(mat).all():
            raise InvalidOperatorError("matrix has a non-finite entry")
        # an overflow reads inf or NaN, which the checks reject, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            asymmetry = np.abs(mat - mat.conj().T).max()
            trace = mat.trace().real
        if not asymmetry <= HERMITIAN_TOL:
            raise InvalidOperatorError("matrix is not Hermitian within tolerance")
        if self.unit_trace and not abs(trace - 1.0) <= TRACE_TOL:
            raise InvalidOperatorError(f"trace {trace} deviates from 1")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < PSD_FLOOR:
            raise InvalidOperatorError(f"minimum eigenvalue {eigs[0]} below PSD floor")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, dim: int, matrix: np.ndarray, unit_trace: bool = True):
        """Build without the Hermitian, trace and PSD checks.

        Only for operators the library assembles from already-validated
        inputs, which are Hermitian and PSD by construction. A complex
        ``matrix`` is kept as a read-only view, not copied, so the caller
        must not write it afterwards.
        """
        view = np.asarray(matrix, dtype=complex).view()
        view.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "dim", dim)
        object.__setattr__(rho, "matrix", view)
        object.__setattr__(rho, "unit_trace", unit_trace)
        return rho


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt data of a pure bipartite state.

    ``coefficients`` sorted non-increasing; ``left_basis[k]`` / ``right_basis[k]``
    are the k-th orthonormal vectors, so the coefficient matrix reconstructs as
    sum_k c_k outer(left_basis[k], right_basis[k]).
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _readonly(self.coefficients).real)
        object.__setattr__(self, "left_basis", _readonly(self.left_basis))
        object.__setattr__(self, "right_basis", _readonly(self.right_basis))

    @property
    def spread(self) -> float:
        """Max minus min Schmidt coefficient; zero exactly for maximal entanglement."""
        return float(self.coefficients.max() - self.coefficients.min())

    def is_maximally_entangled(self) -> bool:
        d = self.coefficients.size
        return bool(np.abs(self.coefficients - 1.0 / np.sqrt(d)).max() < MES_COEFF_TOL)


def max_entangled(d: int) -> PureBipartiteState:
    """The canonical maximally entangled state (1/sqrt(d)) sum_i |ii>: its
    coefficient matrix is I / sqrt(d)."""
    if d < 2:
        raise DimensionError(f"dimension must be >= 2, got {d}")
    return PureBipartiteState(d, (np.eye(d) / np.sqrt(d)).reshape(-1))


def mes_from_unitary(w: np.ndarray) -> PureBipartiteState:
    """(W (x) I) applied to the canonical maximally entangled state.

    Every maximally entangled state arises this way; the coefficient matrix is
    W / sqrt(d).
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidOperatorError(f"expected a square matrix, got shape {w.shape}")
    d = w.shape[0]
    if np.abs(w.conj().T @ w - np.eye(d)).max() > UNITARY_TOL:
        raise InvalidOperatorError("matrix is not unitary within tolerance")
    return PureBipartiteState(d, (w / np.sqrt(d)).reshape(-1))


def pure_density(state: PureBipartiteState) -> DensityOperator:
    """|psi><psi| as a DensityOperator."""
    v = state.amplitudes
    return DensityOperator._trusted(state.dim, np.outer(v, v.conj()))


def random_pure_state(d: int, rng: np.random.Generator) -> PureBipartiteState:
    """Haar-random pure state on C^d (x) C^d (normalized complex Gaussian)."""
    v = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    return PureBipartiteState(d, v / np.linalg.norm(v))


def state_from_dict(data: dict) -> PureBipartiteState:
    """Parse the state JSON schema: {"d": int, "amplitudes": [[re, im], ...]}."""
    try:
        d = json_int(data["d"], "d")
        amps = np.array([json_complex(a, "amplitude") for a in data["amplitudes"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidOperatorError(f"malformed state file: {exc}") from exc
    return PureBipartiteState(d, amps)


def load_state(path) -> PureBipartiteState:
    return state_from_dict(load_json(path))


def schmidt(state: PureBipartiteState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the coefficient matrix."""
    u, s, vh = np.linalg.svd(state.coefficient_matrix())
    return SchmidtDecomposition(coefficients=s, left_basis=u.T, right_basis=vh)


def kron_identity(a: np.ndarray, first: bool = True) -> np.ndarray:
    """A (x) I, or I (x) A when ``first`` is False, for a d x d matrix or a
    stack (..., d, d): entry [(i, k), (j, l)] at [..., i, k, j, l]. Each entry
    is one product with 1 or 0, so it is exact, signed zeros included."""
    d = a.shape[-1]
    t = a[..., :, None, :, None] * np.eye(d)[:, None, :]
    if not first:
        # I (x) A is A (x) I with the factors swapped on both sides
        t = t.swapaxes(-4, -3).swapaxes(-2, -1)
    return t.reshape(*a.shape[:-2], d * d, d * d)


def overlaps(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<v| rho |v>, clamped to [0, 1], for operators (..., D, D) and vectors
    (..., D), broadcast against each other. matmul against v[..., None] and
    vecdot round each row on its own (einsum and a GEMM do not), so every
    row is the one-row call's."""
    return np.clip(np.vecdot(vecs, np.matmul(mats, vecs[..., None])[..., 0]).real, 0.0, 1.0)


def partial_transpose_matrix(matrix: np.ndarray, d: int) -> np.ndarray:
    """Transpose of the second factor of a raw d^2 x d^2 matrix, or of each
    matrix in a stack (..., d^2, d^2) (result may be non-PSD)."""
    matrix = np.asarray(matrix)
    t = matrix.reshape(*matrix.shape[:-2], d, d, d, d).swapaxes(-1, -3)
    return t.reshape(matrix.shape)


def partial_trace_matrix(matrix: np.ndarray, d: int) -> np.ndarray:
    """Trace over the second factor of a raw d^2 x d^2 matrix: the d x d
    reduced matrix on the first."""
    return np.einsum("ijkj->ik", matrix.reshape(d, d, d, d))


def partial_transpose(rho: DensityOperator) -> np.ndarray:
    """rho^{T_B}: transpose of the second (transmitted) factor; Hermitian but
    possibly non-PSD.

    Applying twice returns the input entrywise exactly.
    """
    return partial_transpose_matrix(rho.matrix, rho.dim)


def partial_trace(rho: DensityOperator) -> np.ndarray:
    """tr_B rho: the reduced matrix on the first (retained) factor."""
    return partial_trace_matrix(rho.matrix, rho.dim)


def fidelity_with(rho: DensityOperator, phi: PureBipartiteState) -> float:
    """<phi| rho |phi>, clamped to [0, 1]: ``overlaps`` with one row."""
    if rho.dim != phi.dim:
        raise DimensionError(
            f"state dimension {phi.dim} does not match operator dimension {rho.dim}"
        )
    return float(overlaps(rho.matrix, phi.amplitudes))
