"""Complex-operator foundation for finite-dimensional quantum registers.

Construction, validation and composition of density matrices and operators
over tensor-product registers. Everything here is a pure function of its
inputs: matrices are copied and frozen on construction, and randomness only
enters through explicitly seeded generators, so values are safe to share
across threads.

Conventions
-----------
- Operators are dense complex128 ``numpy`` arrays.
- Tensor factors are indexed 0-based, left to right, C-order (factor 0 is
  the most significant index of the composite basis).
- Structural checks (Hermiticity, positivity, trace) use ``ATOL_STRUCT``;
  identities that hold in exact arithmetic are tested at ``ATOL_EXACT``.
- Positivity means that the symmetrized matrix ``S = (M + M^dag) / 2`` has
  no eigenvalue below ``-ATOL_STRUCT``. A Cholesky factor of
  ``S + (ATOL_STRUCT / 2) I`` that completes with a backward-error bound of
  at most ``ATOL_STRUCT / 2`` proves it; otherwise ``eigvalsh(S)`` decides.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ATOL_STRUCT = 1e-10
ATOL_EXACT = 1e-12
# 2^-53 as a Python float: the bound's scalar arithmetic then skips numpy's
# scalar overhead and rounds exactly as float64 did.
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps / 2.0)
# Largest seed of every seeded draw: seeds are 64-bit unsigned integers.
_SEED_MAX = 2**64 - 1

__all__ = [
    "ATOL_STRUCT",
    "ATOL_EXACT",
    "StateValidationError",
    "LayoutError",
    "DensityMatrix",
    "RegisterLayout",
    "RandomSpec",
    "as_operator",
    "dagger",
    "tensor_product",
    "partial_trace",
    "partial_trace_operator",
    "commutator_hs",
    "random_density",
    "ginibre_state",
    "conjugate_by_unitary",
    "pure_state",
]


class StateValidationError(ValueError):
    """A matrix failed a density-matrix invariant.

    Attributes
    ----------
    check : str
        Name of the violated invariant: ``"shape"``, ``"finiteness"``,
        ``"hermiticity"``, ``"positivity"`` or ``"trace"``.
    magnitude : float
        Size of the violation (e.g. most negative eigenvalue, trace
        deviation).
    """

    def __init__(self, check: str, magnitude: float, message: str):
        super().__init__(message)
        self.check = check
        self.magnitude = magnitude


class LayoutError(ValueError):
    """Register layout and operator dimensions are inconsistent."""


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a square, finite complex128 array (copied, read-only)."""
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise StateValidationError(
            "shape", 0.0, f"operator must be a square matrix, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise StateValidationError("finiteness", np.inf, "operator has NaN/Inf entries")
    arr.setflags(write=False)
    return arr


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


@functools.cache
def _cholesky_shift(dim: int) -> np.ndarray:
    """``(ATOL_STRUCT / 2) I``, complex and read-only, built once per
    dimension: adding it to ``S`` costs a fraction of a strided write to
    the diagonal, and gives the same factor up to the sign of zeros."""
    shift = np.eye(dim, dtype=np.complex128)
    shift *= ATOL_STRUCT / 2.0
    shift.setflags(write=False)
    return shift


def _check_int(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """``int(value)`` if ``value`` is an integer (a Python or numpy one,
    never a bool) in [low, high], either end of which may be open; else
    raise ValueError naming ``name``. A float is refused even when
    integral: the values checked here count, index or seed, and a float
    reaching them would run a grid, a draw or a layout that no integer
    gives."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or (low is not None and value < low)
        or (high is not None and value > high)
    ):
        if (low, high) == (0, _SEED_MAX):
            what = "a 64-bit unsigned integer"
        elif high is not None:
            what = f"an integer <= {high}" if low is None else f"an integer in [{low}, {high}]"
        elif low is not None:
            what = f"an integer >= {low}"
        else:
            what = "an integer"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _sym_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetrized matrix ``S = (M + M^dag) / 2``.

    They stay meaningful when ``m`` is Hermitian only to within a tolerance.
    """
    return np.linalg.eigvalsh((m + dagger(m)) / 2.0)


def _psd_margins(m: np.ndarray) -> tuple[float, float | None]:
    """``(max |M - M^dag|, least eigenvalue of S)`` of ``m``, the second
    only when it is below ``-ATOL_STRUCT``, else ``None``.

    ``S = (M + M^dag) / 2``. A Cholesky factor ``R`` of ``A = S + h I``,
    ``h = ATOL_STRUCT / 2``, decides most matrices without an eigensolver.
    By Higham (2002), Thm 10.3, a factor that runs to completion has
    ``R^dag R = A + dA`` with ``|dA| <= g |R^dag| |R|`` entrywise, where
    ``g = sqrt(2) gamma_{d+3}`` (``gamma_k = k u / (1 - k u)``) is
    ``gamma_{d+1}`` for complex arithmetic (sec. 3.6). So
    ``||dA||_2 <= g ||R||_F^2``, and ``||R||_F^2 = Tr(A + dA)`` is about
    ``|Tr M| + d h``. The test is Higham's normwise ``d g ||R||_F^2 <= h``,
    whose extra factor ``d`` also covers the rounding of the shift. When
    it holds, ``A + dA`` is PSD and the least eigenvalue of ``S`` is at
    least ``-h - ||dA||_2 >= -ATOL_STRUCT``. When the factor breaks down,
    is not finite or fails the test, the eigenvalues of ``S`` decide.
    A finite ``m`` whose ``M + M^dag`` overflows has no eigenvalues to
    measure: it raises :class:`StateValidationError` (``"finiteness"``).
    """
    m_dag = dagger(m)
    herm_dev = float(np.abs(m - m_dag).max())
    d = m.shape[0]
    shift = ATOL_STRUCT / 2.0
    a = m + m_dag
    a *= 0.5  # S, bitwise equal to (M + M^dag) / 2
    a += _cholesky_shift(d)
    try:
        r = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    else:
        k = (d + 3) * _UNIT_ROUNDOFF
        gamma = math.sqrt(2.0) * k / (1.0 - k)
        if d * gamma * np.vdot(r, r).real <= shift:  # NaN, from overflow, fails
            return herm_dev, None
    if not np.isfinite(a).all():
        raise StateValidationError(
            "finiteness", np.inf, "matrix is not finite once symmetrized: "
            "(M + M^dag) / 2 overflows",
        )
    min_eig = float(_sym_spectrum(m)[0])
    return herm_dev, min_eig if min_eig < -ATOL_STRUCT else None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, positive semidefinite, trace 1.

    Construction runs the full invariant check (tolerance ``ATOL_STRUCT``)
    and raises :class:`StateValidationError` naming the violated check.
    The wrapped array is a read-only copy.

    Positivity is decided without an eigensolver when a Cholesky factor of
    ``S + (ATOL_STRUCT / 2) I``, ``S = (M + M^dag) / 2``, completes and its
    backward error, bounded by ``sqrt(2) d (d + 3) u (|Tr M| + d ATOL_STRUCT / 2)``
    to first order (``u = 2^-53``), is at most ``ATOL_STRUCT / 2``: for
    unit-trace matrices up to ``d`` of about 560. Otherwise ``eigvalsh(S)``
    decides, and a rejection reports its least eigenvalue, so the decision
    is the eigenvalue test's in either case.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_operator(self.matrix)
        herm_dev, min_eig = _psd_margins(m)
        if herm_dev > ATOL_STRUCT:
            raise StateValidationError(
                "hermiticity", herm_dev,
                f"matrix is not Hermitian: max |M - M^dag| = {herm_dev:.3e}",
            )
        if min_eig is not None:
            raise StateValidationError(
                "positivity", min_eig,
                f"matrix has a negative eigenvalue: {min_eig:.3e}",
            )
        trace_dev = float(abs(m.trace() - 1.0))
        if trace_dev > ATOL_STRUCT:
            raise StateValidationError(
                "trace", trace_dev,
                f"trace deviates from 1 by {trace_dev:.3e}",
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """Tr(rho^2) = Re sum_ij rho_ij rho_ji, without forming rho^2.

        1 for pure states up to rounding (a few ulps), below 1 for mixed
        ones.
        """
        m = self.matrix
        return float(np.einsum("ij,ji->", m, m).real)

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum of the symmetrized matrix."""
        return _sym_spectrum(self.matrix)


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered local dimensions of the tensor factors of a register:
    integers (Python or numpy, never bool or float), stored as Python ints."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_check_int("local dimension", d) for d in self.dims)
        if len(dims) == 0:
            raise LayoutError("layout must have at least one factor")
        if any(d < 1 for d in dims):
            raise LayoutError(f"local dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class RandomSpec:
    """Reproducible random-state request: identical spec, identical state.
    Integers, never bool or float: dim >= 1, rank in [1, dim], seed in [0, 2^64 - 1],
    stored as Python ints."""

    dim: int
    rank: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_int("dim", self.dim))
        object.__setattr__(self, "rank", _check_int("rank", self.rank))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, _SEED_MAX))
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if not 1 <= self.rank <= self.dim:
            raise ValueError(f"rank must lie in [1, {self.dim}], got {self.rank}")


def _matrix_of(x) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else as_operator(x)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two operators.

    Accepts raw matrices or :class:`DensityMatrix`. The result has dimension
    ``dim_a * dim_b`` and multiplicative trace.
    """
    return np.kron(_matrix_of(a), _matrix_of(b))


def partial_trace_operator(m, layout: RegisterLayout, keep) -> np.ndarray:
    """Partial trace of an arbitrary operator, keeping the listed factors.

    ``keep`` is an iterable of 0-based factor indices, integers (Python or
    numpy, never bool or float); the kept factors stay in their original
    relative order. ``keep = ()`` traces everything and returns a 1x1
    matrix holding the full trace. No state validation is performed; see
    :func:`partial_trace` for the density-matrix version.
    """
    m = _matrix_of(m)
    dims = layout.dims
    if m.shape[0] != layout.total_dim:
        raise LayoutError(
            f"operator dimension {m.shape[0]} does not match layout "
            f"{dims} (total {layout.total_dim})"
        )
    keep = sorted(set(_check_int("keep index", k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise LayoutError(f"keep indices {keep} out of range for {len(dims)} factors")

    # Reshape to one axis per ket/bra factor, then trace the dropped pairs.
    t = m.reshape(dims + dims)
    n = len(dims)
    traced = 0
    for idx in range(n - 1, -1, -1):
        if idx in keep:
            continue
        t = np.trace(t, axis1=idx, axis2=idx + (n - traced))
        traced += 1
    kept_dim = math.prod(dims[k] for k in keep)
    return np.asarray(t, dtype=np.complex128).reshape(kept_dim, kept_dim)


def partial_trace(rho: DensityMatrix, layout: RegisterLayout, keep) -> DensityMatrix:
    """Reduced state on the kept factors of ``rho``.

    The result is validated; trace is preserved at 1. Tracing out all
    factors (``keep = ()``) yields the trivial one-dimensional state.
    """
    return DensityMatrix(partial_trace_operator(rho, layout, keep))


def commutator_hs(a, b) -> tuple[np.ndarray, float]:
    """Commutator ``[A, B] = AB - BA`` and its squared Hilbert-Schmidt norm.

    Returns ``(C, Tr(C^dag C))`` with the norm guaranteed real nonnegative.
    """
    a = _matrix_of(a)
    b = _matrix_of(b)
    if a.shape != b.shape:
        raise LayoutError(f"dimension mismatch: {a.shape} vs {b.shape}")
    c = a @ b - b @ a
    hs_norm_sq = float(np.sum(np.abs(c) ** 2))
    return c, hs_norm_sq


def ginibre_state(dim: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Generic rank-controlled random state: G G^dag / Tr(G G^dag).

    ``G`` is a ``dim x rank`` complex Gaussian (Ginibre) matrix drawn from
    ``rng``. Rank 1 gives a Haar-random pure state.
    """
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ dagger(g)
    m /= np.trace(m).real
    return DensityMatrix(m)


def random_density(spec: RandomSpec) -> DensityMatrix:
    """Seeded random state per ``spec``; identical spec gives identical state."""
    rng = np.random.default_rng(int(spec.seed))
    return ginibre_state(spec.dim, spec.rank, rng)


def conjugate_by_unitary(rho: DensityMatrix, u) -> DensityMatrix:
    """Unitary conjugation ``U rho U^dag``; spectrum and trace are preserved."""
    u = _matrix_of(u)
    if u.shape[0] != rho.dim:
        raise LayoutError(f"dimension mismatch: U is {u.shape}, state is {rho.dim}")
    unit_dev = float(np.abs(dagger(u) @ u - np.eye(u.shape[0])).max())
    if unit_dev > ATOL_STRUCT:
        raise StateValidationError(
            "unitarity", unit_dev,
            f"matrix is not unitary: max |U^dag U - I| = {unit_dev:.3e}",
        )
    return DensityMatrix(u @ rho.matrix @ dagger(u))


def pure_state(vec) -> DensityMatrix:
    """Projector onto the (normalized) vector ``vec`` as a validated state."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise StateValidationError("positivity", 0.0, "zero vector has no state")
    v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()))
