"""Complex matrix arithmetic and validation of quantum objects.

Matrices are plain ``numpy`` arrays of complex128 (pairs of 64-bit floats).
POVMs are sequences of n-square positive semidefinite Hermitian matrices
summing to the identity; density matrices are psdh with unit trace.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian, NotPsd, SumNotIdentity, TraceNotOne

DEFAULT_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return require_finite(a, "matrix")


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Return ``a`` unchanged; raise NotFinite if any entry is NaN or infinite."""
    if not np.all(np.isfinite(a)):
        raise NotFinite(f"{what} has a non-finite entry")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted ascending.

    Raises NotHermitian if the input deviates from self-adjointness by more
    than DEFAULT_TOL in any entry.
    """
    a = as_complex_matrix(m)
    defect = hermiticity_defect(a)
    if defect > DEFAULT_TOL:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tol {DEFAULT_TOL:.3e}")
    return np.linalg.eigvalsh(a)


def validate_povm(outcomes: Sequence[np.ndarray]) -> None:
    """Check that ``outcomes`` form a POVM; raise a specific error if not.

    Each element must be psdh (min eigenvalue >= -DEFAULT_TOL) and the
    elementwise sum must match the identity within DEFAULT_TOL.
    """
    if len(outcomes) == 0:
        raise DimensionMismatch("a POVM needs at least one outcome")
    mats = [as_complex_matrix(e) for e in outcomes]
    n = mats[0].shape[0]
    for i, e in enumerate(mats):
        if e.shape[0] != n:
            raise DimensionMismatch(f"outcome {i} is {e.shape[0]}-square, expected {n}")
        if hermiticity_defect(e) > DEFAULT_TOL:
            raise NotHermitian(f"outcome {i} is not Hermitian", index=i)
        low = float(np.linalg.eigvalsh(e)[0])
        if low < -DEFAULT_TOL:
            raise NotPsd(f"outcome {i} has eigenvalue {low:.3e} < -tol", index=i)
    total = sum(mats)
    defect = float(np.max(np.abs(total - np.eye(n))))
    if defect > DEFAULT_TOL:
        raise SumNotIdentity(f"sum deviates from identity by {defect:.3e}")


def validate_density(rho) -> None:
    """Check Hermitian, positive semidefinite, and unit trace within DEFAULT_TOL."""
    spectrum = hermitian_eigenvalues(rho)
    if spectrum[0] < -DEFAULT_TOL:
        raise NotPsd(f"density matrix has eigenvalue {spectrum[0]:.3e} < -tol")
    tr = float(spectrum.sum())
    if abs(tr - 1.0) > DEFAULT_TOL:
        raise TraceNotOne(f"trace is {tr!r}, expected 1")


def born_matrix(outcomes: Sequence[np.ndarray], states: Sequence[np.ndarray]) -> np.ndarray:
    """Transition matrix (tr E_i rho_j): k x l, column-stochastic for valid inputs."""
    mats = [as_complex_matrix(e) for e in outcomes]
    rhos = [as_complex_matrix(r) for r in states]
    if not mats or not rhos:
        raise DimensionMismatch("need at least one outcome and one state")
    n = mats[0].shape[0]
    for m in mats + rhos:
        if m.shape[0] != n:
            raise DimensionMismatch("POVM and state dimensions disagree")
    out = np.empty((len(mats), len(rhos)))
    for i, e in enumerate(mats):
        for j, r in enumerate(rhos):
            out[i, j] = np.trace(e @ r).real
    return out


def shannon_entropy(p: np.ndarray) -> float:
    """Base-2 Shannon entropy with the 0 log 0 = 0 convention.

    Entries in [-DEFAULT_TOL, 0) count as zero; anything more negative is
    an input error.
    """
    q = np.asarray(p, dtype=float).ravel()
    if np.any(q < -DEFAULT_TOL):
        raise ValueError("entropy of a vector with negative entries")
    q = q[q > 0.0]
    return float(-(q * np.log2(q)).sum()) if q.size else 0.0


def von_neumann_entropy(rho) -> float:
    """Base-2 entropy of the spectrum of a density matrix."""
    return shannon_entropy(hermitian_eigenvalues(rho))
