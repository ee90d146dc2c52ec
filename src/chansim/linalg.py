"""Complex matrix arithmetic and validation of quantum objects.

Matrices are plain ``numpy`` arrays of complex128 (pairs of 64-bit floats).
POVMs are sequences of n-square positive semidefinite Hermitian matrices
summing to the identity; density matrices are psdh with unit trace. A POVM
or a set of states is validated, decomposed and multiplied as one
(m, n, n) stack, not one matrix at a time.
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


def as_complex_stack(matrices, what: str) -> np.ndarray:
    """Coerce a nonempty sequence of matrices, or an (m, n, n) array, to
    one finite complex (m, n, n) stack; DimensionMismatch if there is no
    ``what``, or names the first that is not square or not as large as the
    first."""
    if len(matrices) == 0:
        raise DimensionMismatch(f"need at least one {what}")
    try:
        a = np.asarray(matrices, dtype=complex)
    except ValueError:  # matrices of different sizes
        a = None
    if a is None or a.ndim != 3 or a.shape[1] != a.shape[2]:
        mats = [as_complex_matrix(m) for m in matrices]
        n = len(mats[0])
        for i, m in enumerate(mats):
            if len(m) != n:
                raise DimensionMismatch(f"{what} {i} is {len(m)}-square, expected {n}")
        return np.array(mats).reshape(len(mats), n, n)
    return require_finite(a, f"{what} stack")


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Return ``a`` unchanged; raise NotFinite if any entry is NaN or infinite."""
    if not np.all(np.isfinite(a)):
        raise NotFinite(f"{what} has a non-finite entry")
    return a


def hermiticity_defect(m: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of m from its conjugate transpose; for an
    (m, n, n) stack, one per matrix."""
    return np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)


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


def validate_povm(outcomes: Sequence[np.ndarray]) -> np.ndarray:
    """Check that ``outcomes`` form a POVM and return them as one complex
    (k, n, n) stack; raise a specific error if not.

    Each element must be psdh (min eigenvalue >= -DEFAULT_TOL) and the
    elementwise sum must match the identity within DEFAULT_TOL. The whole
    stack is checked at once (one hermiticity reduction and one stacked
    eigvalsh); a NotHermitian or NotPsd error names the first faulty
    outcome, with the first of the two checks that it fails.
    """
    mats = as_complex_stack(outcomes, "outcome")
    defect = hermiticity_defect(mats)
    low = np.linalg.eigvalsh(mats)[:, 0]
    faulty = np.flatnonzero((defect > DEFAULT_TOL) | (low < -DEFAULT_TOL))
    if faulty.size:
        i = int(faulty[0])
        if defect[i] > DEFAULT_TOL:
            raise NotHermitian(f"outcome {i} is not Hermitian", index=i)
        raise NotPsd(f"outcome {i} has eigenvalue {low[i]:.3e} < -tol", index=i)
    total = mats.sum(axis=0)
    defect = float(np.max(np.abs(total - np.eye(len(total)))))
    if defect > DEFAULT_TOL:
        raise SumNotIdentity(f"sum deviates from identity by {defect:.3e}")
    return mats


def validate_density(rho) -> np.ndarray:
    """Check Hermitian, positive semidefinite, and unit trace within
    DEFAULT_TOL, and return the ascending spectrum: (n,) for one density
    matrix, (l, n) for a sequence or an (l, n, n) stack of l. A stack is
    checked at once (one hermiticity reduction and one stacked eigvalsh),
    and an error names the first faulty state, with the first check that it
    fails; NotHermitian and NotPsd carry its index."""
    try:
        single = np.ndim(rho) == 2
    except ValueError:  # states of different sizes
        single = False
    mats = as_complex_matrix(rho)[None] if single else as_complex_stack(rho, "state")
    defect = hermiticity_defect(mats)
    spectra = np.linalg.eigvalsh(mats)
    traces = spectra.sum(axis=1)
    faulty = np.flatnonzero(
        (defect > DEFAULT_TOL)
        | (spectra[:, 0] < -DEFAULT_TOL)
        | (np.abs(traces - 1.0) > DEFAULT_TOL)
    )
    if faulty.size:
        j = int(faulty[0])
        where, index = ("", None) if single else (f"state {j}: ", j)
        if defect[j] > DEFAULT_TOL:
            raise NotHermitian(
                f"{where}hermiticity defect {defect[j]:.3e} exceeds tol {DEFAULT_TOL:.3e}",
                index=index,
            )
        if spectra[j, 0] < -DEFAULT_TOL:
            raise NotPsd(
                f"{where}density matrix has eigenvalue {spectra[j, 0]:.3e} < -tol", index=index
            )
        raise TraceNotOne(f"{where}trace is {float(traces[j])!r}, expected 1")
    return spectra[0] if single else spectra


def born_matrix(outcomes: Sequence[np.ndarray], states: Sequence[np.ndarray]) -> np.ndarray:
    """Transition matrix (tr E_i rho_j): k x l, column-stochastic for valid
    inputs; one stacked product of every outcome with every state."""
    mats = as_complex_stack(outcomes, "outcome")
    rhos = as_complex_stack(states, "state")
    if mats.shape[1] != rhos.shape[1]:
        raise DimensionMismatch("POVM and state dimensions disagree")
    return np.trace(mats[:, None] @ rhos[None], axis1=2, axis2=3).real


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
