"""Small dense complex linear algebra for 2x2 and 4x4 matrices.

Everything in this package carries states, unitaries, Kraus elements and
observables as plain ``numpy`` arrays of dtype ``complex128``, row-major,
with the two-qubit basis ordered |00>, |01>, |10>, |11>.  The helpers here
are written for any dimension but are only exercised at dims 2 and 4; they
act on the last two axes, so they also take stacks of matrices.  Scalar
functions are numpy's, called directly on floats and arrays alike.
"""

from __future__ import annotations

import numpy as np

# Pauli matrices, indexed 0..3 as (I, X, Y, Z).
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

SIGMA_X = PAULI[1]
SIGMA_Z = PAULI[3]


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the slow (left) index."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], -1)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().swapaxes(-1, -2)


def mat_trace(a: np.ndarray) -> complex:
    """Sum of diagonal entries, returned as a Python complex."""
    return complex(np.trace(np.asarray(a, dtype=complex)))


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-modulus, the norm used for completeness checks."""
    return float(np.max(np.abs(a)))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    The input is symmetrized only through the solver's own convention
    (the lower triangle is read); callers are expected to pass matrices
    that are Hermitian up to round-off.
    """
    return np.linalg.eigvalsh(np.asarray(m, dtype=complex))


def is_hermitian(m: np.ndarray, tol: float = 1e-9) -> bool:
    m = np.asarray(m, dtype=complex)
    return max_abs(m - dagger(m)) <= tol


def is_density(m: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff ``m`` is Hermitian, unit-trace and positive within ``tol``.

    Positivity is decided by an explicit Hermitian eigenvalue solve so the
    spectrum is available for diagnostics, not by determinant tests.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m, tol):
        return False
    if abs(mat_trace(m) - 1.0) > tol:
        return False
    return bool(hermitian_eigenvalues(m).min() >= -tol)


def check_range(name: str, value, lo: float, hi: float, span: str) -> None:
    """Raise ``ValueError`` unless lo <= value <= hi (NaN fails).  For an
    ndarray the message names its first offending element."""
    if isinstance(value, np.ndarray):
        bad = value[~((value >= lo) & (value <= hi))]
        if not bad.size:
            return
        value = bad[0]
    elif lo <= value <= hi:
        return
    raise ValueError(f"{name} must be in {span}, got {value}")
