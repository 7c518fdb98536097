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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the slow (left) index."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], -1)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().swapaxes(-1, -2)


def check_range(name: str, value, lo: float, hi: float, span: str) -> None:
    """Raise ``ValueError`` unless lo <= value <= hi (NaN fails) for a float
    or every element of an array; the message names the first offending one."""
    v = np.asarray(value)
    bad = v[~((v >= lo) & (v <= hi))]
    if bad.size:
        raise ValueError(f"{name} must be in {span}, got {bad[0]}")
