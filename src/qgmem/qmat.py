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


# Each game-point parameter's domain: name -> (lo, hi, the interval as messages print it).
DOMAINS = {"theta": (0.0, np.pi, "[0, pi]"),
           "alpha": (-np.pi, np.pi, "[-pi, pi]"), "beta": (-np.pi, np.pi, "[-pi, pi]"),
           "gamma": (0.0, np.pi / 2, "[0, pi/2]"), "delta": (0.0, np.pi / 2, "[0, pi/2]"),
           "p": (0.0, 1.0, "[0, 1]"), "mu": (0.0, 1.0, "[0, 1]")}


def check_range(name: str, value) -> None:
    """Raise ``ValueError`` unless lo <= value <= hi (NaN fails) for a float or every element
    of an array, with ``name``'s DOMAINS row; the message names the first offending one."""
    lo, hi, span = DOMAINS[name]
    v = np.asarray(value)
    bad = v[~((v >= lo) & (v <= hi))]
    if bad.size:
        raise ValueError(f"{name} must be in {span}, got {bad[0]}")


class RangeChecked:
    """The base of a ``namedtuple`` record whose fields that name a DOMAINS row are
    range-checked in field order, once per construction: by position, by keyword and
    through ``_replace``, which builds through ``_make``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        for name, value in zip(record._fields, record):
            if name in DOMAINS:
                check_range(name, value)
        return record

    @classmethod
    def _make(cls, fields):
        return cls(*fields)
