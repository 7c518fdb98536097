"""The two-player game protocol: initial entangled state, three-parameter
strategy unitaries, the arbiter's entangled measurement, and trace-rule
payoffs.

Conventions (fixed package-wide):

* two-qubit basis order |00>, |01>, |10>, |11>;
* payoff-table entries are always passed in the order
  ($_00, $_01, $_10, $_11);
* angles are radians, each in its ``qmat.DOMAINS`` row.
  ``EntanglementParams`` and ``StrategyParams`` check these ranges once;
  the functions trust them.

Parameters may be arrays of matching shapes; states, unitaries and operators
then come as stacks, shape (..., 4, 4) or (..., 2, 2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

import numpy as np

from .qmat import RangeChecked

_IMAG_RESIDUE_TOL = 1e-10


class StrategyParams(RangeChecked, namedtuple("StrategyParams", "theta alpha beta",
                                               defaults=(0.0, 0.0))):
    """One player's unitary move, U = cos(theta/2) R + sin(theta/2) P.

    R is the phase move (R|0> = e^{i alpha}|0>, R|1> = e^{-i alpha}|1>),
    P the flip move (P|0> = e^{i(pi/2 - beta)}|1>, P|1> = e^{i(pi/2 + beta)}|0>).
    """

    __slots__ = ()

    @property
    def angles(self) -> tuple[float, float, float]:
        return self.theta, self.alpha, self.beta


class EntanglementParams(RangeChecked, namedtuple("EntanglementParams", "gamma delta")):
    """Entanglement angles: gamma for the initial state, delta for the
    measurement basis."""

    __slots__ = ()


def initial_density(gamma: float) -> np.ndarray:
    """The arbiter's state cos(gamma/2)|00> + i sin(gamma/2)|11>, the first
    measurement vector |v_00> at delta = gamma, as a density matrix."""
    psi = measurement_basis(gamma)[..., 0, :]
    return psi[..., :, None] * psi.conj()[..., None, :]


def strategy_unitary(s: StrategyParams) -> np.ndarray:
    """2x2 unitary for one player's move, global phase taken literally."""
    c, t = np.cos(s.theta / 2), np.sin(s.theta / 2)
    u = np.empty(np.broadcast_shapes(*map(np.shape, s.angles)) + (2, 2), dtype=complex)
    u[..., 0, 0] = c * np.exp(1j * s.alpha)
    u[..., 0, 1] = t * np.exp(1j * (math.pi / 2 + s.beta))
    u[..., 1, 0] = t * np.exp(1j * (math.pi / 2 - s.beta))
    u[..., 1, 1] = c * np.exp(-1j * s.alpha)
    return u


def measurement_basis(delta: float) -> np.ndarray:
    """The four entangled measurement vectors as rows, ordered 00,01,10,11;
    ``initial_density`` takes the first at gamma.

    |v_00> = cos(d/2)|00> + i sin(d/2)|11>     |v_11> = cos(d/2)|11> + i sin(d/2)|00>
    |v_01> = cos(d/2)|01> - i sin(d/2)|10>     |v_10> = cos(d/2)|10> - i sin(d/2)|01>
    """
    c, s = np.cos(delta / 2), np.sin(delta / 2)
    basis, i = np.zeros(np.shape(c) + (4, 4), dtype=complex), np.arange(4)
    basis.real[..., i, i] = np.expand_dims(c, -1)
    basis.imag[..., i, 3 - i] = 0.0 + np.multiply.outer(s, (1.0, -1.0, -1.0, 1.0))
    return basis


def payoff_operator(delta: float, entries: Sequence[float]) -> np.ndarray:
    """Hermitian observable sum_ij $_ij |v_ij><v_ij| for one player, formed
    as V^T diag($) conj(V) from the rows V of ``measurement_basis(delta)``.

    ``entries`` is the player's payoff column ($_00, $_01, $_10, $_11), four
    floats or four arrays; the operator's eigenvalues are exactly these
    four numbers.
    """
    if len(entries) != 4:
        raise ValueError(f"expected 4 payoff entries, got {len(entries)}")
    v, e = measurement_basis(delta), np.moveaxis(np.asarray(entries), 0, -1)
    return np.swapaxes(v, -1, -2) * e[..., None, :] @ v.conj()


def measure_payoff(payoff_op: np.ndarray, rho: np.ndarray) -> float:
    """Tr(P rho) as a real payoff (an array of them over stacks of P and rho).

    The trace of a Hermitian observable against a density matrix is real up
    to round-off; an imaginary residue beyond 1e-10 signals an invalid input
    and raises instead of being silently discarded.
    """
    value = (payoff_op * np.swapaxes(rho, -1, -2)).sum((-2, -1))
    residue = np.max(np.abs(value.imag))
    if residue > _IMAG_RESIDUE_TOL:
        raise ArithmeticError(
            f"payoff trace has imaginary residue {residue:.3e}; "
            "inputs are not a Hermitian observable and a density matrix"
        )
    return value.real
