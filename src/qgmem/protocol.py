"""The two-player game protocol: initial entangled state, three-parameter
strategy unitaries, the arbiter's entangled measurement, and trace-rule
payoffs.

Conventions (fixed package-wide):

* two-qubit basis order |00>, |01>, |10>, |11>;
* payoff-table entries are always passed in the order
  ($_00, $_01, $_10, $_11);
* angles are radians; gamma and delta live in [0, pi/2], theta in [0, pi],
  alpha and beta in [-pi, pi].

Parameters may be arrays of matching shapes; states, unitaries and operators
then come as stacks, shape (..., 4, 4) or (..., 2, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qmat import check_range

_IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class StrategyParams:
    """One player's unitary move, U = cos(theta/2) R + sin(theta/2) P.

    R is the phase move (R|0> = e^{i alpha}|0>, R|1> = e^{-i alpha}|1>),
    P the flip move (P|0> = e^{i(pi/2 - beta)}|1>, P|1> = e^{i(pi/2 + beta)}|0>).
    """

    theta: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        check_range("theta", self.theta, 0.0, math.pi, "[0, pi]")
        check_range("alpha", self.alpha, -math.pi, math.pi, "[-pi, pi]")
        check_range("beta", self.beta, -math.pi, math.pi, "[-pi, pi]")

    @property
    def angles(self) -> tuple[float, float, float]:
        return self.theta, self.alpha, self.beta


@dataclass(frozen=True)
class EntanglementParams:
    """Entanglement angles: gamma for the initial state, delta for the
    measurement basis."""

    gamma: float
    delta: float

    def __post_init__(self):
        check_range("gamma", self.gamma, 0.0, math.pi / 2, "[0, pi/2]")
        check_range("delta", self.delta, 0.0, math.pi / 2, "[0, pi/2]")


def initial_state(gamma: float) -> np.ndarray:
    """Arbiter's initial state cos(gamma/2)|00> + i sin(gamma/2)|11>."""
    check_range("gamma", gamma, 0.0, math.pi / 2, "[0, pi/2]")
    psi = np.zeros(np.shape(gamma) + (4,), dtype=complex)
    psi[..., 0] = np.cos(gamma / 2)
    psi[..., 3] = 1j * np.sin(gamma / 2)
    return psi


def initial_density(gamma: float) -> np.ndarray:
    psi = initial_state(gamma)
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
    """The four entangled measurement vectors as rows, ordered 00,01,10,11.

    |v_00> = cos(d/2)|00> + i sin(d/2)|11>     |v_11> = cos(d/2)|11> + i sin(d/2)|00>
    |v_01> = cos(d/2)|01> - i sin(d/2)|10>     |v_10> = cos(d/2)|10> - i sin(d/2)|01>
    """
    check_range("delta", delta, 0.0, math.pi / 2, "[0, pi/2]")
    return np.multiply.outer(np.cos(delta / 2), np.eye(4)) + np.multiply.outer(
        1j * np.sin(delta / 2), np.fliplr(np.diag([1.0, -1.0, -1.0, 1.0])))


def payoff_projectors(delta: float) -> list[np.ndarray]:
    """Rank-1 projectors onto the measurement basis, ordered 00,01,10,11.

    They are mutually orthogonal and sum to the identity for every delta.
    """
    return [v[..., :, None] * v.conj()[..., None, :]
            for v in np.moveaxis(measurement_basis(delta), -2, 0)]


def payoff_operator(delta: float, entries: Sequence[float]) -> np.ndarray:
    """Hermitian observable sum_ij $_ij |v_ij><v_ij| for one player.

    ``entries`` is the player's payoff column ($_00, $_01, $_10, $_11), four
    floats or four arrays; the operator's eigenvalues are exactly these
    four numbers.
    """
    if len(entries) != 4:
        raise ValueError(f"expected 4 payoff entries, got {len(entries)}")
    return sum(np.asarray(value)[..., None, None] * proj
               for value, proj in zip(entries, payoff_projectors(delta)))


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
