"""Independent references that the tests compare the package against.

None of this runs in the program.  Each function is a direct, unoptimised
statement of what some part of ``qgmem`` computes another way: a density
check by explicit spectrum, the noiseless round by ``np.kron``, the oracle's
payoffs by trace rule, a crossing's Liouville matrix, classical mixed payoffs
by summing cells at cos^2(theta/2), and a grid best response by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qgmem.channels import ChannelSpec
from qgmem.closedform import Pairing, payoff_surface
from qgmem.equilibrium import StrategySpace
from qgmem.games import Bimatrix
from qgmem.oracle import _cross, two_pass_state
from qgmem.protocol import (EntanglementParams, StrategyParams, initial_density,
                            measure_payoff, payoff_operator, strategy_unitary)
from qgmem.qmat import dagger

TIE_TOL = 1e-9


def is_density(m: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff ``m`` is Hermitian, unit-trace and positive within ``tol``.

    Positivity is decided by an explicit Hermitian eigenvalue solve, not by
    determinant tests.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.max(np.abs(m - dagger(m))) <= tol:
        return False
    if abs(np.trace(m) - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(m).min() >= -tol)


def noiseless_final_state(gamma: float, s1: StrategyParams,
                          s2: StrategyParams) -> np.ndarray:
    """Density matrix after both strategies, with no channel noise."""
    u = np.kron(strategy_unitary(s1), strategy_unitary(s2))
    return u @ initial_density(gamma) @ dagger(u)


@dataclass(frozen=True)
class GameConfig:
    """One fully specified experiment point."""

    game: Bimatrix
    ch1: ChannelSpec
    ch2: ChannelSpec
    ent: EntanglementParams
    s1: StrategyParams
    s2: StrategyParams


def oracle_payoffs(cfg: GameConfig) -> tuple[float, float]:
    """(Alice, Bob) payoffs of the simulated round."""
    rho = two_pass_state(cfg.ent, cfg.s1, cfg.s2, cfg.ch1, cfg.ch2)
    pa = measure_payoff(payoff_operator(cfg.ent.delta, cfg.game.a), rho)
    pb = measure_payoff(payoff_operator(cfg.ent.delta, cfg.game.b), rho)
    return pa, pb


def liouville(spec: ChannelSpec) -> np.ndarray:
    """Liouville matrix sum_k K (x) conj(K) of a crossing, shape (..., 16, 16)
    over array p and mu, built as the oracle's crossing of the 16 matrix units
    |c><d|: entry [(a, b), (c, d)] is sum_k K_ac conj(K_bd)."""
    units = np.eye(16).reshape(16, *[1] * np.broadcast(spec.p, spec.mu).ndim, 4, 4)
    lv = _cross(spec, units)
    return np.moveaxis(lv.reshape(*lv.shape[:-2], 16), 0, -1)


def classical_expected(g: Bimatrix, x: float, y: float) -> tuple[float, float]:
    """Expected payoffs when Alice plays row 0 with probability x and Bob
    column 0 with probability y."""
    if not 0.0 <= x <= 1.0 or not 0.0 <= y <= 1.0:
        raise ValueError(f"x and y must be probabilities, got {x}, {y}")
    pa = 0.0
    pb = 0.0
    for i, wi in ((0, x), (1, 1.0 - x)):
        for j, wj in ((0, y), (1, 1.0 - y)):
            va, vb = g.cell(i, j)
            pa += wi * wj * va
            pb += wi * wj * vb
    return pa, pb


def theta_weight(theta: float) -> float:
    """Probability of move 0 for a classical player at angle theta."""
    return np.cos(theta / 2) ** 2


def swapped(g: Bimatrix) -> Bimatrix:
    """The same game with the players' roles exchanged."""

    def transpose(t):
        return (t[0], t[2], t[1], t[3])

    return Bimatrix(g.name + "-swapped", transpose(g.b), transpose(g.a))


def best_response(
    pairing: Pairing,
    game: Bimatrix,
    ent: EntanglementParams,
    ch1: tuple[float, float],
    ch2: tuple[float, float],
    space: StrategySpace,
    opponent: StrategyParams,
    responder: int,
    tie_tol: float = TIE_TOL,
) -> list[StrategyParams]:
    """Argmax set over the responder's grid, ties kept, lexicographic order."""
    if responder not in (1, 2):
        raise ValueError(f"responder must be 1 or 2, got {responder}")
    theta, alpha, beta = np.broadcast_arrays(*space.mesh())
    own, other = (theta, alpha, beta), opponent.angles
    entries, angles = ((game.a, own + other) if responder == 1
                       else (game.b, other + own))
    values = payoff_surface(pairing, entries, ent, ch1, ch2, *angles)
    cutoff = float(values.max()) - tie_tol
    idx = np.argwhere(values >= cutoff)
    return [
        StrategyParams(float(theta[i, j, k]), float(alpha[i, j, k]),
                       float(beta[i, j, k]))
        for i, j, k in idx
    ]
