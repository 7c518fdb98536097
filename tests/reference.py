"""Independent references that the tests compare the package against.

None of this runs in the program.  Each function is a direct, unoptimised
statement of what some part of ``qgmem`` computes another way: a density
check by explicit spectrum, the noiseless round by ``np.kron``, the oracle's
payoffs by trace rule, a crossing's Liouville matrix, a Kraus set's
completeness, the closed form's angle factors by name from raw angles,
classical mixed payoffs by summing cells at cos^2(theta/2), and a grid best
response by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qgmem.channels import ChannelSpec, KrausSet
from qgmem.closedform import batch_weights, payoff_surface
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


def verify_completeness(ks: KrausSet, tol: float = 1e-12) -> tuple[bool, float]:
    """Check sum_k K^dag K = I; returns (ok, max entrywise deviation)."""
    acc = sum(dagger(k) @ k for k in ks.operators)
    deviation = float(np.max(np.abs(acc - np.eye(ks.operators[0].shape[0]))))
    return deviation <= tol, deviation


def raw_angle_terms(ent: EntanglementParams, theta1, alpha1, beta1,
                    theta2, alpha2, beta2) -> dict:
    """The angle factors of the closed-form payoff by name, as the
    ``closedform`` module doc writes them, each built whole from the raw
    angles with the numpy calls of the package (so with its bits)."""
    th1, a1, b1 = (np.asarray(x, dtype=float) for x in (theta1, alpha1, beta1))
    th2, a2, b2 = (np.asarray(x, dtype=float) for x in (theta2, alpha2, beta2))
    c1, s1 = np.cos(th1 / 2) * np.cos(th1 / 2), np.sin(th1 / 2) * np.sin(th1 / 2)
    c2, s2 = np.cos(th2 / 2) * np.cos(th2 / 2), np.sin(th2 / 2) * np.sin(th2 / 2)
    n = np.sin(th1) * np.sin(th2)
    t = dict(cc=c1 * c2, ss=s1 * s2, sc=s1 * c2, cs=c1 * s2,
             gamma_amp=0.25 * n * np.sin(ent.gamma), delta=0.25 * n * np.sin(ent.delta),
             sin_diag=np.sin(a1 + a2 + b1 + b2), sin_off=np.sin(a1 - a2 + b1 - b2))
    t["f_diag"] = t["cc"] * np.cos(2 * (a1 + a2)) - t["ss"] * np.cos(2 * (b1 + b2))
    t["f_off"] = t["sc"] * np.cos(2 * (a2 - b1)) - t["cs"] * np.cos(2 * (a1 - b2))
    t["gamma"] = t["gamma_amp"] * np.sin(a1 + a2 - b1 - b2)
    return t


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
    game: Bimatrix,
    ent: EntanglementParams,
    ch1: ChannelSpec,
    ch2: ChannelSpec,
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
    values = payoff_surface(batch_weights(ent, ch1, ch2), entries, ent, *angles)
    cutoff = float(values.max()) - tie_tol
    idx = np.argwhere(values >= cutoff)
    return [
        StrategyParams(float(theta[i, j, k]), float(alpha[i, j, k]),
                       float(beta[i, j, k]))
        for i, j, k in idx
    ]
