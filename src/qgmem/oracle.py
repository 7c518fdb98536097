"""Brute-force density-matrix simulation of the full game round, used as
ground truth against the closed-form payoffs.

The round is: arbiter prepares the entangled pair, the pair crosses channel
1 (its two qubits are that channel's two correlated uses), the players apply
their local unitaries, the pair crosses channel 2, the arbiter measures.
Nothing here shares code with the closed-form expressions; the only common
ground is the protocol primitives (state, unitaries, payoff operators) and
the Kraus families themselves.

Crossings take two cheap forms (Wood, Biamonte and Cory, arXiv:1111.6950):
a Pauli channel scales the Pauli coefficients of rho by lambda = w @ chi
(joint weights w, sign table chi[k, ab] = Tr(K_k P_ab K_k^dag P_ab) / 4),
and amplitude damping acts entrywise.  The tests hold both to the Kraus
families through the operator-sum route and the Choi matrix of ``liouville``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _PAULI_PAIRS, ChannelKind, ChannelSpec, _ad_elements, kraus_stack
from .games import Bimatrix
from .protocol import (EntanglementParams, StrategyParams, initial_density,
                       measure_payoff, payoff_operator, strategy_unitary)
from .qmat import dagger, tensor


@dataclass(frozen=True)
class GameConfig:
    """One fully specified experiment point."""

    game: Bimatrix
    ch1: ChannelSpec
    ch2: ChannelSpec
    ent: EntanglementParams
    s1: StrategyParams
    s2: StrategyParams


_PAULI_VEC = _PAULI_PAIRS.reshape(16, 16)  # row ab is vec(kron(P_a, P_b))
# chi[k, ab] = Tr(K_k P_ab K_k^dag P_ab) / 4 = +-1 over a Pauli family's fixed operators.
_CHI = {kind: np.einsum("kij,abjl,kml,abmi->kab", ops, _PAULI_PAIRS, ops.conj(),
                        _PAULI_PAIRS).real.reshape(len(ops), 16) / 4
        for kind in (ChannelKind.DEPHASING, ChannelKind.DEPOLARIZING)
        for ops in [kraus_stack(kind, 0.0, 0.0)[1]]}


def _damp(p, mu, rho: np.ndarray) -> np.ndarray:
    """Amplitude damping with E0 = diag(d), E1 = j|1><0| from ``_ad_elements``:
    a qubit's rho_ab becomes d_a conj(d_b) rho_ab, plus |j|^2 rho_00 at |1><1|;
    the correlated pair damps |00> alone, moving |j|^2 rho_00 to |11><11|."""
    e = _ad_elements(p)
    d, g = e[..., 0, :, :].diagonal(0, -2, -1), abs(e[..., 1, 1:, :1]) ** 2
    dd = d[..., :, None] * d[..., None, :].conj()
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)  # [..., a1, a2, b1, b2]
    one = dd[..., :, None, :, None] * r
    one[..., 1, :, 1, :] += g * r[..., 0, :, 0, :]
    unc = dd[..., None, :, None, :] * one
    unc[..., :, 1, :, 1] += g * one[..., :, 0, :, 0]
    d4 = d[..., [0, 1, 1, 1]]  # diag(d_0, 1, 1, 1), as d_1 = 1
    cor = d4[..., :, None] * d4[..., None, :].conj() * rho
    cor[..., 3, 3] += g[..., 0, 0] * rho[..., 0, 0]
    mu = np.asarray(mu)[..., None, None]
    return (1.0 - mu) * unc.reshape(cor.shape) + mu * cor


def _cross(spec: ChannelSpec, rho: np.ndarray) -> np.ndarray:
    """rho (..., 4, 4) after one crossing, broadcast over the channel's p, mu."""
    if spec.kind is ChannelKind.AMPLITUDE_DAMPING:
        return _damp(spec.p, spec.mu, rho)
    lam = kraus_stack(spec.kind, spec.p, spec.mu)[0] ** 2 @ _CHI[spec.kind]
    coeff = rho.reshape(*rho.shape[:-2], 16) @ _PAULI_VEC.conj().T / 4  # Tr(P_ab rho) / 4
    out = (lam * coeff) @ _PAULI_VEC
    return out.reshape(*out.shape[:-1], 4, 4)


def liouville(spec: ChannelSpec) -> np.ndarray:
    """Liouville matrix sum_k K (x) conj(K) of a crossing, shape (..., 16, 16)
    over array p and mu, built as ``_cross`` of the 16 matrix units |c><d|:
    entry [(a, b), (c, d)] is sum_k K_ac conj(K_bd)."""
    units = np.eye(16).reshape(16, *[1] * np.broadcast(spec.p, spec.mu).ndim, 4, 4)
    lv = _cross(spec, units)
    return np.moveaxis(lv.reshape(*lv.shape[:-2], 16), 0, -1)


def two_pass_state(ent: EntanglementParams, s1: StrategyParams, s2: StrategyParams,
                   ch1: ChannelSpec, ch2: ChannelSpec) -> np.ndarray:
    """Final 4x4 density matrix after channel 1, the strategies, channel 2.

    Array parameters (of matching shapes) give a stack of rounds, shape
    (..., 4, 4); float parameters give one round.
    """
    rho = _cross(ch1, initial_density(ent.gamma))
    u = tensor(strategy_unitary(s1), strategy_unitary(s2))
    return _cross(ch2, u @ rho @ dagger(u))


def oracle_payoffs(cfg: GameConfig) -> tuple[float, float]:
    """(Alice, Bob) payoffs of the simulated round."""
    rho = two_pass_state(cfg.ent, cfg.s1, cfg.s2, cfg.ch1, cfg.ch2)
    pa = measure_payoff(payoff_operator(cfg.ent.delta, cfg.game.a), rho)
    pb = measure_payoff(payoff_operator(cfg.ent.delta, cfg.game.b), rho)
    return pa, pb
