"""Brute-force density-matrix simulation of the full game round, used as
ground truth against the closed-form payoffs.

The round is: arbiter prepares the entangled pair, the pair crosses channel
1 (its two qubits are that channel's two correlated uses), the players apply
their local unitaries, the pair crosses channel 2, the arbiter measures.
Nothing here shares code with the closed-form expressions; the only common
ground is the protocol primitives (state, unitaries, payoff operators) and
the Kraus families themselves.

Each crossing acts through its 16x16 Liouville matrix sum_k K (x) conj(K),
which maps the row-major vec(rho) to vec(sum_k K rho K^dag) (Wood, Biamonte
and Cory, arXiv:1111.6950), so a batch of rounds is a few array products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec, kraus_stack
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


def liouville(spec: ChannelSpec) -> np.ndarray:
    """Liouville matrix sum_k K (x) conj(K) of a crossing, shape (..., 16, 16)
    over array p and mu: entry [(a, b), (c, d)] is sum_k K_ac conj(K_bd)."""
    scales, ops = kraus_stack(spec.kind, spec.p, spec.mu)
    if ops.ndim == 3:  # one operator set for every point: weight its Liouville matrices
        lv = scales ** 2 @ tensor(ops, ops.conj()).reshape(len(ops), 256)
        return lv.reshape(*lv.shape[:-1], 16, 16)
    x = np.moveaxis(scales[..., None, None] * ops, -3, -1)  # [..., a, c, k]
    lv = x[..., :, None, :, :] @ np.swapaxes(x.conj(), -1, -2)[..., None, :, :, :]
    return lv.reshape(*lv.shape[:-4], 16, 16)


def _cross(spec: ChannelSpec, rho: np.ndarray) -> np.ndarray:
    out = liouville(spec) @ rho.reshape(*rho.shape[:-2], 16, 1)
    return out.reshape(*out.shape[:-2], 4, 4)


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
