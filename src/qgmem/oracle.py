"""Brute-force density-matrix simulation of the full game round, used as
ground truth against the closed-form payoffs.

The round is: arbiter prepares the entangled pair, the pair crosses channel
1 (its two qubits are that channel's two correlated uses), the players apply
their local unitaries, the pair crosses channel 2.  ``two_pass_state`` gives
the final state; the arbiter's measurement is ``protocol.measure_payoff``.
Nothing here shares code with the closed-form expressions; the only common
ground is the protocol primitives (state, unitaries, payoff operators) and
the Kraus families themselves.

Crossings take two cheap forms (Wood, Biamonte and Cory, arXiv:1111.6950):
a Pauli channel scales the Pauli coefficients of rho by lambda = w @ chi
(joint weights w from ``channels.pair_weights``, sign table chi over the 16
fixed Pauli pairs), and amplitude damping acts entrywise.  The tests hold
both to the literal Kraus mixtures through the operator-sum route and, as
maps, through the Choi matrix of the Liouville matrix that
``tests/reference.py`` builds from ``_cross``.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelKind, ChannelSpec, _ad_elements, pair_weights
from .protocol import (EntanglementParams, StrategyParams, initial_density,
                       strategy_unitary)
from .qmat import PAULI, dagger, tensor

_PAULI_PAIRS = tensor(np.array(PAULI)[:, None], np.array(PAULI)[None, :]).reshape(16, 4, 4)
_PAULI_VEC = _PAULI_PAIRS.reshape(16, 16)  # row ab is vec(kron(P_a, P_b))
# chi[ij, ab] = Tr(P_ij P_ab P_ij^dag P_ab) / 4 = +-1, with P_ij = kron(P_i, P_j).
_CHI = np.einsum("kij,ajl,kml,ami->ka", _PAULI_PAIRS, _PAULI_PAIRS, _PAULI_PAIRS.conj(),
                 _PAULI_PAIRS).real / 4


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
    w = pair_weights(spec.kind, spec.p, spec.mu)
    lam = w.reshape(*w.shape[:-2], 16) @ _CHI
    coeff = rho.reshape(*rho.shape[:-2], 16) @ _PAULI_VEC.conj().T / 4  # Tr(P_ab rho) / 4
    out = (lam * coeff) @ _PAULI_VEC
    return out.reshape(*out.shape[:-1], 4, 4)


def two_pass_state(ent: EntanglementParams, s1: StrategyParams, s2: StrategyParams,
                   ch1: ChannelSpec, ch2: ChannelSpec) -> np.ndarray:
    """Final 4x4 density matrix after channel 1, the strategies, channel 2.

    Array parameters (of matching shapes) give a stack of rounds, shape
    (..., 4, 4); float parameters give one round.
    """
    rho = _cross(ch1, initial_density(ent.gamma))
    u = tensor(strategy_unitary(s1), strategy_unitary(s2))
    return _cross(ch2, u @ rho @ dagger(u))
