"""Kraus families for dephasing, depolarizing and amplitude-damping noise,
in memoryless and correlated (memory mu) two-use forms.

A channel is used twice per game round: the two-qubit state crosses it once
on the way from the arbiter to the players and once on the way back.  The
two qubits are the channel's two consecutive uses, so the memory parameter
``mu`` is the probability that both qubits suffer identical errors instead
of independent ones during that crossing.
"""

from __future__ import annotations

import enum
from collections import namedtuple

import numpy as np

from .qmat import PAULI, RangeChecked, dagger


class ChannelKind(enum.Enum):
    DEPHASING = "ph"
    AMPLITUDE_DAMPING = "ad"
    DEPOLARIZING = "d"


class ChannelSpec(RangeChecked, namedtuple("ChannelSpec", "kind p mu", defaults=(0.0,))):
    """One channel crossing: noise kind, decoherence p, memory mu (p, then mu
    range-checked).  Arrays of p and mu describe a batch of crossings of one kind."""

    __slots__ = ()


# A finite Kraus family; weights are folded into the operators.
KrausSet = namedtuple("KrausSet", "operators")


def _pauli_probs(kind: ChannelKind, p) -> dict:
    """Single-use Pauli error distribution of the Pauli-type channels, as
    {Pauli index: probability over p} on the family's error support."""
    if kind is ChannelKind.DEPHASING:
        return {0: 1.0 - p / 2.0, 3: p / 2.0}
    if kind is ChannelKind.DEPOLARIZING:
        return {0: 1.0 - p, 1: p / 3.0, 2: p / 3.0, 3: p / 3.0}
    raise ValueError(f"{kind} is not a Pauli-type channel")


def _ad_elements(p) -> np.ndarray:
    """Single-use amplitude-damping Kraus pair with cos(chi) = sqrt(1-p),
    shape (..., 2, 2, 2) over p.

    This channel damps |0> toward |1>: |01>, |10>, |11> and their mixtures
    pass undisturbed while the |0> amplitude decays.
    """
    ops = np.zeros(np.shape(p) + (2, 2, 2), dtype=complex)
    ops[..., 0, 0, 0], ops[..., 0, 1, 1] = np.sqrt(1.0 - p), 1.0
    ops[..., 1, 1, 0] = np.sqrt(p)
    return ops


def single_use_kraus(kind: ChannelKind, p: float) -> KrausSet:
    """Kraus operators for one qubit crossing the channel once; p is trusted
    (``ChannelSpec`` validates it)."""
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        return KrausSet(tuple(_ad_elements(p)))
    probs = _pauli_probs(kind, p)
    return KrausSet(tuple(np.sqrt(w) * PAULI[i] for i, w in sorted(probs.items())))


def pair_weights(kind: ChannelKind, p, mu) -> np.ndarray:
    """Joint Pauli-error weights of the channel's two consecutive uses, shape
    (..., 4, 4) over Pauli indices (I, X, Y, Z), broadcast over p and mu, and
    zero off the family's error support.

    w_ij = p_i * [(1 - mu) p_j + mu * delta_ij]: with probability 1-mu the
    two qubits draw independent errors, with probability mu identical ones
    (Macchiavello and Palma, PRA 65, 050301(R)).  The correlated
    amplitude-damping pair has no such form, and ``_pauli_probs`` rejects
    it.  p and mu are trusted (``ChannelSpec`` validates them).
    """
    probs = np.zeros(np.broadcast(p, mu).shape + (4,))
    for i, w in _pauli_probs(kind, p).items():
        probs[..., i] = w
    mu = np.asarray(mu)[..., None, None]
    return probs[..., :, None] * ((1.0 - mu) * probs[..., None, :] + mu * np.eye(4))


def two_use_kraus(spec: ChannelSpec) -> KrausSet:
    """Kraus family of one crossing at one channel point, as the literal
    mixture: weight 1-mu on the tensor products of single-use elements
    (independent errors on the two qubits), then weight mu on the correlated
    set (identical Pauli pairs sqrt(p_i) P_i (x) P_i, or the joint
    amplitude-damping pair that damps |00> to |11>).  The operators of a
    group whose weight is zero are dropped."""
    single = single_use_kraus(spec.kind, spec.p).operators
    if spec.kind is ChannelKind.AMPLITUDE_DAMPING:
        (e0, e1), cor = single, np.zeros((2, 4, 4), dtype=complex)
        cor[0], cor[1, 3, 0] = np.diag([e0[0, 0], 1, 1, 1]), e1[1, 0]
    else:
        cor = [np.sqrt(w) * np.kron(PAULI[i], PAULI[i])
               for i, w in sorted(_pauli_probs(spec.kind, spec.p).items())]
    groups = ((1.0 - spec.mu, [np.kron(a, b) for a in single for b in single]),
              (spec.mu, cor))
    return KrausSet(tuple(np.sqrt(w) * op for w, group in groups if w > 0.0
                          for op in group))


def apply_channel(ks: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action sum_k K rho K^dag."""
    return sum(k @ rho @ dagger(k) for k in ks.operators)
