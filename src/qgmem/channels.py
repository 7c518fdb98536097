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
from dataclasses import dataclass

import numpy as np

from .qmat import PAULI, check_range, dagger, max_abs, tensor


class ChannelKind(enum.Enum):
    DEPHASING = "ph"
    AMPLITUDE_DAMPING = "ad"
    DEPOLARIZING = "d"


@dataclass(frozen=True)
class ChannelSpec:
    """One channel crossing: noise kind, decoherence p, memory mu.  Arrays of
    p and mu describe a batch of crossings of one kind."""

    kind: ChannelKind
    p: float
    mu: float = 0.0

    def __post_init__(self):
        check_range("p", self.p, 0.0, 1.0, "[0, 1]")
        check_range("mu", self.mu, 0.0, 1.0, "[0, 1]")


@dataclass(frozen=True)
class KrausSet:
    """A finite Kraus family; weights are folded into the operators."""

    operators: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def _pauli_probs(kind: ChannelKind, p: float) -> dict[int, float]:
    """Single-use Pauli error distribution for the Pauli-type channels."""
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
    """Kraus operators for one qubit crossing the channel once."""
    check_range("p", p, 0.0, 1.0, "[0, 1]")
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        return KrausSet(tuple(_ad_elements(p)))
    probs = _pauli_probs(kind, p)
    return KrausSet(tuple(np.sqrt(w) * PAULI[i] for i, w in sorted(probs.items())))


def pair_weights(kind: ChannelKind, p: float, mu: float) -> dict[tuple[int, int], float]:
    """Joint Pauli-error weights for the channel's two consecutive uses.

    w_ij = p_i * [(1 - mu) p_j + mu * delta_ij]: with probability 1-mu the
    two qubits draw independent errors, with probability mu identical ones.
    Only the Pauli-type channels admit this form; the correlated
    amplitude-damping pair is not a weighted product of single-use elements.
    """
    check_range("p", p, 0.0, 1.0, "[0, 1]")
    check_range("mu", mu, 0.0, 1.0, "[0, 1]")
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        raise ValueError(
            "amplitude damping has no Pauli pair weights; "
            "use two_use_kraus for its correlated form"
        )
    probs = _pauli_probs(kind, p)
    return {
        (i, j): pi * ((1.0 - mu) * pj + (mu if i == j else 0.0))
        for i, pi in sorted(probs.items())
        for j, pj in sorted(probs.items())
    }


# kron(P_i, P_j) for every pair of Pauli indices, shape (4, 4, 4, 4).
_PAULI_PAIRS = tensor(np.array(PAULI)[:, None], np.array(PAULI)[None, :])
# Operators in the uncorrelated group of each family's two-use stack.
_UNCORRELATED = {ChannelKind.DEPHASING: 4, ChannelKind.DEPOLARIZING: 16,
                 ChannelKind.AMPLITUDE_DAMPING: 4}


def kraus_stack(kind: ChannelKind, p, mu) -> tuple[np.ndarray, np.ndarray]:
    """4x4 Kraus operators of one crossing over arrays p and mu, as (scales,
    ops): operator k is scales[..., k] * ops[..., k, :, :].  The Pauli families
    share constant ops, shape (K, 4, 4); amplitude damping's depend on p.

    Convex mixture: weight (1-mu) on tensor products of single-use elements
    (independent errors on the two qubits), then weight mu on the correlated
    set (identical Pauli pairs, or the joint amplitude-damping pair that damps
    |00> to |11>).  Each scale is the square root of its operator's weight.
    """
    sq_unc, sq_cor = np.sqrt(1.0 - mu), np.sqrt(mu)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        single = _ad_elements(p)
        unc = tensor(single[..., :, None, :, :], single[..., None, :, :, :])
        cor = np.zeros(np.shape(p) + (2, 4, 4), dtype=complex)
        cor[..., 0, :, :] = np.eye(4)
        cor[..., 0, 0, 0], cor[..., 1, 3, 0] = single[..., 0, 0, 0], single[..., 1, 1, 0]
        ops = np.concatenate([unc.reshape(*unc.shape[:-4], 4, 4, 4), cor], axis=-3)
        scales = [sq_unc] * 4 + [sq_cor] * 2
    else:
        probs = sorted(_pauli_probs(kind, p).items())
        idx = [i for i, _ in probs]
        # The correlated sum must run over the channel's full error index
        # set; anything less is not trace-preserving.
        ops = np.concatenate([_PAULI_PAIRS[np.ix_(idx, idx)].reshape(-1, 4, 4),
                              _PAULI_PAIRS[idx, idx]])
        scales = [sq_unc * np.sqrt(pi * pj) for _, pi in probs for _, pj in probs] \
            + [sq_cor * np.sqrt(pi) for _, pi in probs]
    return np.stack(np.broadcast_arrays(*scales), axis=-1), ops


def two_use_kraus(spec: ChannelSpec) -> KrausSet:
    """``kraus_stack`` at one channel point, with the operators of a group
    whose weight is zero dropped."""
    scales, ops = kraus_stack(spec.kind, spec.p, spec.mu)
    ops = scales[..., None, None] * ops
    n = _UNCORRELATED[spec.kind]
    groups = ((ops[:n], spec.mu < 1.0), (ops[n:], spec.mu > 0.0))
    return KrausSet(tuple(op for group, weighted in groups if weighted for op in group))


def verify_completeness(ks: KrausSet, tol: float = 1e-12) -> tuple[bool, float]:
    """Check sum_k K^dag K = I; returns (ok, max entrywise deviation)."""
    acc = sum(dagger(k) @ k for k in ks.operators)
    deviation = max_abs(acc - np.eye(ks.dim))
    return deviation <= tol, deviation


def apply_channel(ks: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action sum_k K rho K^dag."""
    return sum(k @ rho @ dagger(k) for k in ks.operators)
