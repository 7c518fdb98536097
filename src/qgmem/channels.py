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
import math
from dataclasses import dataclass

import numpy as np

from .qmat import PAULI, check_range, dagger, max_abs, tensor


class ChannelKind(enum.Enum):
    DEPHASING = "ph"
    AMPLITUDE_DAMPING = "ad"
    DEPOLARIZING = "d"


@dataclass(frozen=True)
class ChannelSpec:
    """One channel crossing: noise kind, decoherence p, memory mu."""

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


def _ad_elements(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-use amplitude-damping Kraus pair with cos(chi) = sqrt(1-p).

    This channel damps |0> toward |1>: |01>, |10>, |11> and their mixtures
    pass undisturbed while the |0> amplitude decays.
    """
    cos_chi = math.sqrt(1.0 - p)
    sin_chi = math.sqrt(p)
    a0 = np.array([[cos_chi, 0], [0, 1]], dtype=complex)
    a1 = np.array([[0, 0], [sin_chi, 0]], dtype=complex)
    return a0, a1


def single_use_kraus(kind: ChannelKind, p: float) -> KrausSet:
    """Kraus operators for one qubit crossing the channel once."""
    check_range("p", p, 0.0, 1.0, "[0, 1]")
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        return KrausSet(_ad_elements(p))
    probs = _pauli_probs(kind, p)
    return KrausSet(tuple(math.sqrt(w) * PAULI[i] for i, w in sorted(probs.items())))


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


def _correlated_ad_pair(p: float) -> tuple[np.ndarray, np.ndarray]:
    """The non-factorizable correlated amplitude-damping pair (4x4)."""
    cos_chi = math.sqrt(1.0 - p)
    sin_chi = math.sqrt(p)
    a00 = np.diag([cos_chi, 1.0, 1.0, 1.0]).astype(complex)
    a11 = np.zeros((4, 4), dtype=complex)
    a11[3, 0] = sin_chi
    return a00, a11


def two_use_kraus(spec: ChannelSpec) -> KrausSet:
    """4x4 Kraus family for one crossing of the two-qubit state.

    Convex mixture: weight (1-mu) on tensor products of single-use elements
    (independent errors on the two qubits), weight mu on the correlated set
    (identical Pauli pairs, or the joint amplitude-damping pair).  Operators
    with zero scale are dropped.
    """
    ops: list[np.ndarray] = []
    sq_unc = math.sqrt(1.0 - spec.mu)
    sq_cor = math.sqrt(spec.mu)

    if spec.kind is ChannelKind.AMPLITUDE_DAMPING:
        singles = _ad_elements(spec.p)
        if sq_unc > 0.0:
            ops.extend(sq_unc * tensor(a, b) for a in singles for b in singles)
        if sq_cor > 0.0:
            ops.extend(sq_cor * k for k in _correlated_ad_pair(spec.p))
        return KrausSet(tuple(ops))

    probs = _pauli_probs(spec.kind, spec.p)
    if sq_unc > 0.0:
        ops.extend(
            sq_unc * math.sqrt(pi * pj) * tensor(PAULI[i], PAULI[j])
            for i, pi in sorted(probs.items())
            for j, pj in sorted(probs.items())
        )
    if sq_cor > 0.0:
        # The correlated sum must run over the channel's full error index
        # set; anything less is not trace-preserving.
        ops.extend(
            sq_cor * math.sqrt(pi) * tensor(PAULI[i], PAULI[i])
            for i, pi in sorted(probs.items())
        )
    return KrausSet(tuple(ops))


def verify_completeness(ks: KrausSet, tol: float = 1e-12) -> tuple[bool, float]:
    """Check sum_k K^dag K = I; returns (ok, max entrywise deviation)."""
    dim = ks.dim
    acc = np.zeros((dim, dim), dtype=complex)
    for k in ks.operators:
        acc += dagger(k) @ k
    deviation = max_abs(acc - np.eye(dim))
    return deviation <= tol, deviation


def apply_channel(ks: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Operator-sum action sum_k K rho K^dag."""
    out = np.zeros_like(rho, dtype=complex)
    for k in ks.operators:
        out += k @ rho @ dagger(k)
    return out
