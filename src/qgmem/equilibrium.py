"""Grid epsilon-Nash certificates and the named case studies over the
quantum strategy space.

A "classical" player is restricted to alpha = beta = 0; the quantum player
searches the full (theta, alpha, beta) grid.  All claims reported by
``case_study`` are computed, never assumed: where a scenario's nominal
claim does not survive the exact dynamics, the report says so.  Each case
is a list of (claim kind, configuration) rows in ``_CASES``, one evaluator
per kind; a claim's payoff curves are one array, from one weight
evaluation per pairing for all its games, stacked on the entries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import ChannelSpec
from .closedform import (Pairing, batch_weights, closed_payoff, grid_maxima, payoff_surface,
                         stacked_entries)
from .games import GAME_NAMES, Bimatrix, builtin_game, classical_pure_nash
from .protocol import EntanglementParams, StrategyParams
from .qmat import DOMAINS

PI = math.pi

DEFAULT_EPSILON = 1e-6

# (p, mu) sample grid used by the equilibrium certificates.
PM_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
MU_GRID_11 = tuple(i / 10 for i in range(11))
# Where mu = 0, 0.5 and 1 sit in MU_GRID_11.
_MU_SUBSET = tuple(MU_GRID_11.index(m) for m in (0.0, 0.5, 1.0))


@dataclass(frozen=True)
class StrategySpace:
    """The quantum player's search grid over each angle's DOMAINS row, ends included."""

    theta_points: int = 13
    alpha_points: int = 17
    beta_points: int = 17

    def __post_init__(self):
        for name in ("theta_points", "alpha_points", "beta_points"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.linspace(*DOMAINS[name][:2], getattr(self, f"{name}_points"))
                     for name in ("theta", "alpha", "beta"))

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The open (sparse) grid: each axis along its own dimension."""
        theta, alpha, beta = self.axes()
        return np.meshgrid(theta, alpha, beta, indexing="ij", sparse=True)


QUANTUM_SPACE = StrategySpace()
# Alice's open grid in every certificate: the default theta axis, alpha = beta = 0.
ALICE_MESH = np.meshgrid(QUANTUM_SPACE.axes()[0], 0.0, 0.0, indexing="ij", sparse=True)


def check_profile(ent: EntanglementParams, ch1: ChannelSpec, ch2: ChannelSpec,
                  profiles: Sequence[tuple[Bimatrix, StrategyParams, StrategyParams]],
                  space: StrategySpace) -> np.ndarray:
    """Exhaustive grid scan of both players' unilateral deviations from each
    (game, s1, s2) profile of ``profiles``, at every channel point of ``ch1``
    and ``ch2`` (whose p and mu may be arrays), in C order: one float array
    indexed (profile, point, column), a [payoff_a, payoff_b, gain_a, gain_b]
    row per point; a float point is one point.  The profile axis leads the
    channel-point axes of every array.  The entries are stacked once, games by
    players.  One weight evaluation gives every profile's payoffs, from one
    ``payoff_surface`` call on the whole stack (of the full shape, see its
    docstring), and both players' deviation scans, one ``grid_maxima`` call
    each on its player's column of the stack (its docstring states the scan
    rule).  Alice is classical by construction and scans ``ALICE_MESH``; Bob
    scans ``space``.  The rows are one array expression: payoffs and gains
    ``np.maximum(best - payoff, 0.0)``, stacked per profile.  Every step is
    elementwise over the profile axis, so each profile's rows have the bits of
    a stack of that profile alone.  Gains are clamped at zero, so an off-grid
    profile that beats its own grid is reported as gain 0 rather than negative;
    a -0.0 difference gives +0.0, as ``max(0.0, d)`` does, and a NaN gives NaN,
    which no epsilon passes.

    At gamma = delta = 0 (case ``i``) every product is zero, so a responder's
    payoff is K + M cos(theta), whatever their alpha and beta.  Its maximum
    lies at theta in {0, pi}, which ``ALICE_MESH`` and every
    ``StrategySpace`` grid contain, so such a certificate is a proof over the
    continuum of strategies."""
    games, ones, twos = zip(*profiles)
    shape = (len(profiles),) + np.broadcast_shapes(
        *map(np.shape, (ch1.p, ch1.mu, ch2.p, ch2.mu)))
    nd = len(shape) - 1

    def angles(states, units):
        """theta, alpha and beta of ``states``: the profile axis, then ``units``
        unit axes."""
        return np.reshape(np.transpose([s.angles for s in states]), (3, -1) + (1,) * units)

    entries = stacked_entries([(g.a, g.b) for g in games], nd)
    w = batch_weights(ent, ch1, ch2)
    pay = payoff_surface(w, entries, ent, *angles(ones, nd + 1), *angles(twos, nd + 1))
    best = np.stack([
        grid_maxima(w, entries[:, :, 0], ent, shape, *ALICE_MESH, *angles(twos, nd + 3)),
        grid_maxima(w, entries[:, :, 1], ent, shape,
                    *angles(ones, nd + 3), *space.mesh())], axis=1)
    rows = np.concatenate([pay, np.maximum(best - pay, 0.0)], axis=1)
    return np.moveaxis(rows, 1, -1).reshape(len(profiles), -1, 4)


# --------------------------------------------------------------------------
# case studies
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class CaseClaim:
    label: str
    passed: bool
    detail: str
    # A certificate's ``cli.GAIN_COLUMNS`` over (profile, point), for ``cli.table_rows``;
    # None for every other claim.  Left out of == and hash, which arrays break.
    gains: tuple | None = field(default=None, compare=False)


@dataclass
class CaseReport:
    """A case's claims, in report order: it is certified iff each one with gains passed."""

    case_id: str
    # The quantum player's grid, on which every certificate scans Bob.
    space: StrategySpace
    claims: list[CaseClaim] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [f"case {self.case_id}:"] + [
            f"  [{'pass' if c.passed else 'FAIL'}] {c.label}: {c.detail}" for c in self.claims]


# The paper's figures: entanglement, strategies (alpha1 = beta1 = 0
# throughout, Alice is classical) and the curve axes, games by pairings by p
# in plotting order, p fastest; each curve runs over mu = mu1 = mu2 at p = p1 = p2.
Figure = namedtuple("Figure", "ent s1 s2 games pairings ps")
_AD, _D, _PH = Pairing.AD_AD, Pairing.D_D, Pairing.PH_PH
FIGURES = {
    2: Figure(EntanglementParams(0.0, 0.0), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0), GAME_NAMES, (_AD,), (0.8, 0.2)),
    3: Figure(EntanglementParams(PI / 2, 0.0), StrategyParams(PI / 2),
              StrategyParams(PI / 2, PI / 2, 0.0), ("pd", "chicken"), (_AD,), (0.8, 0.2)),
    4: Figure(EntanglementParams(PI / 2, 0.0), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0), ("bos",),
              (_AD, Pairing.D_AD, Pairing.PH_AD), (0.5,)),
    5: Figure(EntanglementParams(0.0, PI / 2), StrategyParams(0.0),
              StrategyParams(PI / 2, 0.0, PI / 2), ("bos",),
              (_AD, Pairing.D_AD, Pairing.PH_AD), (0.5,)),
    6: Figure(EntanglementParams(PI / 2, PI / 2), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0), GAME_NAMES, (_AD,), (0.5,)),
    7: Figure(EntanglementParams(PI / 2, PI / 2), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0), GAME_NAMES, (_D,), (0.5,)),
}


def _monotone(values, sign=1):
    """Along the last axis, consecutive values never fall (sign 1) or never
    rise (sign -1) by more than 1e-12."""
    return np.all(sign * values[..., 1:] >= sign * values[..., :-1] - 1e-12, axis=-1)


def mu_curves(pairings, games, ent, s1, s2, ps, mus=MU_GRID_11):
    """The payoffs over mu = mu1 = mu2 of ``mus`` at each p = p1 = p2 of ``ps``,
    indexed (player, pairing, game, p, mu), that the curve claims and figures
    read: one ``payoff_surface`` call per pairing, players by games stacked on
    the entries (``ent``, ``s1``, ``s2`` at float values); each value has the
    bits of its game's ``closed_payoff_pair`` call at its float p."""
    ch = (np.array(ps, dtype=float)[:, None], np.array(mus, dtype=float))
    entries = stacked_entries([[g.a for g in games], [g.b for g in games]], 2)
    return np.stack([closed_payoff(entries, ent, s1, s2, *pairing.crossings(ch, ch))
                     for pairing in pairings], axis=1)


def _nash(report, label, ent, profiles, why="", over=""):
    """Certify each (pairing, game, s1, s2) profile at every (p, mu) of
    PM_GRID, Alice classical and Bob on ``report.space``: one ``check_profile``
    call per pairing (in first-seen order) fills one (profile, point, column)
    array, the claim's gain table, profiles in order; the worst gain, NaN if
    a gain is NaN, decides the claim."""
    ch = tuple(np.reshape(np.meshgrid(PM_GRID, PM_GRID, indexing="ij"), (2, -1)))
    certs = np.empty((len(profiles), ch[0].size, 4))
    for pairing in dict.fromkeys(pairing for pairing, *_ in profiles):
        stack = [i for i, (other, *_) in enumerate(profiles) if other is pairing]
        certs[stack] = check_profile(ent, *pairing.crossings(ch, ch),
                                     [profiles[i][1:] for i in stack], report.space)
    labels = np.array([(pairing.value, game.name) for pairing, game, *_ in profiles])
    worst = certs[..., 2:].max()
    ok = bool(worst <= DEFAULT_EPSILON)
    report.claims.append(CaseClaim(
        label, ok, f"worst unilateral gain{over} = {worst:.4f}" + ("" if ok else why),
        (report.case_id, *labels.T[:, :, None], *ch, *np.moveaxis(certs, -1, 0))))


def _phase_independence(report, ent):
    """At gamma = delta = 0 Bob's payoff cannot depend on the quantum phases,
    for any pairing: checked over an (alpha2, beta2) grid, all games at once."""
    a2, b2 = np.meshgrid(*StrategySpace(alpha_points=9, beta_points=9).axes()[1:], indexing="ij")
    entries, ch = stacked_entries([g.b for g in _GAMES], 2), (0.35, 0.6)
    s1, s2 = StrategyParams(0.0), StrategyParams(PI / 2, a2, b2)
    worst = np.max([np.ptp(closed_payoff(entries, ent, s1, s2, *pairing.crossings(ch, ch)),
                           axis=(1, 2)) for pairing in Pairing])
    report.claims.append(CaseClaim(
        "phase-independence", bool(worst < 1e-12),
        f"max payoff variation over the (alpha2, beta2) grid = {worst:.3e}"))


def _nondecreasing(report, fig, games, ps):
    """Memory compensation, reported per ad-ad curve of both players."""
    falls = ~_monotone(mu_curves([_AD], games, *fig[:3], ps)[:, 0])
    detail = [f"{games[g].name}/{'AB'[tag]}/p={ps[p]}"
              for g, p, tag in np.argwhere(np.moveaxis(falls, 0, -1))]
    report.claims.append(CaseClaim(
        "memory-compensation (informational)", not detail,
        "payoff nondecreasing in mu for every curve" if not detail
        else "decreasing curves: " + ", ".join(detail)))


def _mu_ordering(report, fig, games, ps):
    """Bob's ad-ad payoff is nondecreasing in mu at both p of ``ps`` = (lo,
    hi), and no larger at hi than at lo for mu in (0, 0.5, 1)."""
    _, [bob] = mu_curves([_AD], games, *fig[:3], ps)
    report.claims.append(CaseClaim(
        "mu-monotonicity", bool(_monotone(bob).all()),
        f"quantum player's payoff nondecreasing in mu at p in {{{ps[0]}, {ps[1]}}}"))
    report.claims.append(CaseClaim(
        "decoherence hurts",
        bool(_monotone(np.swapaxes(bob[..., _MU_SUBSET], -1, -2), -1).all()),
        f"payoff at p={ps[1]} <= payoff at p={ps[0]}"))


def _least(values):
    """Along the last axis, the first least value, as ``min`` picks it, or
    the first NaN (``np.argmin`` takes NaN for least): a NaN never passes a
    claim."""
    return np.take_along_axis(values, np.argmin(values, axis=-1, keepdims=True), -1)[..., 0]


def _advantage(report, fig, pairings):
    """Bob's least margin over Alice in bos at p = 0.5, per pairing."""
    alice, bob = mu_curves(pairings, [_BOS], *fig[:3], (0.5,))
    margins = _least((bob - alice)[:, 0, 0])
    report.claims.append(CaseClaim(
        "quantum advantage (bos, p=0.5)", bool((margins > 0).all()),
        "; ".join(f"{pr.value}: min margin {m:+.4f}" for pr, m in zip(pairings, margins))))


def _equal_payoffs(report, label, fig, pairings):
    alice, bob = mu_curves(pairings, _GAMES, *fig[:3], (0.3, 0.7), (0.0, 0.5, 1.0))
    worst = np.max(abs(alice - bob))
    report.claims.append(CaseClaim(
        label, bool(worst < 1e-9), f"max |payoff_A - payoff_B| = {worst:.3e}"))


def _noiseless_distance(report, label, pairing, fig, games, ps, exact=False):
    """Bob's distance over mu from his noiseless payoff (p = ps[0] = 0, mu = 0),
    per game and later p, never grows; an ``exact`` claim's one curve also
    falls from above 1e-3 to 0.  Checked at theta1 = theta2 = pi/2, where the
    noise acts (at theta1 = 0 these payoffs are noise-independent)."""
    _, [bob] = mu_curves([pairing], games, *fig[:3], ps)
    dists = abs(bob[:, 1:] - bob[:, :1, :1])
    ok = bool(_monotone(dists, -1).all())
    if exact:
        [[d]] = dists
        report.claims.append(CaseClaim(
            label, bool(ok and d[0] > 1e-3 and d[-1] < 1e-12),
            f"distance to noiseless payoff falls from {d[0]:.4f} to {d[-1]:.1e}"))
        return
    spread = dists[..., -1].max()
    report.claims.append(CaseClaim(label, ok, (
        "distance to the noiseless payoff shrinks with mu"
        + (f"; residual at mu=1: {spread:.4f}" if spread > 1e-12 else ", to zero"))
        if ok else "distance to the noiseless payoff is not monotone in mu "
                   "(grows with mu for chicken)"))


def _max_noise_advantage(report, fig, mus):
    """Bob's least margin over Alice at p = 1 over every pairing, game and mu
    of ``mus``, and the first place it occurs."""
    alice, bob = mu_curves(Pairing, _GAMES, *fig[:3], (1.0,), mus)
    margins = (bob - alice)[:, :, 0]
    i, g, m = np.unravel_index(np.argmin(margins), margins.shape)  # as in ``_least``
    worst, where = margins[i, g, m], f"{list(Pairing)[i].value}/{_GAMES[g].name}/mu={mus[m]}"
    report.claims.append(CaseClaim(
        "advantage at maximum noise (p=1)", bool(worst > 0),
        f"min Bob-Alice margin = {worst:+.4f} at {where}"
        + ("" if worst > 0 else
           " (zero for the AD-slotted pairings, negative for the rest)")))


_GAMES = _PD, _BOS, _CHICKEN = tuple(map(builtin_game, GAME_NAMES))

# Each case's claims, in report order, as (claim kind, configuration) rows: a
# kind is an evaluator that appends its claim(s) to the report, given its
# configuration; ``_nash`` reads the quantum player's grid off the report.
_CASES = {
    "i": [
        (_phase_independence, dict(ent=FIGURES[2].ent)),
        (_nondecreasing, dict(fig=FIGURES[2], games=_GAMES, ps=(0.2, 0.8))),
        # Classical equilibria under noise, certified on the (p, mu) grid.
        (_nash, dict(
            label="nash: classical equilibria unchanged", ent=FIGURES[2].ent,
            profiles=[(pairing, game, StrategyParams(PI * i), StrategyParams(PI * j))
                      for game in _GAMES for i, j in sorted(classical_pure_nash(game))
                      for pairing in (_PH, _AD, _D)],
            why=" (fails at extreme noise, e.g. amplitude damping at p=mu=1 "
                "inverts the effective moves)", over=" over games/pairings/grid")),
    ],
    "ii-a": [(_mu_ordering, dict(fig=FIGURES[3], games=(_PD, _CHICKEN), ps=(0.2, 0.8)))],
    "ii-b": [
        (_advantage, dict(fig=FIGURES[4], pairings=(_AD,))),
        (_nash, dict(
            label="nash: nominal profile", ent=FIGURES[4].ent,
            profiles=[(_AD, _BOS, FIGURES[4].s1, FIGURES[4].s2)],
            why=" (the quantum player's best response to theta1=0 is the theta2=0 "
                "family; the nominal profile is not an equilibrium)")),
    ],
    "ii-c": [(_advantage, dict(fig=FIGURES[4], pairings=(Pairing.PH_AD, Pairing.D_AD)))],
    "ii-d": [
        (_equal_payoffs, dict(label="equal payoffs (unital pairings)", fig=FIGURES[4],
                              pairings=(_PH, _D))),
        (_noiseless_distance, dict(
            label="memory moderates decoherence (dephasing)", pairing=_PH, fig=FIGURES[3],
            games=(_PD,), ps=(0.0, 0.6), exact=True)),
    ],
    "iii-a": [
        (_advantage, dict(fig=FIGURES[5], pairings=(_D,))),
        (_nash, dict(
            label="nash: nominal profile", ent=FIGURES[5].ent,
            profiles=[(_D, _BOS, FIGURES[5].s1, FIGURES[5].s2)],
            why=" (with theta1=0 and gamma=0 every interference term vanishes; "
                "the payoffs at the profile are equal and the profile is not an "
                "equilibrium)")),
    ],
    "iii-b": [(_equal_payoffs, dict(label="equal payoffs (ph-ph, ad-ad)", fig=FIGURES[5],
                                    pairings=(_PH, _AD)))] + [
        (_noiseless_distance, dict(
            label=f"memory compensation ({tag})", pairing=pairing,
            fig=FIGURES[5]._replace(s1=StrategyParams(PI / 2)), games=(_PD, _CHICKEN),
            ps=(0.0, 0.2, 0.8)))
        for pairing, tag in ((_PH, "dephasing"), (_AD, "amplitude damping"))],
    "iii-c": [(_advantage, dict(fig=FIGURES[5], pairings=(Pairing.PH_AD, Pairing.D_AD)))],
    "iv": [
        (_max_noise_advantage, dict(fig=FIGURES[6], mus=(0.25, 0.5, 0.75, 1.0))),
        (_nash, dict(label="nash: figure profile (bos, ad-ad)", ent=FIGURES[6].ent,
                     profiles=[(_AD, _BOS, FIGURES[6].s1, FIGURES[6].s2)])),
    ],
}
CASE_IDS = tuple(_CASES)


def case_study(case_id: str,
               quantum_space: StrategySpace = QUANTUM_SPACE) -> CaseReport:
    """Run one named case study; every claim's status is computed."""
    if case_id not in _CASES:
        raise KeyError(f"unknown case id {case_id!r}; choose from {', '.join(CASE_IDS)}")
    report = CaseReport(case_id, quantum_space)
    for kind, config in _CASES[case_id]:
        kind(report, **config)
    return report
