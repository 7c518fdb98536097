"""Grid epsilon-Nash certificates and the named case studies over the
quantum strategy space.

A "classical" player is restricted to alpha = beta = 0; the quantum player
searches the full (theta, alpha, beta) grid.  All claims reported by
``case_study`` are computed, never assumed: where a scenario's nominal
claim does not survive the exact dynamics, the report says so.  Each case
is a list of (claim kind, configuration) rows in ``_CASES``, one evaluator
per kind; a claim's payoff curves come from one weight evaluation per
pairing for all its games, stacked on the entries.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .closedform import (Pairing, angle_terms, batch_weights, closed_payoff_pair,
                         live_products, payoff_coeffs, payoff_surface, stacked_entries,
                         sum_products)
from .games import GAME_NAMES, Bimatrix, builtin_game, classical_pure_nash
from .protocol import EntanglementParams, StrategyParams

PI = math.pi

DEFAULT_EPSILON = 1e-6
# The keys of one certificate's gain row, in ``nash --csv`` column order.
GAIN_COLUMNS = ("case", "pairing", "game", "p", "mu",
                "payoff_a", "payoff_b", "gain_a", "gain_b")

# (p, mu) sample grid used by the equilibrium certificates.
PM_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
MU_GRID_11 = tuple(i / 10 for i in range(11))
# Where mu = 0, 0.5 and 1 sit in MU_GRID_11.
_MU_SUBSET = tuple(MU_GRID_11.index(m) for m in (0.0, 0.5, 1.0))


@dataclass(frozen=True)
class StrategySpace:
    """Search grid for one player; endpoints are always included."""

    theta_points: int = 13
    alpha_points: int = 17
    beta_points: int = 17
    classical_only: bool = False

    def __post_init__(self):
        for name in ("theta_points", "alpha_points", "beta_points"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        theta = np.linspace(0.0, PI, self.theta_points)
        if self.classical_only:
            zero = np.zeros(1)
            return theta, zero, zero
        alpha = np.linspace(-PI, PI, self.alpha_points)
        beta = np.linspace(-PI, PI, self.beta_points)
        return theta, alpha, beta

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The open (sparse) grid: each axis along its own dimension."""
        theta, alpha, beta = self.axes()
        return np.meshgrid(theta, alpha, beta, indexing="ij", sparse=True)


CLASSICAL_SPACE = StrategySpace(classical_only=True)
QUANTUM_SPACE = StrategySpace()


def check_profile(
    pairing: Pairing,
    game: Bimatrix,
    ent: EntanglementParams,
    ch1: tuple[float, float],
    ch2: tuple[float, float],
    profile: tuple[StrategyParams, StrategyParams],
    space_a: StrategySpace,
    space_b: StrategySpace,
) -> list[tuple[float, float, float, float]]:
    """Exhaustive grid scan of both players' unilateral deviations, at every
    channel point of ``ch1`` and ``ch2`` (whose p and mu may be arrays), in C
    order, as one (payoff_a, payoff_b, gain_a, gain_b) tuple per point; a
    float point gives a one-element list.  One ``closed_payoff_pair`` call
    gives the profile payoffs at all points, and one weight evaluation the
    coefficient table.  Per deviation grid, one broadcast gives the sector
    sums of all points (points by theta) and one ``max`` their maxima; a
    point with a live phase product is then scanned whole with
    ``sum_products`` into two buffers per grid, of the broadcast shape of
    the grid's angles.  Gains are clamped at zero, so an off-grid profile
    that beats its own grid is reported as gain 0 rather than negative.

    A scan adds only the phase products that can be non-zero
    (``closedform.live_products``), and builds only their full-size terms.
    A product is dead over the grid when its coefficient columns are all 0
    (gamma = 0 or delta = 0 zero the f factors) or its amplitude
    0.25 n sin(gamma) or 0.25 n sin(delta) is (gamma = 0 zeroes the gamma
    term, delta = 0 the delta term, a fixed theta = 0 both); only then is
    its term built, and it is live iff the term is non-zero somewhere, so
    underflow decides as in the built term.  At a point, a live product
    whose coefficients are all 0 there is skipped too (weight factors
    vanish at some p = 0 or mu = 0 points).  A grid with no live product
    gets no full-size array at all, and a point with none keeps the maximum
    of its sector sum.  A skipped product is +-0 everywhere, so the sum
    keeps its bits but for the sign of a zero, and ``max(0.0, best -
    payoff)`` gives the same gain for either sign of a zero maximum.

    At gamma = delta = 0 (case ``i``) every product is zero, so a responder's
    payoff is K + M cos(theta), whatever their alpha and beta.  Its maximum
    lies at theta in {0, pi}, which every ``StrategySpace`` grid contains, so
    such a certificate is a proof over the continuum of strategies."""
    w = batch_weights(pairing, ent, ch1, ch2)
    one, two = (s.angles for s in profile)
    shape = np.broadcast_shapes(*map(np.shape, (*ch1, *ch2)))
    payoffs = [np.broadcast_to(own, shape).ravel().tolist()
               for own in closed_payoff_pair(pairing, game, ent, *profile, ch1, ch2)]
    best = []
    for entries, grid in ((game.a, (*space_a.mesh(), *two)),
                          (game.b, (*one, *space_b.mesh()))):
        table = [np.broadcast_to(c, shape).ravel() for c in payoff_coeffs(w, entries, ent)]
        sectors, phases = angle_terms(ent, *grid)
        live = live_products(phases, table)
        # The sector sums of all points in one broadcast, points first.
        sums = sum_products(sectors, [np.reshape(c, (-1,) + (1,) * np.ndim(sectors[0]))
                                      for c in table[:4]], ())
        maxima = sums.max(axis=tuple(range(1, sums.ndim)))
        if live:
            bufs = [np.empty(np.broadcast_shapes(*map(np.shape, grid))) for _ in range(2)]
            for i, k in enumerate(zip(*table)):
                products = [prod for idx, prod in live if any(k[j] for j in idx)]
                if products:
                    maxima[i] = sum_products(sectors, k, products, bufs).max()
        best.append(maxima.tolist())
    return [(pa, pb, max(0.0, ba - pa), max(0.0, bb - pb))
            for pa, pb, ba, bb in zip(*payoffs, *best)]


# --------------------------------------------------------------------------
# case studies
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class CaseClaim:
    label: str
    passed: bool
    detail: str


@dataclass
class CaseReport:
    case_id: str
    claims: list[CaseClaim] = field(default_factory=list)
    gain_rows: list[dict] = field(default_factory=list)

    @property
    def nash_certified(self) -> bool:
        """True iff no gain row has a gain above DEFAULT_EPSILON."""
        return all(max(r["gain_a"], r["gain_b"]) <= DEFAULT_EPSILON for r in self.gain_rows)

    def lines(self) -> list[str]:
        out = [f"case {self.case_id}:"]
        for c in self.claims:
            out.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.label}: {c.detail}")
        return out


# The paper's figures: entanglement, strategies (alpha1 = beta1 = 0
# throughout, Alice is classical) and the curve groups (game, pairing, p) in
# plotting order; each curve runs over mu = mu1 = mu2 at p = p1 = p2.
Figure = namedtuple("Figure", "ent s1 s2 groups")
FIGURES = {
    2: Figure(EntanglementParams(0.0, 0.0), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0),
              [(g, "ad-ad", p) for g in GAME_NAMES for p in (0.8, 0.2)]),
    3: Figure(EntanglementParams(PI / 2, 0.0), StrategyParams(PI / 2),
              StrategyParams(PI / 2, PI / 2, 0.0),
              [(g, "ad-ad", p) for g in ("pd", "chicken") for p in (0.8, 0.2)]),
    4: Figure(EntanglementParams(PI / 2, 0.0), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0),
              [("bos", pr, 0.5) for pr in ("ad-ad", "d-ad", "ph-ad")]),
    5: Figure(EntanglementParams(0.0, PI / 2), StrategyParams(0.0),
              StrategyParams(PI / 2, 0.0, PI / 2),
              [("bos", pr, 0.5) for pr in ("ad-ad", "d-ad", "ph-ad")]),
    6: Figure(EntanglementParams(PI / 2, PI / 2), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0),
              [(g, "ad-ad", 0.5) for g in GAME_NAMES]),
    7: Figure(EntanglementParams(PI / 2, PI / 2), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0),
              [(g, "d-d", 0.5) for g in GAME_NAMES]),
}


def _monotone(values, sign=1) -> bool:
    """Consecutive values never fall (sign 1) or never rise (sign -1) by more
    than 1e-12."""
    return all(sign * b >= sign * a - 1e-12 for a, b in zip(values, values[1:]))


def _mu_curves(pairing, games, ent, s1, s2, ps, mus=MU_GRID_11):
    """Per game of ``games``, the (Alice, Bob) payoffs over mu = mu1 = mu2,
    one row per p = p1 = p2 of ``ps``, from one ``payoff_surface`` call with
    games by players stacked on the entries (``ent``, ``s1`` and ``s2`` at
    float values); each value has the bits of its game's
    ``closed_payoff_pair`` call at its float p."""
    ch = (np.array(ps, dtype=float)[:, None], np.array(mus, dtype=float))
    entries = stacked_entries([(g.a, g.b) for g in games], 2)
    return [list(zip(pa.tolist(), pb.tolist())) for pa, pb in
            payoff_surface(pairing, entries, ent, ch, ch, *s1.angles, *s2.angles)]


def _nash_rows(report, pairing, game, ent, s1, s2, space_b, space_a=CLASSICAL_SPACE):
    """Certify a profile at every (p, mu) of PM_GRID and append the gain rows;
    returns the worst gain."""
    points = [(p, m) for p in PM_GRID for m in PM_GRID]
    ch = tuple(np.array(axis) for axis in zip(*points))
    certs = check_profile(pairing, game, ent, ch, ch, (s1, s2), space_a, space_b)
    report.gain_rows += [
        dict(zip(GAIN_COLUMNS, (report.case_id, pairing.value, game.name, p, m, *cert)))
        for (p, m), cert in zip(points, certs)]
    return max(max(ga, gb) for _, _, ga, gb in certs)


def _nash(report, space, label, ent, profiles, why="", over=""):
    """Certify each (pairing, game, s1, s2) profile, in order."""
    worst = max(_nash_rows(report, pairing, game, ent, s1, s2, space)
                for pairing, game, s1, s2 in profiles)
    ok = worst <= DEFAULT_EPSILON
    report.claims.append(CaseClaim(
        label, ok, f"worst unilateral gain{over} = {worst:.4f}" + ("" if ok else why)))


def _phase_independence(report, space, ent):
    """At gamma = delta = 0 Bob's payoff cannot depend on the quantum phases,
    for any pairing: checked over an (alpha2, beta2) grid, all games at once."""
    a2, b2 = np.meshgrid(np.linspace(-PI, PI, 9), np.linspace(-PI, PI, 9), indexing="ij")
    entries = stacked_entries([g.b for g in _GAMES], 2)
    worst = max(float(np.ptp(payoff_surface(pairing, entries, ent, (0.35, 0.6), (0.35, 0.6),
                                            0.0, 0.0, 0.0, PI / 2, a2, b2),
                             axis=(1, 2)).max()) for pairing in Pairing)
    report.claims.append(CaseClaim(
        "phase-independence", worst < 1e-12,
        f"max payoff variation over the (alpha2, beta2) grid = {worst:.3e}"))


def _nondecreasing(report, space, fig, games, ps):
    """Memory compensation, reported per ad-ad curve of both players."""
    detail = [f"{game.name}/{tag}/p={p}"
              for game, rows in zip(games, _mu_curves(Pairing.AD_AD, games, *fig[:3], ps))
              for p, curves in zip(ps, rows)
              for tag, curve in zip("AB", curves) if not _monotone(curve)]
    report.claims.append(CaseClaim(
        "memory-compensation (informational)", not detail,
        "payoff nondecreasing in mu for every curve" if not detail
        else "decreasing curves: " + ", ".join(detail)))


def _mu_ordering(report, space, fig, games, ps):
    """Bob's ad-ad payoff is nondecreasing in mu at both p of ``ps`` = (lo,
    hi), and no larger at hi than at lo for mu in (0, 0.5, 1)."""
    curves = [[b for _, b in rows] for rows in _mu_curves(Pairing.AD_AD, games, *fig[:3], ps)]
    report.claims.append(CaseClaim(
        "mu-monotonicity", all(map(_monotone, sum(curves, []))),
        f"quantum player's payoff nondecreasing in mu at p in {{{ps[0]}, {ps[1]}}}"))
    report.claims.append(CaseClaim(
        "decoherence hurts",
        all(_monotone((lo[i], hi[i]), -1) for lo, hi in curves for i in _MU_SUBSET),
        f"payoff at p={ps[1]} <= payoff at p={ps[0]}"))


def _advantage(report, space, fig, pairings):
    """Bob's least margin over Alice in bos at p = 0.5, per pairing."""
    margins = [min(b - a for a, b in zip(*_mu_curves(pairing, [_BOS], *fig[:3], (0.5,))[0][0]))
               for pairing in pairings]
    report.claims.append(CaseClaim(
        "quantum advantage (bos, p=0.5)", min(margins) > 0,
        "; ".join(f"{pr.value}: min margin {m:+.4f}" for pr, m in zip(pairings, margins))))


def _equal_payoffs(report, space, label, fig, pairings):
    worst = max(abs(a - b) for pairing in pairings
                for rows in _mu_curves(pairing, _GAMES, *fig[:3], (0.3, 0.7), (0.0, 0.5, 1.0))
                for pa, pb in rows for a, b in zip(pa, pb))
    report.claims.append(CaseClaim(
        label, worst < 1e-9, f"max |payoff_A - payoff_B| = {worst:.3e}"))


def _noiseless_distance(report, space, label, pairing, fig, games, ps, exact=False):
    """Bob's distance over mu from his noiseless payoff (p = ps[0] = 0, mu = 0),
    per game and later p, never grows; an ``exact`` claim's one curve also
    falls from above 1e-3 to 0.  Checked at theta1 = theta2 = pi/2, where the
    noise acts (at theta1 = 0 these payoffs are noise-independent)."""
    dists = [[abs(v - noiseless[0]) for v in curve]
             for (_, noiseless), *rows in _mu_curves(pairing, games, *fig[:3], ps)
             for _, curve in rows]
    ok = all(_monotone(d, -1) for d in dists)
    if exact:
        [d] = dists
        report.claims.append(CaseClaim(
            label, ok and d[0] > 1e-3 and d[-1] < 1e-12,
            f"distance to noiseless payoff falls from {d[0]:.4f} to {d[-1]:.1e}"))
        return
    spread = max(d[-1] for d in dists)
    report.claims.append(CaseClaim(label, ok, (
        "distance to the noiseless payoff shrinks with mu"
        + (f"; residual at mu=1: {spread:.4f}" if spread > 1e-12 else ", to zero"))
        if ok else "distance to the noiseless payoff is not monotone in mu "
                   "(grows with mu for chicken)"))


def _max_noise_advantage(report, space, fig, mus):
    """Bob's least margin over Alice at p = 1 over every pairing, game and mu
    of ``mus``, and the first place it occurs."""
    worst, where = min(((pb - pa, f"{pairing.value}/{game.name}/mu={m}")
                        for pairing in Pairing
                        for game, [(curve_a, curve_b)] in zip(
                            _GAMES, _mu_curves(pairing, _GAMES, *fig[:3], (1.0,), mus))
                        for m, pa, pb in zip(mus, curve_a, curve_b)), key=lambda t: t[0])
    report.claims.append(CaseClaim(
        "advantage at maximum noise (p=1)", worst > 0,
        f"min Bob-Alice margin = {worst:+.4f} at {where}"
        + ("" if worst > 0 else
           " (zero for the AD-slotted pairings, negative for the rest)")))


_GAMES = _PD, _BOS, _CHICKEN = tuple(map(builtin_game, GAME_NAMES))
_AD, _D, _PH = Pairing.AD_AD, Pairing.D_D, Pairing.PH_PH

# Each case's claims, in report order, as (claim kind, configuration) rows: a
# kind is an evaluator that appends its claim(s) to the report, given the
# configuration and the quantum player's grid.
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
        raise KeyError(f"unknown case id {case_id!r}; choose from {CASE_IDS}")
    report = CaseReport(case_id)
    for kind, config in _CASES[case_id]:
        kind(report, quantum_space, **config)
    return report
