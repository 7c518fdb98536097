"""Grid epsilon-Nash certificates and the named case studies over the
quantum strategy space.

A "classical" player is restricted to alpha = beta = 0; the quantum player
searches the full (theta, alpha, beta) grid.  All claims reported by
``case_study`` are computed, never assumed: where a scenario's nominal
claim does not survive the exact dynamics, the report says so.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .closedform import (Pairing, angle_terms, batch_weights, closed_payoff_pair,
                         payoff_coeffs, payoff_surface, phase_products, sum_products)
from .games import Bimatrix, builtin_game, classical_pure_nash
from .protocol import EntanglementParams, StrategyParams

PI = math.pi

DEFAULT_EPSILON = 1e-6

# (p, mu) sample grid used by the equilibrium certificates.
PM_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
MU_GRID_11 = tuple(i / 10 for i in range(11))


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
    coefficient table; each point then scans both deviation grids with
    ``sum_products`` into two buffers per grid.  Gains are clamped at zero, so
    an off-grid profile that beats its own grid is reported as gain 0 rather
    than negative.

    A scan adds only the phase products that can be non-zero.  It skips one
    whose angle term is zero over the whole grid (gamma = 0 zeroes the gamma
    term, delta = 0 the delta term, a fixed theta = 0 both) and one whose
    coefficients are all 0 at the point (gamma = 0 or delta = 0 zero the f
    factors; weight factors vanish at some p = 0 or mu = 0 points).  A grid
    with no product left at any point gets no buffers, and a point with none
    left takes its maximum over the small sector sum.  A skipped product is
    +-0 everywhere, so the sum keeps its bits but for the sign of a zero, and
    ``max(0.0, best - payoff)`` gives the same gain for either sign of a zero
    maximum.

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
        terms = angle_terms(ent, *grid)
        table = [np.broadcast_to(c, shape).ravel() for c in payoff_coeffs(w, entries, ent)]
        live = [np.any(term) and any(map(np.any, ks))
                for term, ks, _ in phase_products(terms, table)]
        bufs = ([np.empty(np.broadcast_shapes(*map(np.shape, terms))) for _ in range(2)]
                if any(live) else None)
        maxima = []
        for k in zip(*table):
            products = [prod for prod, on in zip(phase_products(terms, k), live)
                        if on and any(prod[1])]
            maxima.append(float(sum_products(terms, k, products, bufs).max()))
        best.append(maxima)
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
        """True iff every equilibrium certificate in this case passed."""
        return all(c.passed for c in self.claims if c.label.startswith("nash"))

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
              [(g, "ad-ad", p) for g in ("pd", "bos", "chicken") for p in (0.8, 0.2)]),
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
              [(g, "ad-ad", 0.5) for g in ("pd", "bos", "chicken")]),
    7: Figure(EntanglementParams(PI / 2, PI / 2), StrategyParams(0.0),
              StrategyParams(PI / 2, PI / 2, 0.0),
              [(g, "d-d", 0.5) for g in ("pd", "bos", "chicken")]),
}


def _monotone(values, sign=1) -> bool:
    """Consecutive values never fall (sign 1) or never rise (sign -1) by more
    than 1e-12."""
    return all(sign * b >= sign * a - 1e-12 for a, b in zip(values, values[1:]))


def _mu_curves(pairing, game, ent, s1, s2, p, mus=MU_GRID_11):
    """(Alice, Bob) payoffs over mu = mu1 = mu2 at p = p1 = p2."""
    ch = (p, np.array(mus, dtype=float))
    return tuple(v.tolist()
                 for v in closed_payoff_pair(pairing, game, ent, s1, s2, ch, ch))


def _nash_rows(report, pairing, game, ent, s1, s2, space_b, space_a=CLASSICAL_SPACE):
    """Certify a profile at every (p, mu) of PM_GRID and append the gain rows;
    returns the worst gain."""
    points = [(p, m) for p in PM_GRID for m in PM_GRID]
    ch = tuple(np.array(axis) for axis in zip(*points))
    certs = check_profile(pairing, game, ent, ch, ch, (s1, s2), space_a, space_b)
    report.gain_rows += [dict(
        case=report.case_id, pairing=pairing.value, game=game.name, p=p, mu=m,
        payoff_a=pa, payoff_b=pb, gain_a=ga, gain_b=gb,
    ) for (p, m), (pa, pb, ga, gb) in zip(points, certs)]
    return max(max(ga, gb) for _, _, ga, gb in certs)


def _nash_claim(report, label, worst, why="", over=""):
    ok = worst <= DEFAULT_EPSILON
    report.claims.append(CaseClaim(
        label, ok, f"worst unilateral gain{over} = {worst:.4f}" + ("" if ok else why)))


def _case_i(report: CaseReport, quantum_space: StrategySpace) -> None:
    # Phase independence: at gamma = delta = 0 the payoff cannot depend on
    # the quantum phases, for any pairing.
    ent, s1, s2, _ = FIGURES[2]
    worst = 0.0
    alpha = np.linspace(-PI, PI, 9)
    beta = np.linspace(-PI, PI, 9)
    a2, b2 = np.meshgrid(alpha, beta, indexing="ij")
    for pairing in Pairing:
        for game in _GAMES:
            vals = payoff_surface(pairing, game.b, ent, (0.35, 0.6), (0.35, 0.6),
                                  0.0, 0.0, 0.0, PI / 2, a2, b2)
            worst = max(worst, float(vals.max() - vals.min()))
    report.claims.append(CaseClaim(
        "phase-independence", worst < 1e-12,
        f"max payoff variation over the (alpha2, beta2) grid = {worst:.3e}"))

    # Memory compensation in the Fig-2 configuration, reported per curve.
    detail = []
    for game in _GAMES:
        for p in (0.2, 0.8):
            curves = _mu_curves(Pairing.AD_AD, game, ent, s1, s2, p)
            detail += [f"{game.name}/{tag}/p={p}" for tag, curve in zip("AB", curves)
                       if not _monotone(curve)]
    report.claims.append(CaseClaim(
        "memory-compensation (informational)", not detail,
        "payoff nondecreasing in mu for every curve" if not detail
        else "decreasing curves: " + ", ".join(detail)))

    # Classical equilibria under noise, certified on the (p, mu) grid.
    worst = 0.0
    for game in _GAMES:
        for cell in sorted(classical_pure_nash(game)):
            t1, t2 = (0.0 if cell[0] == 0 else PI), (0.0 if cell[1] == 0 else PI)
            for pairing in (Pairing.PH_PH, Pairing.AD_AD, Pairing.D_D):
                worst = max(worst, _nash_rows(report, pairing, game, ent,
                                              StrategyParams(t1), StrategyParams(t2),
                                              quantum_space))
    _nash_claim(report, "nash: classical equilibria unchanged", worst,
                " (fails at extreme noise, e.g. amplitude damping at p=mu=1 "
                "inverts the effective moves)", over=" over games/pairings/grid")


def _case_ii_a(report: CaseReport, quantum_space: StrategySpace) -> None:
    ent, s1, s2, _ = FIGURES[3]
    ok_mono, ok_p = True, True
    for game in (_PD, _CHICKEN):
        for p in (0.2, 0.8):
            curve = _mu_curves(Pairing.AD_AD, game, ent, s1, s2, p)[1]
            ok_mono &= _monotone(curve)
        lo, hi = (_mu_curves(Pairing.AD_AD, game, ent, s1, s2, p, (0.0, 0.5, 1.0))[1]
                  for p in (0.2, 0.8))
        ok_p &= all(_monotone(pair, -1) for pair in zip(lo, hi))
    report.claims.append(CaseClaim(
        "mu-monotonicity", ok_mono,
        "quantum player's payoff nondecreasing in mu at p in {0.2, 0.8}"))
    report.claims.append(CaseClaim(
        "decoherence hurts", ok_p, "payoff at p=0.8 <= payoff at p=0.2"))


def _advantage_claim(report, pairings, fig):
    ok, details = True, []
    for pairing in pairings:
        pa, pb = _mu_curves(pairing, _BOS, fig.ent, fig.s1, fig.s2, 0.5)
        diffs = [b - a for a, b in zip(pa, pb)]
        ok &= min(diffs) > 0
        details.append(f"{pairing.value}: min margin {min(diffs):+.4f}")
    report.claims.append(CaseClaim("quantum advantage (bos, p=0.5)", ok,
                                   "; ".join(details)))


def _case_ii_b(report: CaseReport, quantum_space: StrategySpace) -> None:
    fig = FIGURES[4]
    _advantage_claim(report, (Pairing.AD_AD,), fig)
    worst = _nash_rows(report, Pairing.AD_AD, _BOS, fig.ent, fig.s1, fig.s2,
                       quantum_space)
    _nash_claim(report, "nash: nominal profile", worst,
                " (the quantum player's best response to theta1=0 is the theta2=0 "
                "family; the nominal profile is not an equilibrium)")


def _case_ii_c(report: CaseReport, quantum_space: StrategySpace) -> None:
    _advantage_claim(report, (Pairing.PH_AD, Pairing.D_AD), FIGURES[4])


def _equal_payoffs_claim(report, pairings, fig, label):
    worst = 0.0
    for pairing in pairings:
        for game in _GAMES:
            for p in (0.3, 0.7):
                pa, pb = _mu_curves(pairing, game, fig.ent, fig.s1, fig.s2, p,
                                    (0.0, 0.5, 1.0))
                worst = max(worst, *(abs(a - b) for a, b in zip(pa, pb)))
    report.claims.append(CaseClaim(
        label, worst < 1e-9, f"max |payoff_A - payoff_B| = {worst:.3e}"))


def _case_ii_d(report: CaseReport, quantum_space: StrategySpace) -> None:
    _equal_payoffs_claim(report, (Pairing.PH_PH, Pairing.D_D), FIGURES[4],
                         "equal payoffs (unital pairings)")
    # Memory moderates decoherence: at fixed p, distance from the noiseless
    # payoff shrinks as mu grows (exact for dephasing).  Checked at the
    # theta1 = theta2 = pi/2 profile, where the noise actually acts.
    s1, s2 = FIGURES[3].s1, FIGURES[3].s2
    ref = _mu_curves(Pairing.PH_PH, _PD, FIGURES[4].ent, s1, s2, 0.0, (0.0,))[1][0]
    dist = [abs(v - ref)
            for v in _mu_curves(Pairing.PH_PH, _PD, FIGURES[4].ent, s1, s2, 0.6)[1]]
    ok = dist[0] > 1e-3 and dist[-1] < 1e-12 and _monotone(dist, -1)
    report.claims.append(CaseClaim(
        "memory moderates decoherence (dephasing)", ok,
        f"distance to noiseless payoff falls from {dist[0]:.4f} to {dist[-1]:.1e}"))


def _case_iii_a(report: CaseReport, quantum_space: StrategySpace) -> None:
    fig = FIGURES[5]
    _advantage_claim(report, (Pairing.D_D,), fig)
    worst = _nash_rows(report, Pairing.D_D, _BOS, fig.ent, fig.s1, fig.s2,
                       quantum_space)
    _nash_claim(report, "nash: nominal profile", worst,
                " (with theta1=0 and gamma=0 every interference term vanishes; "
                "the payoffs at the profile are equal and the profile is not an "
                "equilibrium)")


def _case_iii_b(report: CaseReport, quantum_space: StrategySpace) -> None:
    _equal_payoffs_claim(report, (Pairing.PH_PH, Pairing.AD_AD), FIGURES[5],
                         "equal payoffs (ph-ph, ad-ad)")
    # Memory compensation, measured as the distance from the noiseless payoff
    # over mu, at the theta1 = theta2 = pi/2 profile where the noise acts
    # (with theta1 = 0 these payoffs are noise-independent).
    s1, s2, ent = StrategyParams(PI / 2), FIGURES[5].s2, FIGURES[5].ent
    for pairing, tag in ((Pairing.PH_PH, "dephasing"),
                         (Pairing.AD_AD, "amplitude damping")):
        ok, spread = True, 0.0
        for game in (_PD, _CHICKEN):
            ref = _mu_curves(pairing, game, ent, s1, s2, 0.0, (0.0,))[1][0]
            for p in (0.2, 0.8):
                dist = [abs(v - ref) for v in _mu_curves(pairing, game, ent, s1, s2, p)[1]]
                ok &= _monotone(dist, -1)
                spread = max(spread, dist[-1])
        report.claims.append(CaseClaim(
            f"memory compensation ({tag})", ok,
            ("distance to the noiseless payoff shrinks with mu"
             + (f"; residual at mu=1: {spread:.4f}" if spread > 1e-12 else ", to zero"))
            if ok else
            "distance to the noiseless payoff is not monotone in mu "
            "(grows with mu for chicken)"))


def _case_iii_c(report: CaseReport, quantum_space: StrategySpace) -> None:
    _advantage_claim(report, (Pairing.PH_AD, Pairing.D_AD), FIGURES[5])


def _case_iv(report: CaseReport, quantum_space: StrategySpace) -> None:
    ent, s1, s2, _ = FIGURES[6]
    worst_margin, where, mus = math.inf, "", (0.25, 0.5, 0.75, 1.0)
    for pairing in Pairing:
        for game in _GAMES:
            for m, pa, pb in zip(mus, *_mu_curves(pairing, game, ent, s1, s2, 1.0, mus)):
                if pb - pa < worst_margin:
                    worst_margin, where = pb - pa, f"{pairing.value}/{game.name}/mu={m}"
    report.claims.append(CaseClaim(
        "advantage at maximum noise (p=1)", worst_margin > 0,
        f"min Bob-Alice margin = {worst_margin:+.4f} at {where}"
        + ("" if worst_margin > 0 else
           " (zero for the AD-slotted pairings, negative for the rest)")))
    _nash_claim(report, "nash: figure profile (bos, ad-ad)",
                _nash_rows(report, Pairing.AD_AD, _BOS, ent, s1, s2, quantum_space))


_PD = builtin_game("pd")
_BOS = builtin_game("bos")
_CHICKEN = builtin_game("chicken")
_GAMES = (_PD, _BOS, _CHICKEN)

_CASES = {
    "i": _case_i,
    "ii-a": _case_ii_a,
    "ii-b": _case_ii_b,
    "ii-c": _case_ii_c,
    "ii-d": _case_ii_d,
    "iii-a": _case_iii_a,
    "iii-b": _case_iii_b,
    "iii-c": _case_iii_c,
    "iv": _case_iv,
}
CASE_IDS = tuple(_CASES)


def case_study(case_id: str,
               quantum_space: StrategySpace = QUANTUM_SPACE) -> CaseReport:
    """Run one named case study; every claim's status is computed."""
    if case_id not in _CASES:
        raise KeyError(f"unknown case id {case_id!r}; choose from {CASE_IDS}")
    report = CaseReport(case_id)
    _CASES[case_id](report, quantum_space)
    return report
