"""Closed-form payoffs for the nine ordered channel pairings.

Every pairing's payoff shares one structure.  Writing c_i = cos^2(theta_i/2),
s_i = sin^2(theta_i/2), n = sin(theta_1)sin(theta_2) and
xi = (1/2) sin(delta) sin(gamma):

    payoff = sum over sectors q in {c1c2, s1s2, s1c2, c1s2} of
                 q * (w00 e00 + w11 e11 + w01 e01 + w10 e10)
           + xi * f_diag * (e00 - e11) * [ c1c2 cos 2(a1+a2) - s1s2 cos 2(b1+b2) ]
           + xi * f_off  * (e01 - e10) * [ s1c2 cos 2(a2-b1) - c1s2 cos 2(a1-b2) ]
           + (n sin(gamma)/4) * sin(a1+a2-b1-b2)
                 * ( -(g00 e00 + g11 e11) + g_off (e01 + e10) )
           + (n sin(delta)/4)
                 * ( h_diag (e00 - e11) sin(a1+a2+b1+b2)
                   + h_off  (e01 - e10) sin(a1-a2+b1-b2) )

The sector weights and interference factors depend only on the channel
parameters and the entanglement angles.  In every sector the e11 weight is
the e00 weight, and the e10 weight the e01 weight, with cd = cos^2(delta/2)
and sd = sin^2(delta/2) exchanged (a weight free of delta is its own
mirror).  So each pairing's builder states its weights at delta once:
``batch_weights`` calls it at (cd, sd) and at (sd, cd), and ``_damped`` (if
channel 2 damps) or ``_unital`` places both calls' weights in the sectors.
The seven factors follow by one rule from the channels' slot factors:
channel 1 gives a coherence factor coh1 and a population factor pop1,
channel 2 diagonal and off-diagonal coherence factors fd2, fo2 and
measurement weights m00, m11, moff, and

    f_diag = coh1 fd2,  f_off = coh1 fo2,  gXX = coh1 mXX,
    h_diag = fd2 pop1,  h_off = fo2 pop1.

So the delta-interference terms carry channel 2's coherence factor times
channel 1's population factor, and the gamma terms mirror that with the
channel roles reflected.  Coefficients and weights broadcast over arrays of
p, mu, gamma and delta, bit for bit as at float points: a float is a 0-d
input to the same numpy arithmetic, and every square is written as a
product, since ``** 2`` rounds through libm's pow on a scalar but multiplies
on an array.
The other factors do not depend on the channels.  ``angle_terms`` states
them once: the theta-only sector products, of the small shape of the theta
axes, and one row per phase product (the f_diag and f_off brackets, the
gamma term and the delta sines) of its scale and a builder of its parts,
plain arrays.  ``payoff_coeffs`` contracts the entries with the weights
into the factors that multiply them (per channel point and player): four
sector sums and, per row, a group of one factor per part.
``payoff_surface`` builds every phase product and sums them left to right,
one numpy call a step (``sum_products``, which states the product rule).
``grid_maxima`` scans a deviation grid at every channel point; its
docstring states the scan rule.  Both take (weights, entries, ent) first,
like ``payoff_coeffs``: only ``batch_weights`` reads the crossings, so one
weight evaluation gives a profile's payoffs and both deviation scans
(``equilibrium.check_profile``).  Every angle term is elementwise in the
angles, so a profile's slice of a sum built for a stack of fixed angles
has the bits of the sum built from that profile alone.
``closed_payoff``, the entry point from a game point, is ``payoff_surface``
on ``batch_weights``; only the certificates also write those two steps out.
``stacked_entries`` puts entry columns (players, or games by players) on
leading axes of the entries, so one ``closed_payoff`` call gives every
column's payoffs; ``closed_payoff_pair`` gives both players that way.

The expressions are pinned against the independent Kraus-operator
simulation in ``oracle``: the test suite holds the two routes together at
1e-9 for every pairing at arbitrary memory (observed agreement is at
machine precision).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Sequence

import numpy as np

from .channels import ChannelKind, ChannelSpec
from .games import Bimatrix
from .protocol import EntanglementParams, StrategyParams


class Pairing(enum.Enum):
    """Ordered channel-kind pairs: each member's ``first`` and ``second`` crossing's kind."""

    AD_AD = "ad-ad"
    D_D = "d-d"
    PH_PH = "ph-ph"
    PH_AD = "ph-ad"
    AD_PH = "ad-ph"
    AD_D = "ad-d"
    D_AD = "d-ad"
    D_PH = "d-ph"
    PH_D = "ph-d"

    def __init__(self, value: str):
        self.first, self.second = map(ChannelKind, value.split("-"))

    @classmethod
    def from_string(cls, token: str) -> "Pairing":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(
                f"unknown pairing {token!r}; choose from "
                f"{', '.join(p.value for p in cls)}"
            ) from None

    def crossings(self, ch1: tuple, ch2: tuple) -> tuple[ChannelSpec, ChannelSpec]:
        """The two crossings at (p1, mu1) and (p2, mu2): the package's one place
        that builds ``ChannelSpec``s, so each is range-checked once, in the
        order p1, mu1, p2, mu2, and shared by the closed form and the oracle."""
        return ChannelSpec(self.first, *ch1), ChannelSpec(self.second, *ch2)


# --------------------------------------------------------------------------
# per-channel coefficient families
# --------------------------------------------------------------------------
def _half_angle_squares(x):
    """(cos^2(x/2), sin^2(x/2)), squared as products (see module doc)."""
    c, s = np.cos(x / 2), np.sin(x / 2)
    return c * c, s * s


# Amplitude-damping two-use coefficients for one channel crossing.
# chi00/chi11: survival weights of the |00>/|11> populations;
# chi10: coherence factor between the damped and undamped sectors;
# chi01: weight leaking one excitation (uncorrelated branch only);
# chi_a/chi_b: single-qubit leak and keep weights (chi_a + chi_b = 1).
# The identity chi00 + chi11 + 2*chi01 = 1 is exact.
AdCoeffs = namedtuple("AdCoeffs", "chi00 chi11 chi10 chi01 chi_a chi_b")


def ad_coeffs(p: float, mu: float) -> AdCoeffs:
    """p and mu are trusted: the caller's ``ChannelSpec`` checked them."""
    return AdCoeffs(
        chi00=(1 - p) * (1 - p) + mu * (1 - p) * p,
        chi11=p * p + mu * (1 - p) * p,
        chi10=(1 - mu) * (1 - p) + mu * np.sqrt(1 - p),
        chi01=(1 - mu) * (1 - p) * p,
        chi_a=(1 - mu) * p,
        chi_b=(1 - p) + mu * p,
    )


# Depolarizing two-use coefficients for one channel crossing, either slot.
# a, b, d: the weights with which a two-qubit population keeps both bits,
# flips both, or flips one (a + b + 2*d = 1 exactly).  coh_base: the
# coherence factor less its (2/3) mu p term.  ``batch_weights`` states both
# slots' factors from these.
DepolCoeffs = namedtuple("DepolCoeffs", "a b d coh_base")


def depol_coeffs(p: float, mu: float) -> DepolCoeffs:
    """p and mu are trusted: the caller's ``ChannelSpec`` checked them."""
    a = -(1 / 9) * (-3 + 2 * p) * (-2 * p + 2 * mu * p + 3)
    b = -(2 / 9) * p * (-2 * p + 2 * mu * p - 3 * mu)
    p_sq = p * p
    coh_base = -(1 / 9) * (-9 + 24 * p - 18 * mu * p - 16 * p_sq + 16 * mu * p_sq)
    d = (2 / 9) * p * (-3 + 2 * p) * (mu - 1)
    return DepolCoeffs(a, b, d, coh_base)


def dephasing_coeff(p: float, mu: float) -> float:
    """Dephasing two-use coherence factor; 1 at p=0 and at mu=1.  p and mu
    are trusted: the caller's ``ChannelSpec`` checked them."""
    return (1 - mu) * ((1 - p) * (1 - p)) + mu


# --------------------------------------------------------------------------
# per-pairing sector weights
# --------------------------------------------------------------------------
Sector = tuple[float, float, float, float]  # weights of (e00, e11, e01, e10)
Sectors = tuple[Sector, Sector, Sector, Sector]  # (cc, ss, sc, cs)


# Angle-independent structure of one pairing's payoff (see module doc): four
# Sectors, then seven interference factors.
PairingWeights = namedtuple("PairingWeights",
                            "cc ss sc cs f_diag f_off g00 g11 g_off h_diag h_off")


def _unital(at_delta, mirror) -> Sectors:
    """The (cc, ss, sc, cs) layout after a second crossing that does not damp,
    from (et, de) and the mirror's (ch, de): ss swaps cc's et and ch, sc and
    cs carry them on e01 and e10, and de fills the other slots."""
    (et, de), (ch, _) = at_delta, mirror
    return (et, ch, de, de), (ch, et, de, de), (de, de, ch, et), (de, de, et, ch)


def _damped(at_delta, mirror) -> Sectors:
    """The layout after an amplitude-damping second crossing, from (et1, et2,
    et3, de1, de2, de3) and the mirror's (ch1, ch2, ch3, de1, de2, de4)."""
    (et1, et2, et3, de1, de2, de3), (ch1, ch2, ch3, *_, de4) = at_delta, mirror
    return (et1, ch1, de1, de1), (et2, ch2, de2, de2), (et3, ch3, de3, de4), \
        (et3, ch3, de4, de3)


def _w_ad_ad(cg, sg, cd, sd, x1: AdCoeffs, x2: AdCoeffs) -> tuple:
    band1 = sg + x1.chi11 * cg
    et1 = x1.chi00 * x2.chi00 * cg * cd + band1 * sd \
        + (x1.chi00 * x2.chi11 + 2 * x1.chi01 * x2.chi_a) * sd * cg
    et2 = x2.chi00 * band1 * cd + (x1.chi00 + 2 * x1.chi01 * x2.chi_a) * sd * cg \
        + x2.chi11 * band1 * sd
    et3 = x1.chi01 * x2.chi00 * cg * cd + x1.chi01 * (1 + x2.chi11) * cg * sd \
        + x2.chi_a * (band1 + x1.chi00 * cg) * sd
    de1 = (x1.chi01 * x2.chi_b + x1.chi00 * x2.chi01) * cg
    de2 = x1.chi01 * x2.chi_b * cg + x2.chi01 * band1
    de3 = x2.chi_b * band1 * cd + (x1.chi01 * x2.chi01 + x1.chi00 * x2.chi_b * sd) * cg
    return et1, et2, et3, de1, de2, de3


def _w_d_d(cg, sg, cd, sd, u: DepolCoeffs, v: DepolCoeffs) -> tuple:
    d11 = u.a * cg + u.b * sg
    d21 = u.b * cg + u.a * sg
    et = (v.a * d11 + v.b * d21) * cd + (v.a * d21 + v.b * d11) * sd \
        + 2 * v.d * u.d
    return et, v.d * (d11 + d21) + (v.a + v.b) * u.d


def _w_ph_ph(cg, sg, cd, sd, z1: float, z2: float) -> tuple:
    return cg * cd + sg * sd, 0.0


def _w_ph_ad(cg, sg, cd, sd, z1: float, x2: AdCoeffs) -> tuple:
    et1 = x2.chi00 * cg * cd + (sg + x2.chi11 * cg) * sd
    et2 = (cg + x2.chi11 * sg) * sd + x2.chi00 * sg * cd
    de3 = x2.chi_b * (sg * cd + cg * sd)
    return et1, et2, x2.chi_a * sd, x2.chi01 * cg, x2.chi01 * sg, de3


def _w_ad_ph(cg, sg, cd, sd, x1: AdCoeffs, z2: float) -> tuple:
    band1 = sg + x1.chi11 * cg
    return x1.chi00 * cg * cd + band1 * sd, x1.chi01 * cg


def _w_ad_d(cg, sg, cd, sd, x1: AdCoeffs, v: DepolCoeffs) -> tuple:
    band1 = sg + x1.chi11 * cg
    et = (x1.chi00 * v.a * cg + v.b * band1) * cd \
        + (v.a * band1 + x1.chi00 * v.b * cg) * sd + 2 * x1.chi01 * v.d * cg
    return et, x1.chi01 * (v.a + v.b) * cg + v.d * band1 + x1.chi00 * v.d * cg


def _w_d_ad(cg, sg, cd, sd, u: DepolCoeffs, x2: AdCoeffs) -> tuple:
    d11 = u.a * cg + u.b * sg
    d21 = u.b * cg + u.a * sg
    et1 = d11 * (x2.chi00 * cd + x2.chi11 * sd) + d21 * sd + 2 * u.d * x2.chi_a * sd
    et2 = d21 * (x2.chi00 * cd + x2.chi11 * sd) + d11 * sd + 2 * u.d * x2.chi_a * sd
    et3 = (d11 + d21) * x2.chi_a * sd + u.d * (x2.chi00 * cd + (x2.chi11 + 1) * sd)
    de1 = d11 * x2.chi01 + u.d * x2.chi_b
    de2 = d21 * x2.chi01 + u.d * x2.chi_b
    de3 = d11 * x2.chi_b * sd + d21 * x2.chi_b * cd + u.d * x2.chi01
    return et1, et2, et3, de1, de2, de3


def _w_d_ph(cg, sg, cd, sd, u: DepolCoeffs, z2: float) -> tuple:
    d11 = u.a * cg + u.b * sg
    d21 = u.b * cg + u.a * sg
    return d11 * cd + d21 * sd, u.d


def _w_ph_d(cg, sg, cd, sd, z1: float, v: DepolCoeffs) -> tuple:
    return (v.a * cg + v.b * sg) * cd + (v.a * sg + v.b * cg) * sd, v.d


def batch_weights(ent: EntanglementParams, ch1: ChannelSpec,
                  ch2: ChannelSpec) -> PairingWeights:
    """Build the weights for the pairing of the two crossings' kinds: its
    builder, at (cd, sd) and at (sd, cd), and its layout give the sectors,
    and the interference factors follow the module doc's rule from the two
    channels' slot factors.  The p and mu of ``ch1`` and ``ch2``, and gamma
    and delta, may be arrays; they broadcast, and so does every weight.  The
    specs checked their ranges when they were built (``Pairing.crossings``)."""
    (cg, sg), (cd, sd) = _half_angle_squares(ent.gamma), _half_angle_squares(ent.delta)

    def coeff(spec: ChannelSpec, slot: int):
        """The coefficients and slot factors of one crossing: (coh1, pop1)
        in slot 1, (fd2, fo2, m00, m11, moff) in slot 2."""
        kind, p, mu = spec.kind, spec.p, spec.mu
        if kind is ChannelKind.AMPLITUDE_DAMPING:
            x = ad_coeffs(p, mu)
            if slot == 1:
                return x, (x.chi10, (x.chi00 + x.chi11 - 2 * x.chi01) * cg + sg)
            k = 1 + x.chi11 - 2 * x.chi_a
            return x, (x.chi10, x.chi_b, x.chi00 * cd + k * sd, x.chi00 * sd + k * cd,
                       x.chi_b - x.chi01)
        if kind is ChannelKind.DEPOLARIZING:
            u = depol_coeffs(p, mu)
            # The slots round one coherence factor, and one population factor,
            # two ways; weights_random.sha256 pins both roundings: never merge them.
            if slot == 1:
                return u, (u.coh_base - (2 / 3) * mu * p, -(2 * u.d - u.a - u.b))
            f, g = u.coh_base - (2 / 3) * (mu * p), u.a - 2 * u.d + u.b
            return u, (f, f, g, g, g)
        z = dephasing_coeff(p, mu)
        return z, (z, 1.0) if slot == 1 else (z, z, 1.0, 1.0, 1.0)

    a, (coh1, pop1) = coeff(ch1, 1)
    b, (fd2, fo2, m00, m11, moff) = coeff(ch2, 2)
    builder = _BUILDERS[ch1.kind, ch2.kind]
    layout = _damped if ch2.kind is ChannelKind.AMPLITUDE_DAMPING else _unital
    sectors = layout(builder(cg, sg, cd, sd, a, b), builder(cg, sg, sd, cd, a, b))
    return PairingWeights(*sectors,
                          f_diag=coh1 * fd2, f_off=coh1 * fo2, g00=coh1 * m00,
                          g11=coh1 * m11, g_off=coh1 * moff,
                          h_diag=fd2 * pop1, h_off=fo2 * pop1)


def pairing_weights(ent, ch1, ch2) -> PairingWeights:
    """``batch_weights`` at one channel point, floats only.  Nothing in the
    package calls it; it stays because the benchmark tracer wraps it by name,
    keying calls on their (hashable) arguments."""
    return batch_weights(ent, ch1, ch2)


_BUILDERS = {(pairing.first, pairing.second): builder for pairing, builder in {
    Pairing.AD_AD: _w_ad_ad,
    Pairing.D_D: _w_d_d,
    Pairing.PH_PH: _w_ph_ph,
    Pairing.PH_AD: _w_ph_ad,
    Pairing.AD_PH: _w_ad_ph,
    Pairing.AD_D: _w_ad_d,
    Pairing.D_AD: _w_d_ad,
    Pairing.D_PH: _w_d_ph,
    Pairing.PH_D: _w_ph_d,
}.items()}


# --------------------------------------------------------------------------
# payoff assembly
# --------------------------------------------------------------------------
def angle_terms(ent: EntanglementParams, theta1, alpha1, beta1,
                theta2, alpha2, beta2) -> tuple[tuple, tuple]:
    """The weight-free factors of ``payoff_surface``, broadcasting like it, as
    (sectors, phases).  ``sectors`` are the theta-only products cc, ss, sc
    and cs, of the small shape of the theta axes.  ``phases`` are the f_diag,
    f_off, gamma and delta products, in the order of ``payoff_coeffs``'
    factor groups, as rows of (scale, build).  The scales are 1 for the f
    brackets and the amplitudes 0.25 n sin(gamma) and 0.25 n sin(delta),
    of the small shape.  build() returns the parts, one full-size array per
    factor of the row's group: the two delta sines, or a term that carries
    its scale.  Nothing full-size is built until a row's build() is called."""
    th1, a1, b1 = (np.asarray(x, dtype=float) for x in (theta1, alpha1, beta1))
    th2, a2, b2 = (np.asarray(x, dtype=float) for x in (theta2, alpha2, beta2))
    (c1, s1), (c2, s2) = _half_angle_squares(th1), _half_angle_squares(th2)
    cc, ss, sc, cs = c1 * c2, s1 * s2, s1 * c2, c1 * s2
    n = np.sin(th1) * np.sin(th2)
    gamma, delta = 0.25 * n * np.sin(ent.gamma), 0.25 * n * np.sin(ent.delta)
    return (cc, ss, sc, cs), (
        (1.0, lambda: (cc * np.cos(2 * (a1 + a2)) - ss * np.cos(2 * (b1 + b2)),)),
        (1.0, lambda: (sc * np.cos(2 * (a2 - b1)) - cs * np.cos(2 * (a1 - b2)),)),
        (gamma, lambda: (gamma * np.sin(a1 + a2 - b1 - b2),)),
        (delta, lambda: (np.sin(a1 + a2 + b1 + b2), np.sin(a1 - a2 + b1 - b2))))


def payoff_surface(weights: PairingWeights, entries: Sequence[float],
                   ent: EntanglementParams, theta1, alpha1, beta1, theta2, alpha2, beta2):
    """Closed-form payoff for ``weights`` (``batch_weights`` at ``ent``), from
    one ``angle_terms`` evaluation, broadcasting over numpy arrays of strategy
    angles, of gamma and delta, of the weights' p and mu, and of ``entries``
    given as a (4, ...) array.  Every phase product is built whole, live or
    not (unlike a ``grid_maxima`` scan), so a CSV keeps the sign of each zero
    and the surface the full broadcast shape: at gamma = delta = 0 the sector
    sum alone has only the theta axes (case ``i``'s phase-independence check
    would pass vacuously), and f_diag = coh1 fd2 varies over every p and mu.
    No range validation on the angle arrays; grid scans are expected to stay
    inside the strategy domain by construction."""
    if len(entries) != 4:
        raise ValueError(f"expected 4 payoff entries, got {len(entries)}")
    sectors, phases = angle_terms(ent, theta1, alpha1, beta1, theta2, alpha2, beta2)
    sums, groups = payoff_coeffs(weights, entries, ent)
    return sum_products(sectors, sums, [(k, scale, build())
                                        for k, (scale, build) in zip(groups, phases)])


def payoff_coeffs(weights: PairingWeights, entries: Sequence[float],
                  ent: EntanglementParams) -> tuple:
    """The factors that multiply the angle terms in ``payoff_surface``, as
    (sums, groups) broadcast like the weights: the four sector sums, then one
    group per ``angle_terms`` row, in its order: (f_diag,), (f_off,), (the
    gamma bracket,) and (h_diag, h_off) of the delta sines."""
    e00, e01, e10, e11 = np.asarray(entries, dtype=float)
    w, xi = weights, 0.5 * np.sin(ent.delta) * np.sin(ent.gamma)

    def sector(sw: Sector):
        w00, w11, w01, w10 = sw
        return w00 * e00 + w11 * e11 + w01 * e01 + w10 * e10

    return (sector(w.cc), sector(w.ss), sector(w.sc), sector(w.cs)), (
        (xi * w.f_diag * (e00 - e11),), (xi * w.f_off * (e01 - e10),),
        (-(w.g00 * e00 + w.g11 * e11) + w.g_off * (e01 + e10),),
        (w.h_diag * (e00 - e11), w.h_off * (e01 - e10)))


def sum_products(sectors: tuple, sums: tuple, products, out=None):
    """The sector sum of ``sectors`` and ``sums`` plus the built
    (k, scale, parts) products, each with its factor group k, left to right,
    one numpy call a step: a one-part product is ``parts[0] * k[0]``, the
    delta product ``scale * (k[0] * parts[0] + k[1] * parts[1])``.
    ``out``, if given, is two float arrays of the full broadcast shape: the
    products go to the second and the sum to the first (returned).  With no
    product the sum keeps the sectors' small shape."""
    (cc, ss, sc, cs), (kcc, kss, ksc, kcs) = sectors, sums
    acc, tmp = (None, None) if out is None else out
    total = cc * kcc + ss * kss + sc * ksc + cs * kcs
    for k, scale, parts in products:
        if len(parts) == 1:
            term = np.multiply(parts[0], k[0], out=tmp)
        else:
            term = np.multiply(scale, k[0] * parts[0] + k[1] * parts[1], out=tmp)
        total = np.add(total, term, out=acc)
    return total


def grid_maxima(weights: PairingWeights, entries: Sequence[float],
                ent: EntanglementParams, shape: tuple, *grid) -> np.ndarray:
    """The maximum of one player's payoff for ``entries`` over the open grid
    ``grid`` of strategy angles (theta1 .. beta2, broadcasting as in
    ``payoff_surface``) at every point of ``shape``, as an array of that
    shape.  The coefficients (``weights`` and ``entries``) broadcast to
    ``shape``.  The grid axes are those of the lowest-rank angles, the
    deviation mesh.  The fixed player's angles are arrays whose first axis
    is the first axis of ``shape`` (a profile axis) ahead of one unit axis
    per other axis of ``shape`` and per grid axis.

    The scan rule: one ``angle_terms`` call, one broadcast for the sector
    sums of all points (points by theta) and one ``max`` for their maxima.
    A phase product is dead over the stack, and never built, when its
    factor group's columns are all 0 (gamma = 0 or delta = 0 zero the f
    factors) or its scale is (gamma = 0 zeroes the gamma term, delta = 0 the
    delta term, a fixed theta = 0 both).  The live products are built once
    for the stack.  A point skips the live products whose group's factors
    are all 0 there (weight factors vanish at some p = 0 or mu = 0 points); a
    point with a live product left sums the whole stack with its own
    coefficients (``sum_products``, into two buffers of the grid's full
    shape) and takes its maximum over its profile's slice, which has the
    bits of a call with that profile alone (see the module doc).  So a scan
    with no live product builds no full-size array, and a live stack of P
    profiles does P times a profile's work; ``nash`` stacks several
    profiles only at gamma = delta = 0.  A skipped product is +-0
    everywhere, and so is a live one whose term or scale is 0 there (a
    classical grid against alpha2 = beta2 has a zero gamma term; a theta = 0
    profile in a live stack has zero scales), so skipping or adding it keeps
    the sum's bits but for the sign of a zero, which no gain sees
    (``equilibrium.check_profile``)."""
    sums, groups = payoff_coeffs(weights, entries, ent)
    sums, *groups = ([np.broadcast_to(c, shape).ravel() for c in cs] for cs in (sums, *groups))
    sectors, phases = angle_terms(ent, *grid)
    mesh = min(map(np.ndim, grid))
    totals = sum_products(sectors, [np.reshape(c, shape + (1,) * mesh) for c in sums], ())
    maxima = totals.max(axis=tuple(range(len(shape), totals.ndim))).ravel()
    live = [(group, scale, build()) for group, (scale, build) in zip(groups, phases)
            if any(c.any() for c in group) and np.any(scale)]
    if live:
        bufs = [np.empty(np.broadcast_shapes(*map(np.shape, grid))) for _ in range(2)]
        n = len(maxima) // shape[0]
        points = zip(zip(*sums), *(zip(*group) for group, _, _ in live))
        for i, (sums_i, *ks) in enumerate(points):
            products = [(k, scale, parts) for k, (_, scale, parts) in zip(ks, live) if any(k)]
            if products:
                maxima[i] = sum_products(sectors, sums_i, products, bufs)[i // n].max()
    return maxima.reshape(shape)


def closed_payoff(entries: Sequence[float], ent: EntanglementParams, s1: StrategyParams,
                  s2: StrategyParams, ch1: ChannelSpec, ch2: ChannelSpec):
    """The payoff at the game point (ent, s1, s2, ch1, ch2) of ``oracle.two_pass_state``:
    ``payoff_surface`` on one weight evaluation, broadcasting like it over
    the point's arrays and a (4, ...) ``entries``."""
    return payoff_surface(batch_weights(ent, ch1, ch2), entries, ent, *s1.angles, *s2.angles)


def closed_payoff_pair(game: Bimatrix, ent: EntanglementParams, s1: StrategyParams,
                       s2: StrategyParams, ch1: ChannelSpec, ch2: ChannelSpec,
                       ) -> tuple[np.float64 | np.ndarray, np.float64 | np.ndarray]:
    """(Alice, Bob) closed-form payoffs: one ``closed_payoff`` call with the
    two entry columns stacked (``stacked_entries``) gives each payoff the
    bits of its own call.  The payoffs are numpy scalars at a float point,
    else arrays of the broadcast parameter shape."""
    nd = max(map(np.ndim, (ent.gamma, ent.delta, ch1.p, ch1.mu, ch2.p, ch2.mu,
                           *s1.angles, *s2.angles)))
    return tuple(closed_payoff(stacked_entries([game.a, game.b], nd), ent, s1, s2, ch1, ch2))


def stacked_entries(columns, nd: int) -> np.ndarray:
    """Entry columns of shape (..., 4), e.g. players or games by players, as
    the (4, ...) ``entries`` of ``payoff_surface``: the columns' leading axes
    follow the entry axis, ahead of ``nd`` unit axes that the parameters
    broadcast along, so the surface has those leading axes first.  Entries
    only multiply and add, so each column's payoffs have the bits of its own
    call."""
    e = np.moveaxis(np.asarray(columns, dtype=float), -1, 0)
    return e.reshape(e.shape + (1,) * nd)
