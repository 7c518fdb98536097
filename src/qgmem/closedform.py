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
parameters and the entanglement angles.  Each pairing's builder gives its
four sectors; ``batch_weights`` forms the seven factors by one rule from the
channels' slot factors: channel 1 gives a coherence factor coh1 and a
population factor pop1, channel 2 diagonal and off-diagonal coherence
factors fd2, fo2 and measurement weights m00, m11, moff, and

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
gamma term and the delta sines) of its coefficient indices, its amplitude
and a builder of its full-size term.  ``payoff_coeffs`` contracts the
entries with the weights into the nine factors (per channel point and
player) that multiply them.  ``payoff_surface`` builds every phase product
and sums them left to right, one numpy call a step (``sum_products``).  A
grid scan builds only the ``live_products``, passes its own buffers, so a
repeated scan allocates no full-size array, and leaves out the products
that are +-0 everywhere (see ``equilibrium.check_profile``).
``stacked_entries`` puts entry columns (players, or games by players) on
leading axes of the entries, so one ``payoff_surface`` call, with one weight
evaluation, gives every column's payoffs; ``closed_payoff_pair`` gives both
players that way.

The expressions are pinned against the independent Kraus-operator
simulation in ``oracle``: the test suite holds the two routes together at
1e-9 for every pairing at arbitrary memory (observed agreement is at
machine precision).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import ChannelKind
from .games import Bimatrix
from .protocol import EntanglementParams, StrategyParams
from .qmat import check_range


class Pairing(enum.Enum):
    """Ordered (first crossing, second crossing) channel-kind pairs."""

    AD_AD = "ad-ad"
    D_D = "d-d"
    PH_PH = "ph-ph"
    PH_AD = "ph-ad"
    AD_PH = "ad-ph"
    AD_D = "ad-d"
    D_AD = "d-ad"
    D_PH = "d-ph"
    PH_D = "ph-d"

    @property
    def first(self) -> ChannelKind:
        return ChannelKind(self.value.split("-")[0])

    @property
    def second(self) -> ChannelKind:
        return ChannelKind(self.value.split("-")[1])

    @classmethod
    def from_string(cls, token: str) -> "Pairing":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(
                f"unknown pairing {token!r}; choose from "
                f"{', '.join(p.value for p in cls)}"
            ) from None


# --------------------------------------------------------------------------
# per-channel coefficient families
# --------------------------------------------------------------------------
def _check_pm(p, mu) -> None:
    check_range("p", p, 0.0, 1.0, "[0, 1]")
    check_range("mu", mu, 0.0, 1.0, "[0, 1]")


def _half_angle_squares(x):
    """(cos^2(x/2), sin^2(x/2)), squared as products (see module doc)."""
    c, s = np.cos(x / 2), np.sin(x / 2)
    return c * c, s * s


@dataclass(frozen=True)
class AdCoeffs:
    """Amplitude-damping two-use coefficients for one channel crossing.

    chi00/chi11: survival weights of the |00>/|11> populations;
    chi10: coherence factor between the damped and undamped sectors;
    chi01: weight leaking one excitation (uncorrelated branch only);
    chi_a/chi_b: single-qubit leak and keep weights (chi_a + chi_b = 1).
    The identity chi00 + chi11 + 2*chi01 = 1 is exact.
    """

    chi00: float
    chi11: float
    chi10: float
    chi01: float
    chi_a: float
    chi_b: float


def ad_coeffs(p: float, mu: float) -> AdCoeffs:
    _check_pm(p, mu)
    return AdCoeffs(
        chi00=(1 - p) * (1 - p) + mu * (1 - p) * p,
        chi11=p * p + mu * (1 - p) * p,
        chi10=(1 - mu) * (1 - p) + mu * np.sqrt(1 - p),
        chi01=(1 - mu) * (1 - p) * p,
        chi_a=(1 - mu) * p,
        chi_b=(1 - p) + mu * p,
    )


@dataclass(frozen=True)
class DepolCoeffs:
    """Depolarizing two-use coefficients for one channel crossing.

    The two slots (channel used first or second) order the same four base
    quantities differently; the sum rule d1 + d2 + 2*d4 = 1 (slot 1) /
    d1 + d3 + 2*d2 = 1 (slot 2) holds exactly.  ``eta1dp`` is the
    population-interference factor appearing in the delta terms.
    """

    d1: float
    d2: float
    d3: float
    d4: float
    eta1dp: float


def depol_coeffs(p: float, mu: float, slot: int) -> DepolCoeffs:
    _check_pm(p, mu)
    if slot not in (1, 2):
        raise ValueError(f"slot must be 1 or 2, got {slot}")
    base_a = -(1 / 9) * (-3 + 2 * p) * (-2 * p + 2 * mu * p + 3)
    base_b = -(2 / 9) * p * (-2 * p + 2 * mu * p - 3 * mu)
    p_sq = p * p
    base_c4 = -(1 / 9) * (-9 + 24 * p - 18 * mu * p - 16 * p_sq + 16 * mu * p_sq)
    base_c3 = base_c4 - (2 / 3) * mu * p
    base_d = (2 / 9) * p * (-3 + 2 * p) * (mu - 1)
    eta1dp = 2 * base_d - base_a - base_b
    if slot == 1:
        return DepolCoeffs(base_a, base_b, base_c3, base_d, eta1dp)
    return DepolCoeffs(base_a, base_d, base_b, base_c4, eta1dp)


def dephasing_coeff(p: float, mu: float) -> float:
    """Dephasing two-use coherence factor; 1 at p=0 and at mu=1."""
    _check_pm(p, mu)
    return (1 - mu) * ((1 - p) * (1 - p)) + mu


# --------------------------------------------------------------------------
# per-pairing sector weights
# --------------------------------------------------------------------------
Sector = tuple[float, float, float, float]  # weights of (e00, e11, e01, e10)
Sectors = tuple[Sector, Sector, Sector, Sector]  # (cc, ss, sc, cs)


@dataclass(frozen=True)
class PairingWeights:
    """Angle-independent structure of one pairing's payoff (see module doc)."""

    cc: Sector
    ss: Sector
    sc: Sector
    cs: Sector
    f_diag: float
    f_off: float
    g00: float
    g11: float
    g_off: float
    h_diag: float
    h_off: float


def _unital(et, ch, de) -> Sectors:
    """The (cc, ss, sc, cs) layout of every pairing but ad-ad, ph-ad and
    d-ad: ss swaps cc's et and ch, sc and cs carry them on e01 and e10, and
    de fills the other slots."""
    return (et, ch, de, de), (ch, et, de, de), (de, de, ch, et), (de, de, et, ch)


def _w_ad_ad(cg, sg, cd, sd, x1: AdCoeffs, x2: AdCoeffs) -> Sectors:
    band1 = sg + x1.chi11 * cg
    et1 = x1.chi00 * x2.chi00 * cg * cd + band1 * sd \
        + (x1.chi00 * x2.chi11 + 2 * x1.chi01 * x2.chi_a) * sd * cg
    ch1 = x1.chi00 * x2.chi00 * cg * sd + band1 * cd \
        + (x1.chi00 * x2.chi11 + 2 * x1.chi01 * x2.chi_a) * cd * cg
    et2 = x2.chi00 * band1 * cd + (x1.chi00 + 2 * x1.chi01 * x2.chi_a) * sd * cg \
        + x2.chi11 * band1 * sd
    ch2 = x2.chi00 * band1 * sd + (x1.chi00 + 2 * x1.chi01 * x2.chi_a) * cd * cg \
        + x2.chi11 * band1 * cd
    et3 = x1.chi01 * x2.chi00 * cg * cd + x1.chi01 * (1 + x2.chi11) * cg * sd \
        + x2.chi_a * (band1 + x1.chi00 * cg) * sd
    ch3 = x1.chi01 * x2.chi00 * cg * sd + x1.chi01 * (1 + x2.chi11) * cg * cd \
        + x2.chi_a * (band1 + x1.chi00 * cg) * cd
    de1 = (x1.chi01 * x2.chi_b + x1.chi00 * x2.chi01) * cg
    de2 = x1.chi01 * x2.chi_b * cg + x2.chi01 * band1
    de3 = x2.chi_b * band1 * cd + (x1.chi01 * x2.chi01 + x1.chi00 * x2.chi_b * sd) * cg
    de4 = x2.chi_b * band1 * sd + (x1.chi01 * x2.chi01 + x1.chi00 * x2.chi_b * cd) * cg
    return (et1, ch1, de1, de1), (et2, ch2, de2, de2), (et3, ch3, de3, de4), \
        (et3, ch3, de4, de3)


def _w_d_d(cg, sg, cd, sd, u: DepolCoeffs, v: DepolCoeffs) -> Sectors:
    d11 = u.d1 * cg + u.d2 * sg
    d21 = u.d2 * cg + u.d1 * sg
    et = (v.d1 * d11 + v.d3 * d21) * cd + (v.d1 * d21 + v.d3 * d11) * sd \
        + 2 * v.d2 * u.d4
    ch = (v.d1 * d21 + v.d3 * d11) * cd + (v.d1 * d11 + v.d3 * d21) * sd \
        + 2 * v.d2 * u.d4
    return _unital(et, ch, v.d2 * (d11 + d21) + (v.d1 + v.d3) * u.d4)


def _w_ph_ph(cg, sg, cd, sd, z1: float, z2: float) -> Sectors:
    return _unital(cg * cd + sg * sd, sg * cd + cg * sd, 0.0)


def _w_ph_ad(cg, sg, cd, sd, z1: float, x2: AdCoeffs) -> Sectors:
    et1 = x2.chi00 * cg * cd + (sg + x2.chi11 * cg) * sd
    ch1 = (sg + x2.chi11 * cg) * cd + x2.chi00 * cg * sd
    et2 = (cg + x2.chi11 * sg) * sd + x2.chi00 * sg * cd
    ch2 = x2.chi00 * sg * sd + (cg + x2.chi11 * sg) * cd
    et3, ch3 = x2.chi_a * sd, x2.chi_a * cd
    de3 = x2.chi_b * (sg * cd + cg * sd)
    de4 = x2.chi_b * (cg * cd + sg * sd)
    return (et1, ch1, x2.chi01 * cg, x2.chi01 * cg), \
        (et2, ch2, x2.chi01 * sg, x2.chi01 * sg), (et3, ch3, de3, de4), (et3, ch3, de4, de3)


def _w_ad_ph(cg, sg, cd, sd, x1: AdCoeffs, z2: float) -> Sectors:
    band1 = sg + x1.chi11 * cg
    return _unital(x1.chi00 * cg * cd + band1 * sd, band1 * cd + x1.chi00 * cg * sd,
                   x1.chi01 * cg)


def _w_ad_d(cg, sg, cd, sd, x1: AdCoeffs, v: DepolCoeffs) -> Sectors:
    band1 = sg + x1.chi11 * cg
    et = (x1.chi00 * v.d1 * cg + v.d3 * band1) * cd \
        + (v.d1 * band1 + x1.chi00 * v.d3 * cg) * sd + 2 * x1.chi01 * v.d2 * cg
    ch = (x1.chi00 * v.d1 * cg + v.d3 * band1) * sd \
        + (v.d1 * band1 + x1.chi00 * v.d3 * cg) * cd + 2 * x1.chi01 * v.d2 * cg
    return _unital(et, ch, x1.chi01 * (v.d1 + v.d3) * cg + v.d2 * band1
                   + x1.chi00 * v.d2 * cg)


def _w_d_ad(cg, sg, cd, sd, u: DepolCoeffs, x2: AdCoeffs) -> Sectors:
    d11 = u.d1 * cg + u.d2 * sg
    d21 = u.d2 * cg + u.d1 * sg
    et1 = d11 * (x2.chi00 * cd + x2.chi11 * sd) + d21 * sd + 2 * u.d4 * x2.chi_a * sd
    ch1 = d11 * (x2.chi00 * sd + x2.chi11 * cd) + d21 * cd + 2 * u.d4 * x2.chi_a * cd
    et2 = d21 * (x2.chi00 * cd + x2.chi11 * sd) + d11 * sd + 2 * u.d4 * x2.chi_a * sd
    ch2 = d21 * (x2.chi00 * sd + x2.chi11 * cd) + d11 * cd + 2 * u.d4 * x2.chi_a * cd
    et3 = (d11 + d21) * x2.chi_a * sd + u.d4 * (x2.chi00 * cd + (x2.chi11 + 1) * sd)
    ch3 = (d11 + d21) * x2.chi_a * cd + u.d4 * (x2.chi00 * sd + (x2.chi11 + 1) * cd)
    de1 = d11 * x2.chi01 + u.d4 * x2.chi_b
    de1s = d21 * x2.chi01 + u.d4 * x2.chi_b
    de2 = d11 * x2.chi_b * sd + d21 * x2.chi_b * cd + u.d4 * x2.chi01
    de3 = d11 * x2.chi_b * cd + d21 * x2.chi_b * sd + u.d4 * x2.chi01
    return (et1, ch1, de1, de1), (et2, ch2, de1s, de1s), (et3, ch3, de2, de3), \
        (et3, ch3, de3, de2)


def _w_d_ph(cg, sg, cd, sd, u: DepolCoeffs, z2: float) -> Sectors:
    d11 = u.d1 * cg + u.d2 * sg
    d21 = u.d2 * cg + u.d1 * sg
    return _unital(d11 * cd + d21 * sd, d11 * sd + d21 * cd, u.d4)


def _w_ph_d(cg, sg, cd, sd, z1: float, v: DepolCoeffs) -> Sectors:
    return _unital((v.d1 * cg + v.d3 * sg) * cd + (v.d1 * sg + v.d3 * cg) * sd,
                   (v.d1 * sg + v.d3 * cg) * cd + (v.d1 * cg + v.d3 * sg) * sd, v.d2)


def batch_weights(
    pairing: Pairing,
    ent: EntanglementParams,
    ch1: tuple[float, float],
    ch2: tuple[float, float],
) -> PairingWeights:
    """Build the weights for one pairing: its builder gives the sectors, and
    the interference factors follow the module doc's rule from the two
    channels' slot factors.  The p and mu in ``ch1`` and ``ch2``, and gamma
    and delta, may be arrays; they broadcast, and so does every weight."""
    (cg, sg), (cd, sd) = _half_angle_squares(ent.gamma), _half_angle_squares(ent.delta)

    def coeff(kind: ChannelKind, pm: tuple[float, float], slot: int):
        """The coefficients and slot factors of one crossing: (coh1, pop1)
        in slot 1, (fd2, fo2, m00, m11, moff) in slot 2."""
        p, mu = pm
        if kind is ChannelKind.AMPLITUDE_DAMPING:
            x = ad_coeffs(p, mu)
            if slot == 1:
                return x, (x.chi10, (x.chi00 + x.chi11 - 2 * x.chi01) * cg + sg)
            k = 1 + x.chi11 - 2 * x.chi_a
            return x, (x.chi10, x.chi_b, x.chi00 * cd + k * sd, x.chi00 * sd + k * cd,
                       x.chi_b - x.chi01)
        if kind is ChannelKind.DEPOLARIZING:
            u = depol_coeffs(p, mu, slot)
            if slot == 1:
                return u, (u.d3, -u.eta1dp)
            f, g = u.d4 - (2 / 3) * (mu * p), u.d1 - 2 * u.d2 + u.d3
            return u, (f, f, g, g, g)
        z = dephasing_coeff(p, mu)
        return z, (z, 1.0) if slot == 1 else (z, z, 1.0, 1.0, 1.0)

    a, (coh1, pop1) = coeff(pairing.first, ch1, 1)
    b, (fd2, fo2, m00, m11, moff) = coeff(pairing.second, ch2, 2)
    return PairingWeights(*_BUILDERS[pairing](cg, sg, cd, sd, a, b),
                          f_diag=coh1 * fd2, f_off=coh1 * fo2, g00=coh1 * m00,
                          g11=coh1 * m11, g_off=coh1 * moff,
                          h_diag=fd2 * pop1, h_off=fo2 * pop1)


def pairing_weights(pairing, ent, ch1, ch2) -> PairingWeights:
    """``batch_weights`` at one channel point, floats only.  Nothing in the
    package calls it; it stays because the benchmark tracer wraps it by name,
    keying calls on their (hashable) arguments."""
    return batch_weights(pairing, ent, ch1, ch2)


_BUILDERS = {
    Pairing.AD_AD: _w_ad_ad,
    Pairing.D_D: _w_d_d,
    Pairing.PH_PH: _w_ph_ph,
    Pairing.PH_AD: _w_ph_ad,
    Pairing.AD_PH: _w_ad_ph,
    Pairing.AD_D: _w_ad_d,
    Pairing.D_AD: _w_d_ad,
    Pairing.D_PH: _w_d_ph,
    Pairing.PH_D: _w_ph_d,
}


# --------------------------------------------------------------------------
# payoff assembly
# --------------------------------------------------------------------------
def angle_terms(ent: EntanglementParams, theta1, alpha1, beta1,
                theta2, alpha2, beta2) -> tuple[tuple, tuple]:
    """The weight-free factors of ``payoff_surface``, broadcasting like it, as
    (sectors, phases).  ``sectors`` are the theta-only products cc, ss, sc
    and cs, of the small shape of the theta axes.  ``phases`` are the f_diag,
    f_off, gamma and delta products, in the payoff's order, as rows of
    (indices of their ``payoff_coeffs`` factors, amplitude, build): build()
    returns (term, factor), and the product is ``term * factor(k)`` for a
    coefficient tuple k.  The amplitudes are 0.25 n sin(gamma) and
    0.25 n sin(delta), of the small shape (1 for the f brackets); the delta
    product's term is its amplitude, and its factor combines the two sines.
    Nothing full-size is built until a row's build() is called."""
    th1, a1, b1 = (np.asarray(x, dtype=float) for x in (theta1, alpha1, beta1))
    th2, a2, b2 = (np.asarray(x, dtype=float) for x in (theta2, alpha2, beta2))
    (c1, s1), (c2, s2) = _half_angle_squares(th1), _half_angle_squares(th2)
    cc, ss, sc, cs = c1 * c2, s1 * s2, s1 * c2, c1 * s2
    n = np.sin(th1) * np.sin(th2)
    gamma, delta = 0.25 * n * np.sin(ent.gamma), 0.25 * n * np.sin(ent.delta)

    def delta_sines():
        sin_diag, sin_off = np.sin(a1 + a2 + b1 + b2), np.sin(a1 - a2 + b1 - b2)
        return delta, lambda k: k[7] * sin_diag + k[8] * sin_off

    return (cc, ss, sc, cs), (
        ((4,), 1.0, lambda: (cc * np.cos(2 * (a1 + a2)) - ss * np.cos(2 * (b1 + b2)),
                             lambda k: k[4])),
        ((5,), 1.0, lambda: (sc * np.cos(2 * (a2 - b1)) - cs * np.cos(2 * (a1 - b2)),
                             lambda k: k[5])),
        ((6,), gamma, lambda: (gamma * np.sin(a1 + a2 - b1 - b2), lambda k: k[6])),
        ((7, 8), delta, delta_sines))


def payoff_surface(
    pairing: Pairing,
    entries: Sequence[float],
    ent: EntanglementParams,
    ch1: tuple[float, float],
    ch2: tuple[float, float],
    theta1, alpha1, beta1, theta2, alpha2, beta2,
):
    """Closed-form payoff, broadcasting over numpy arrays of strategy angles,
    of gamma and delta, of p and mu, and of ``entries`` given as a (4, ...)
    array, from one ``batch_weights`` and one ``angle_terms`` evaluation.
    Every phase product is built whole, live or not (a grid scan builds only
    the ``live_products``), so a CSV keeps the sign of each zero and the
    surface the full broadcast shape: at gamma = delta = 0 the sector sum
    alone has only the theta axes, over which case ``i``'s
    phase-independence check would pass vacuously.
    No range validation on the angle arrays; grid scans are expected to stay
    inside the strategy domain by construction."""
    if len(entries) != 4:
        raise ValueError(f"expected 4 payoff entries, got {len(entries)}")
    w = batch_weights(pairing, ent, ch1, ch2)
    sectors, phases = angle_terms(ent, theta1, alpha1, beta1, theta2, alpha2, beta2)
    return sum_products(sectors, payoff_coeffs(w, entries, ent),
                        [build() for *_, build in phases])


def payoff_coeffs(weights: PairingWeights, entries: Sequence[float],
                  ent: EntanglementParams) -> tuple:
    """The nine factors that multiply the angle terms in ``payoff_surface``:
    the four sector sums, the f_diag and f_off factors, the gamma bracket and
    the h_diag and h_off factors of the delta sines, broadcast like the
    weights."""
    e00, e01, e10, e11 = np.asarray(entries, dtype=float)
    w, xi = weights, 0.5 * np.sin(ent.delta) * np.sin(ent.gamma)

    def sector(sw: Sector):
        w00, w11, w01, w10 = sw
        return w00 * e00 + w11 * e11 + w01 * e01 + w10 * e10

    return (sector(w.cc), sector(w.ss), sector(w.sc), sector(w.cs),
            xi * w.f_diag * (e00 - e11), xi * w.f_off * (e01 - e10),
            -(w.g00 * e00 + w.g11 * e11) + w.g_off * (e01 + e10),
            w.h_diag * (e00 - e11), w.h_off * (e01 - e10))


def live_products(phases: tuple, table: Sequence) -> list:
    """The phase products that a grid scan over the coefficient ``table`` (the
    ``payoff_coeffs`` columns over channel points) must add, as (indices,
    (term, factor)) of the ``angle_terms`` rows ``phases``.  A row whose
    coefficient columns are all 0, or whose amplitude is, is dead before
    anything is built; otherwise it is built, and it is live iff its term is
    non-zero somewhere."""
    live = []
    for idx, amp, build in phases:
        if any(np.any(table[j]) for j in idx) and np.any(amp):
            term, factor = build()
            if np.any(term):
                live.append((idx, (term, factor)))
    return live


def sum_products(sectors: tuple, coeffs: tuple, products, out=None):
    """The sector sum of ``sectors`` and ``coeffs`` plus the given built
    (term, factor) products, left to right, one numpy call a step.  ``out``,
    if given, is two float arrays of the full broadcast shape: the products
    go to the second and the sum to the first (returned).  With no product
    the sum keeps the sectors' small shape."""
    cc, ss, sc, cs = sectors
    acc, tmp = (None, None) if out is None else out
    total = cc * coeffs[0] + ss * coeffs[1] + sc * coeffs[2] + cs * coeffs[3]
    for term, factor in products:
        total = np.add(total, np.multiply(term, factor(coeffs), out=tmp), out=acc)
    return total


def closed_payoff(
    pairing: Pairing,
    entries: Sequence[float],
    ent: EntanglementParams,
    s1: StrategyParams,
    s2: StrategyParams,
    ch1: tuple[float, float],
    ch2: tuple[float, float],
) -> float:
    """One player's closed-form payoff for their entry column, at one point.
    Nothing in the package calls it; it stays because the benchmark tracer
    wraps it by name."""
    return float(payoff_surface(pairing, entries, ent, ch1, ch2,
                                *s1.angles, *s2.angles))


def closed_payoff_pair(
    pairing: Pairing,
    game: Bimatrix,
    ent: EntanglementParams,
    s1: StrategyParams,
    s2: StrategyParams,
    ch1: tuple[float, float],
    ch2: tuple[float, float],
) -> tuple[np.float64 | np.ndarray, np.float64 | np.ndarray]:
    """(Alice, Bob) closed-form payoffs, broadcasting like ``payoff_surface``:
    one call of it, with the two entry columns stacked (``stacked_entries``),
    shares the weights and angle terms, and each payoff has the bits of its
    own call.
    The payoffs are numpy scalars at a float point, else arrays of the
    broadcast parameter shape."""
    angles = (*s1.angles, *s2.angles)
    nd = max(map(np.ndim, (ent.gamma, ent.delta, *ch1, *ch2, *angles)))
    return tuple(payoff_surface(pairing, stacked_entries([game.a, game.b], nd),
                                ent, ch1, ch2, *angles))


def stacked_entries(columns, nd: int) -> np.ndarray:
    """Entry columns of shape (..., 4), e.g. players or games by players, as
    the (4, ...) ``entries`` of ``payoff_surface``: the columns' leading axes
    follow the entry axis, ahead of ``nd`` unit axes that the parameters
    broadcast along, so the surface has those leading axes first.  Entries
    only multiply and add, so each column's payoffs have the bits of its own
    call."""
    e = np.moveaxis(np.asarray(columns, dtype=float), -1, 0)
    return e.reshape(e.shape + (1,) * nd)
