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
parameters and the entanglement angles; ``batch_weights`` builds them per
pairing.  Each factor follows a single rule: the delta-interference terms
carry channel 2's coherence factor times channel 1's population factor, and
the gamma terms mirror that with the channel roles reflected.  Coefficients
and weights broadcast over arrays of p, mu, gamma and delta, bit for bit as at
float points: a float is a 0-d input to the same numpy arithmetic, and every
square is written as a product, since ``** 2`` rounds through libm's pow on a
scalar but multiplies on an array.
The other factors (the sector products and the trigonometric terms) do not
depend on the channels; ``angle_terms`` builds them once for many channel
points.  ``payoff_coeffs`` contracts the entries with the weights into the
nine factors (per channel point and player) that multiply them, and
``assemble`` sums the products left to right, one numpy call a step.  It is
``sum_products`` over all four ``phase_products`` (the f_diag, f_off, gamma
and delta terms, the ones of full grid size); a grid scan passes its own
buffers, so a repeated scan allocates no full-size array, and leaves out the
products that are +-0 everywhere (see ``equilibrium._certificates``).
``closed_payoff_pair`` gives both players from one ``payoff_surface`` call,
with their entry columns stacked on a leading axis of the entries.

The expressions are pinned against the independent Kraus-operator
simulation in ``oracle``: the test suite holds the two routes together at
1e-9 for every pairing at arbitrary memory (observed agreement is at
machine precision).
"""

from __future__ import annotations

import enum
from collections import namedtuple
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
        return _KIND[self.value.split("-")[0]]

    @property
    def second(self) -> ChannelKind:
        return _KIND[self.value.split("-")[1]]

    @classmethod
    def from_string(cls, token: str) -> "Pairing":
        try:
            return cls(token)
        except ValueError:
            raise ValueError(
                f"unknown pairing {token!r}; choose from "
                f"{', '.join(p.value for p in cls)}"
            ) from None


_KIND = {"ph": ChannelKind.DEPHASING, "ad": ChannelKind.AMPLITUDE_DAMPING,
         "d": ChannelKind.DEPOLARIZING}


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
    mu_times_p: float


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
        return DepolCoeffs(base_a, base_b, base_c3, base_d, eta1dp, mu * p)
    return DepolCoeffs(base_a, base_d, base_b, base_c4, eta1dp, mu * p)


@dataclass(frozen=True)
class DephasingCoeff:
    """Dephasing two-use coherence factor; 1 at p=0 and at mu=1."""

    mu_p: float


def dephasing_coeff(p: float, mu: float) -> DephasingCoeff:
    _check_pm(p, mu)
    return DephasingCoeff(mu_p=(1 - mu) * ((1 - p) * (1 - p)) + mu)


# --------------------------------------------------------------------------
# per-pairing sector weights
# --------------------------------------------------------------------------
Sector = tuple[float, float, float, float]  # weights of (e00, e11, e01, e10)


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


def _ad_pop(x: AdCoeffs, cg: float, sg: float) -> float:
    """Population-interference survival of one AD crossing (1 at p=0)."""
    return (x.chi00 + x.chi11 - 2 * x.chi01) * cg + sg


def _ad_meas(x: AdCoeffs, cd: float, sd: float) -> tuple[float, float]:
    """Measurement-side weights (g00, g11) of one AD crossing."""
    k = 1 + x.chi11 - 2 * x.chi_a
    return x.chi00 * cd + k * sd, x.chi00 * sd + k * cd


def _w_ad_ad(cg, sg, cd, sd, x1: AdCoeffs, x2: AdCoeffs) -> PairingWeights:
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
    g00_2, g11_2 = _ad_meas(x2, cd, sd)
    pop1 = _ad_pop(x1, cg, sg)
    return PairingWeights(
        cc=(et1, ch1, de1, de1),
        ss=(et2, ch2, de2, de2),
        sc=(et3, ch3, de3, de4),
        cs=(et3, ch3, de4, de3),
        f_diag=x1.chi10 * x2.chi10,
        f_off=x1.chi10 * x2.chi_b,
        g00=x1.chi10 * g00_2,
        g11=x1.chi10 * g11_2,
        g_off=x1.chi10 * (x2.chi_b - x2.chi01),
        h_diag=x2.chi10 * pop1,
        h_off=x2.chi_b * pop1,
    )


def _w_d_d(cg, sg, cd, sd, u: DepolCoeffs, v: DepolCoeffs) -> PairingWeights:
    d11 = u.d1 * cg + u.d2 * sg
    d21 = u.d2 * cg + u.d1 * sg
    et = (v.d1 * d11 + v.d3 * d21) * cd + (v.d1 * d21 + v.d3 * d11) * sd \
        + 2 * v.d2 * u.d4
    ch = (v.d1 * d21 + v.d3 * d11) * cd + (v.d1 * d11 + v.d3 * d21) * sd \
        + 2 * v.d2 * u.d4
    de = v.d2 * (d11 + d21) + (v.d1 + v.d3) * u.d4
    f = (v.d4 - (2 / 3) * v.mu_times_p) * u.d3
    g = u.d3 * (v.d1 - 2 * v.d2 + v.d3)
    h = -(v.d4 - (2 / 3) * v.mu_times_p) * u.eta1dp
    return PairingWeights(
        cc=(et, ch, de, de),
        ss=(ch, et, de, de),
        sc=(de, de, ch, et),
        cs=(de, de, et, ch),
        f_diag=f, f_off=f, g00=g, g11=g, g_off=g, h_diag=h, h_off=h,
    )


def _w_ph_ph(cg, sg, cd, sd, z1: DephasingCoeff, z2: DephasingCoeff) -> PairingWeights:
    et = cg * cd + sg * sd
    ch = sg * cd + cg * sd
    f = z1.mu_p * z2.mu_p
    return PairingWeights(
        cc=(et, ch, 0.0, 0.0),
        ss=(ch, et, 0.0, 0.0),
        sc=(0.0, 0.0, ch, et),
        cs=(0.0, 0.0, et, ch),
        f_diag=f, f_off=f,
        g00=z1.mu_p, g11=z1.mu_p, g_off=z1.mu_p,
        h_diag=z2.mu_p, h_off=z2.mu_p,
    )


def _w_ph_ad(cg, sg, cd, sd, z1: DephasingCoeff, x2: AdCoeffs) -> PairingWeights:
    et1 = x2.chi00 * cg * cd + (sg + x2.chi11 * cg) * sd
    ch1 = (sg + x2.chi11 * cg) * cd + x2.chi00 * cg * sd
    et2 = (cg + x2.chi11 * sg) * sd + x2.chi00 * sg * cd
    ch2 = x2.chi00 * sg * sd + (cg + x2.chi11 * sg) * cd
    et3, ch3 = x2.chi_a * sd, x2.chi_a * cd
    de3 = x2.chi_b * (sg * cd + cg * sd)
    de4 = x2.chi_b * (cg * cd + sg * sd)
    g00_2, g11_2 = _ad_meas(x2, cd, sd)
    return PairingWeights(
        cc=(et1, ch1, x2.chi01 * cg, x2.chi01 * cg),
        ss=(et2, ch2, x2.chi01 * sg, x2.chi01 * sg),
        sc=(et3, ch3, de3, de4),
        cs=(et3, ch3, de4, de3),
        f_diag=z1.mu_p * x2.chi10,
        f_off=z1.mu_p * x2.chi_b,
        g00=z1.mu_p * g00_2,
        g11=z1.mu_p * g11_2,
        g_off=z1.mu_p * (x2.chi_b - x2.chi01),
        h_diag=x2.chi10,
        h_off=x2.chi_b,
    )


def _w_ad_ph(cg, sg, cd, sd, x1: AdCoeffs, z2: DephasingCoeff) -> PairingWeights:
    band1 = sg + x1.chi11 * cg
    et = x1.chi00 * cg * cd + band1 * sd
    ch = band1 * cd + x1.chi00 * cg * sd
    de = x1.chi01 * cg
    pop1 = _ad_pop(x1, cg, sg)
    return PairingWeights(
        cc=(et, ch, de, de),
        ss=(ch, et, de, de),
        sc=(de, de, ch, et),
        cs=(de, de, et, ch),
        f_diag=z2.mu_p * x1.chi10,
        f_off=z2.mu_p * x1.chi10,
        g00=x1.chi10, g11=x1.chi10, g_off=x1.chi10,
        h_diag=z2.mu_p * pop1,
        h_off=z2.mu_p * pop1,
    )


def _w_ad_d(cg, sg, cd, sd, x1: AdCoeffs, v: DepolCoeffs) -> PairingWeights:
    band1 = sg + x1.chi11 * cg
    et = (x1.chi00 * v.d1 * cg + v.d3 * band1) * cd \
        + (v.d1 * band1 + x1.chi00 * v.d3 * cg) * sd + 2 * x1.chi01 * v.d2 * cg
    ch = (x1.chi00 * v.d1 * cg + v.d3 * band1) * sd \
        + (v.d1 * band1 + x1.chi00 * v.d3 * cg) * cd + 2 * x1.chi01 * v.d2 * cg
    de = x1.chi01 * (v.d1 + v.d3) * cg + v.d2 * band1 + x1.chi00 * v.d2 * cg
    pop1 = _ad_pop(x1, cg, sg)
    f = (v.d4 - (2 / 3) * v.mu_times_p) * x1.chi10
    g = x1.chi10 * (v.d1 - 2 * v.d2 + v.d3)
    h = (v.d4 - (2 / 3) * v.mu_times_p) * pop1
    return PairingWeights(
        cc=(et, ch, de, de),
        ss=(ch, et, de, de),
        sc=(de, de, ch, et),
        cs=(de, de, et, ch),
        f_diag=f, f_off=f, g00=g, g11=g, g_off=g, h_diag=h, h_off=h,
    )


def _w_d_ad(cg, sg, cd, sd, u: DepolCoeffs, x2: AdCoeffs) -> PairingWeights:
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
    g00_2, g11_2 = _ad_meas(x2, cd, sd)
    return PairingWeights(
        cc=(et1, ch1, de1, de1),
        ss=(et2, ch2, de1s, de1s),
        sc=(et3, ch3, de2, de3),
        cs=(et3, ch3, de3, de2),
        f_diag=u.d3 * x2.chi10,
        f_off=u.d3 * x2.chi_b,
        g00=u.d3 * g00_2,
        g11=u.d3 * g11_2,
        g_off=u.d3 * (x2.chi_b - x2.chi01),
        h_diag=-u.eta1dp * x2.chi10,
        h_off=-u.eta1dp * x2.chi_b,
    )


def _w_d_ph(cg, sg, cd, sd, u: DepolCoeffs, z2: DephasingCoeff) -> PairingWeights:
    d11 = u.d1 * cg + u.d2 * sg
    d21 = u.d2 * cg + u.d1 * sg
    et = d11 * cd + d21 * sd
    ch = d11 * sd + d21 * cd
    return PairingWeights(
        cc=(et, ch, u.d4, u.d4),
        ss=(ch, et, u.d4, u.d4),
        sc=(u.d4, u.d4, ch, et),
        cs=(u.d4, u.d4, et, ch),
        f_diag=u.d3 * z2.mu_p, f_off=u.d3 * z2.mu_p,
        g00=u.d3, g11=u.d3, g_off=u.d3,
        h_diag=-u.eta1dp * z2.mu_p, h_off=-u.eta1dp * z2.mu_p,
    )


def _w_ph_d(cg, sg, cd, sd, z1: DephasingCoeff, v: DepolCoeffs) -> PairingWeights:
    et = (v.d1 * cg + v.d3 * sg) * cd + (v.d1 * sg + v.d3 * cg) * sd
    ch = (v.d1 * sg + v.d3 * cg) * cd + (v.d1 * cg + v.d3 * sg) * sd
    f = (v.d4 - (2 / 3) * v.mu_times_p) * z1.mu_p
    g = z1.mu_p * (v.d1 - 2 * v.d2 + v.d3)
    h = v.d4 - (2 / 3) * v.mu_times_p
    return PairingWeights(
        cc=(et, ch, v.d2, v.d2),
        ss=(ch, et, v.d2, v.d2),
        sc=(v.d2, v.d2, ch, et),
        cs=(v.d2, v.d2, et, ch),
        f_diag=f, f_off=f, g00=g, g11=g, g_off=g, h_diag=h, h_off=h,
    )


def batch_weights(
    pairing: Pairing,
    ent: EntanglementParams,
    ch1: tuple[float, float],
    ch2: tuple[float, float],
) -> PairingWeights:
    """Build the sector weights for one pairing.  The p and mu in ``ch1`` and
    ``ch2``, and gamma and delta, may be arrays; they broadcast, and so does
    every weight."""
    (cg, sg), (cd, sd) = _half_angle_squares(ent.gamma), _half_angle_squares(ent.delta)

    def coeff(kind: ChannelKind, pm: tuple[float, float], slot: int):
        p, mu = pm
        if kind is ChannelKind.AMPLITUDE_DAMPING:
            return ad_coeffs(p, mu)
        if kind is ChannelKind.DEPOLARIZING:
            return depol_coeffs(p, mu, slot)
        return dephasing_coeff(p, mu)

    a = coeff(pairing.first, ch1, 1)
    b = coeff(pairing.second, ch2, 2)
    builder = _BUILDERS[pairing]
    return builder(cg, sg, cd, sd, a, b)


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
# Weight-free factors of ``payoff_surface`` (see module doc): the sector
# products, the f brackets, the gamma term, the delta prefactor and its sines.
AngleTerms = namedtuple("AngleTerms", "cc ss sc cs f_diag f_off gamma delta "
                                      "sin_diag sin_off")


def angle_terms(ent: EntanglementParams, theta1, alpha1, beta1,
                theta2, alpha2, beta2) -> AngleTerms:
    """The angle factors of ``payoff_surface``, broadcasting like it."""
    th1, a1, b1 = (np.asarray(x, dtype=float) for x in (theta1, alpha1, beta1))
    th2, a2, b2 = (np.asarray(x, dtype=float) for x in (theta2, alpha2, beta2))
    (c1, s1), (c2, s2) = _half_angle_squares(th1), _half_angle_squares(th2)
    n = np.sin(th1) * np.sin(th2)
    cc, ss, sc, cs = c1 * c2, s1 * s2, s1 * c2, c1 * s2
    return AngleTerms(
        cc, ss, sc, cs,
        cc * np.cos(2 * (a1 + a2)) - ss * np.cos(2 * (b1 + b2)),
        sc * np.cos(2 * (a2 - b1)) - cs * np.cos(2 * (a1 - b2)),
        0.25 * n * np.sin(ent.gamma) * np.sin(a1 + a2 - b1 - b2),
        0.25 * n * np.sin(ent.delta),
        np.sin(a1 + a2 + b1 + b2), np.sin(a1 - a2 + b1 - b2),
    )


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
    No range validation on the angle arrays; grid scans are expected to stay
    inside the strategy domain by construction."""
    if len(entries) != 4:
        raise ValueError(f"expected 4 payoff entries, got {len(entries)}")
    w = batch_weights(pairing, ent, ch1, ch2)
    t = angle_terms(ent, theta1, alpha1, beta1, theta2, alpha2, beta2)
    return assemble(t, payoff_coeffs(w, entries, ent))


def payoff_coeffs(weights: PairingWeights, entries: Sequence[float],
                  ent: EntanglementParams) -> tuple:
    """The nine factors that multiply the angle terms in ``assemble``: the four
    sector sums, the f_diag and f_off factors, the gamma bracket and the
    h_diag and h_off factors of the delta sines, broadcast like the weights."""
    e00, e01, e10, e11 = np.asarray(entries, dtype=float)
    w, xi = weights, 0.5 * np.sin(ent.delta) * np.sin(ent.gamma)

    def sector(sw: Sector):
        w00, w11, w01, w10 = sw
        return w00 * e00 + w11 * e11 + w01 * e01 + w10 * e10

    return (sector(w.cc), sector(w.ss), sector(w.sc), sector(w.cs),
            xi * w.f_diag * (e00 - e11), xi * w.f_off * (e01 - e10),
            -(w.g00 * e00 + w.g11 * e11) + w.g_off * (e01 + e10),
            w.h_diag * (e00 - e11), w.h_off * (e01 - e10))


def phase_products(t: AngleTerms, coeffs: tuple) -> tuple:
    """The four full-size products that ``assemble`` adds to the sector sum,
    in its order, as (angle term, coefficients, factor) triples: a product is
    ``term * factor()`` and linear in its coefficients, so it is +-0 wherever
    the term is 0 or all its coefficients are."""
    *_, f_diag, f_off, gamma, h_diag, h_off = coeffs
    return ((t.f_diag, (f_diag,), lambda: f_diag),
            (t.f_off, (f_off,), lambda: f_off),
            (t.gamma, (gamma,), lambda: gamma),
            (t.delta, (h_diag, h_off), lambda: h_diag * t.sin_diag + h_off * t.sin_off))


def sum_products(t: AngleTerms, coeffs: tuple, products, out=None):
    """The sector sum of ``t`` and ``coeffs`` plus the given ``phase_products``,
    left to right.  ``out``, if given, is two float arrays of the full
    broadcast shape: the products go to the second and the sum to the first
    (returned).  With no product the sum keeps the sectors' small shape."""
    cc, ss, sc, cs = coeffs[:4]
    acc, tmp = (None, None) if out is None else out
    total = t.cc * cc + t.ss * ss + t.sc * sc + t.cs * cs
    for term, _, factor in products:
        total = np.add(total, np.multiply(term, factor(), out=tmp), out=acc)
    return total


def assemble(t: AngleTerms, coeffs: tuple):
    """The payoff from its angle terms and ``payoff_coeffs`` (see module doc)."""
    return sum_products(t, coeffs, phase_products(t, coeffs))


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
) -> tuple[float, float]:
    """(Alice, Bob) closed-form payoffs, broadcasting like ``payoff_surface``:
    one call of it, with the two entry columns on a leading axis, shares the
    weights and angle terms, and each payoff has the bits of its own call."""
    angles = (*s1.angles, *s2.angles)
    nd = max(map(np.ndim, (ent.gamma, ent.delta, *ch1, *ch2, *angles)))
    entries = np.reshape(np.transpose([game.a, game.b]), (4, 2) + (1,) * nd)
    return tuple(payoff_surface(pairing, entries, ent, ch1, ch2, *angles))
