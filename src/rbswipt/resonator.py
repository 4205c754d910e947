"""Steady-state intracavity power balance with intracavity frequency doubling.

The circulating power is found from a saturated-gain round-trip balance
(Rigrod-style two-mirror analysis) in which both end reflectors are replaced
by equivalent amplitude reflection coefficients r1 (transmitter side, lumping
coatings, the doubling crystal and its conversion loss) and r2 (receiver side,
lumping the gain medium transmittance, air, coatings and diffraction
spillover).  The doubling efficiency depends on the circulating power, which
in turn depends on the conversion loss, so the pair (P4, eta) is solved as
one root in eta: g(eta) = K * P4(eta) - eta, strictly decreasing on [0, 1).
solve_intracavity brackets it by Illinois-modified regula falsi with a
bisection safeguard in the manner of Dekker's (Brent 1973): where the computed
sign of g is monotone it ends where bisection ends, at bracket collapse, in at
most two evaluations more.

Traveling-wave power stations around the loop: P4 is the wave incident on the
transmitter-side equivalent mirror and P2 = (r1/r2) * P4 the wave incident on
the receiver-side mirror.  The frequency-doubled carrier leaves the crystal
with power P_c = 2 * eta * P4 (both directions).

The cavity lases where round-trip gain exceeds round-trip loss, a bracket
written once (_bracket).  lasing_threshold is the last pump at which it is
<= 0, so a pump lases exactly when it exceeds the threshold, and
solve_intracavity takes only such pumps.

The diffraction factor is a user constant or the far-field model:
resolve_gamma_diff(loss, geom, a_g, lam) passes a constant through and
otherwise evaluates diffraction_loss(geom, a_g, lam), which reads the gap of
a CavityGeometry and no cavity mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import C_LIGHT, EPSILON_0, check_domains
from .optics import CavityGeometry


@dataclass(frozen=True)
class GainMediumSpec:
    """Thin-disk gain medium: saturation intensity i_s [W/m^2], aperture radius
    a_g [m], thickness l_g [m], combined pump efficiency eta_c, single-pass
    transmittance gamma_g, lasing wavelength lam [m]."""

    i_s: float
    a_g: float
    l_g: float
    eta_c: float
    gamma_g: float
    lam: float

    def __post_init__(self) -> None:
        check_domains(self, ("i_s", "a_g", "l_g", "eta_c", "gamma_g", "lam"))
        try:  # the Rigrod balance and the doubling coefficient divide by each of these
            products = (math.pi * self.a_g**2, self.volume, self.i_s * self.volume,
                        EPSILON_0 * C_LIGHT * self.lam**2)
        except OverflowError:  # a_g**2 or lam**2 beyond the double range
            products = (math.inf,)
        if not all(0.0 < x < math.inf for x in products):
            raise ValueError("pi*a_g**2, volume, i_s*volume and eps0*c*lam**2 "
                             "must be positive and finite")

    @property
    def volume(self) -> float:
        return math.pi * self.a_g**2 * self.l_g


@dataclass(frozen=True)
class SHGSpec:
    """Frequency-doubling crystal: effective nonlinear coefficient d_eff [m/V],
    length l_s [m], refractive index n0, passive transmittance gamma_shg."""

    d_eff: float
    l_s: float
    n0: float
    gamma_shg: float

    def __post_init__(self) -> None:
        check_domains(self, ("d_eff", "l_s", "n0", "gamma_shg"))
        try:  # shg_conversion_coefficient squares d_eff and l_s and cubes n0
            powers = (self.d_eff**2, self.l_s**2, self.n0**3)
        except OverflowError:
            powers = (math.inf,)
        if not all(x < math.inf for x in powers):
            raise ValueError("d_eff**2, l_s**2 and n0**3 must be finite")


@dataclass(frozen=True)
class LossBudget:
    """Round-trip loss factors at the lasing wavelength.

    gamma_l1/gamma_l2: lens transmittances; r_m1/r_m2: mirror reflectivities;
    alpha_air: air attenuation [1/m]; gamma_diff: diffraction spillover factor,
    either a constant in (0, 1] or "model:farfield", which resolve_gamma_diff
    evaluates per geometry with diffraction_loss.
    """

    gamma_l1: float
    gamma_l2: float
    r_m1: float
    r_m2: float
    alpha_air: float
    gamma_diff: float | str = "model:farfield"

    def __post_init__(self) -> None:
        check_domains(self, ("gamma_l1", "gamma_l2", "r_m1", "r_m2", "alpha_air"))
        gd = self.gamma_diff
        if gd != "model:farfield" and (isinstance(gd, str) or not 0.0 < float(gd) <= 1.0):
            raise ValueError(f"gamma_diff must be in (0, 1] or 'model:farfield', got {gd!r}")


@dataclass(frozen=True)
class IntracavitySolution:
    """Converged traveling-wave powers [W], doubling efficiency, equivalent
    reflection coefficients and carrier power of a lasing cavity."""

    p2: float
    p4: float
    eta_shg: float
    r1: float
    r2: float
    p_c: float


def air_transmittance(alpha_air: float, d: float) -> float:
    """One-way air transmittance exp(-alpha_air * d)."""
    if alpha_air < 0.0 or d < 0.0:
        raise ValueError("alpha_air and d must be non-negative")
    return math.exp(-alpha_air * d)


def diffraction_loss(geom: CavityGeometry, a_g: float, lam: float) -> float:
    """Per-pass fraction of the beam captured by the receiving aperture a_g.

    A Gaussian of radius w against a centred circular aperture of radius a_g
    captures 1 - exp(-2*a_g^2/w^2).  Here w is the far-field divergence spread
    of the aperture-filling mode over one gap length, w = lam*d/(pi*a_g), so
    the fraction goes to 1 as d -> 0 and decays smoothly with distance.
    """
    w = lam * geom.d / (math.pi * a_g)
    w2 = w * w
    if w2 == 0.0:  # d = 0, or a spread too small to square
        return 1.0
    return 1.0 - math.exp(-2.0 * a_g * a_g / w2)


def resolve_gamma_diff(
    loss: LossBudget, geom: CavityGeometry, a_g: float, lam: float
) -> float:
    """Resolve the diffraction factor: a user constant passes through
    unchanged, "model:farfield" is diffraction_loss of this geometry."""
    gd = loss.gamma_diff
    return diffraction_loss(geom, a_g, lam) if isinstance(gd, str) else float(gd)


def equivalent_reflectances(
    loss: LossBudget,
    shg: SHGSpec,
    gain: GainMediumSpec,
    eta_shg: float,
    d: float,
    gamma_diff: float,
) -> tuple[float, float]:
    """Equivalent amplitude reflection coefficients of the two cavity ends.

    r1 = (1 - eta) * gamma_shg * sqrt(gamma_l1^2 * r_m1)
    r2 = gamma_g * gamma_air * sqrt(gamma_l2^2 * r_m2 * gamma_diff)
    """
    if not 0.0 <= eta_shg < 1.0:
        raise ValueError("eta_shg must be in [0, 1)")
    r1 = (1.0 - eta_shg) * shg.gamma_shg * math.sqrt(loss.gamma_l1**2 * loss.r_m1)
    r2 = (
        gain.gamma_g
        * air_transmittance(loss.alpha_air, d)
        * math.sqrt(loss.gamma_l2**2 * loss.r_m2 * gamma_diff)
    )
    return r1, r2


def shg_conversion_coefficient(shg: SHGSpec, lam: float) -> float:
    """Plane-wave doubling coefficient K [m^2/W]: eta = K * intensity."""
    return (
        8.0
        * math.pi**2
        * shg.d_eff**2
        * shg.l_s**2
        / (EPSILON_0 * C_LIGHT * lam**2 * shg.n0**3)
    )


def _round_trip(r1: float, r2: float) -> float:
    """r1*r2 of a cavity that loses power on each round trip; 0 when an end is
    opaque (r = 0, e.g. air loss that underflows exp(-alpha_air*d))."""
    if not (0.0 <= r1 <= 1.0 and 0.0 <= r2 <= 1.0):
        raise ValueError("reflection coefficients must be in [0, 1]")
    rr = r1 * r2
    if rr >= 1.0:
        raise ValueError("lossless cavity divergence: r1*r2 must be < 1")
    return rr


def _bracket(gain: GainMediumSpec, rr: float, p_in: float) -> float:
    """Round-trip gain minus loss; the cavity lases where it is positive."""
    return gain.l_g * gain.eta_c * p_in / (gain.i_s * gain.volume) - math.log(1.0 / rr)


def rigrod_p4(gain: GainMediumSpec, r1: float, r2: float, p_in: float) -> float:
    """Circulating power incident on the transmitter-side equivalent mirror.

    P4 = [pi*a_g^2*i_s / ((1 + r1/r2)*(1 - r2*r1))] * _bracket

    Returns 0 when the bracket is non-positive, which is exactly when p_in <=
    lasing_threshold(gain, r1, r2), and for an opaque cavity (r1*r2 = 0).
    """
    rr = _round_trip(r1, r2)
    if p_in < 0.0:
        raise ValueError("p_in must be non-negative")
    if rr == 0.0:
        return 0.0
    bracket = _bracket(gain, rr, p_in)
    if bracket <= 0.0:
        return 0.0
    prefactor = math.pi * gain.a_g**2 * gain.i_s / ((1.0 + r1 / r2) * (1.0 - rr))
    return prefactor * bracket


def lasing_threshold(gain: GainMediumSpec, r1: float, r2: float) -> float:
    """The largest pump power at which the round-trip gain bracket of
    `rigrod_p4` is still <= 0: p_in > lasing_threshold(gain, r1, r2) exactly
    when rigrod_p4(gain, r1, r2, p_in) > 0.

    Raises ValueError for the reflectances `rigrod_p4` refuses, so a lossless
    cavity is an error here too, never a threshold of 0 W.  An opaque cavity
    (r1*r2 = 0) never lases: its threshold is infinite.
    """
    rr = _round_trip(r1, r2)
    if rr == 0.0:
        return math.inf
    # This closed form and the bracket (monotone in p) share ln(1/rr) and round
    # a dozen times at most, so while every product is a normal float the
    # bracket changes sign within p*(1 +- 2^-48), about 30 ulp: 5 ulp from p
    # at most over 20,000 random cavities.  The walk stops at that window.
    p = math.log(1.0 / rr) * gain.i_s * math.pi * gain.a_g**2 / gain.eta_c
    lo, hi = p - p * 2**-48, p + p * 2**-48
    while p > lo and _bracket(gain, rr, p) > 0.0:
        p = math.nextafter(p, 0.0)
    while p < hi and _bracket(gain, rr, math.nextafter(p, math.inf)) <= 0.0:
        p = math.nextafter(p, math.inf)
    return p


def solve_intracavity(
    gain: GainMediumSpec,
    shg: SHGSpec,
    loss: LossBudget,
    p_in: float,
    w0: float,
    gamma_diff: float,
    d: float,
) -> IntracavitySolution:
    """Solve the coupled (P4, eta) power balance as one root in eta.

    w0 is the multimode beam radius at the doubling crystal and gamma_diff the
    already-resolved diffraction factor.  eta solves g(eta) = K*P4(eta) - eta
    = 0, K = shg_conversion_coefficient * 2/(pi*w0^2), on [0, 1] by
    Illinois-modified regula falsi with a bisection safeguard, to bracket
    collapse; the lower end is returned, where P4 > 0.  A pump at or under
    the eta = 0 threshold is a ValueError: its caller decides dark.
    """
    r1, r2 = equivalent_reflectances(loss, shg, gain, 0.0, d, gamma_diff)
    p4 = rigrod_p4(gain, r1, r2, p_in)
    if p4 <= 0.0:
        raise ValueError(f"pump {p_in!r} W is at or under the lasing threshold")
    k = shg_conversion_coefficient(shg, gain.lam) * 2.0 / (math.pi * w0 * w0)
    eta, hi = 0.0, 1.0  # g(eta) > 0 >= g(hi) throughout
    g_eta, g_hi = k * p4, -1.0  # at eta = 1, r1 = 0 and so P4 = 0
    # Any point of the bracket can be the first trial; the undepleted K*P4(0)
    # lies just above the root wherever conversion lowers P4, and with K = 0
    # it ends the search at eta = 0 without a step.
    x = mid = min(k * p4, 0.5)
    # The safeguard follows bisection's own bracket [a, b] and its next trial
    # mid, for free wherever mid falls outside [eta, hi], where g's sign there
    # is known.  `ahead` counts the bisection steps so skipped less the steps
    # taken; at -2 the next trial is bisection's, so no solve makes more than
    # two steps beyond bisection's.
    a, b, ahead, side = eta, hi, 0, 0
    # r2 does not depend on eta; r1 is rounded as equivalent_reflectances does
    s1 = math.sqrt(loss.gamma_l1**2 * loss.r_m1)
    while eta < x < hi:
        r1_x = (1.0 - x) * shg.gamma_shg * s1
        p4_x = rigrod_p4(gain, r1_x, r2, p_in)
        if k * p4_x > x:
            eta, r1, p4, g_eta = x, r1_x, p4_x, k * p4_x - x
            if side > 0:  # hi kept twice running: halve its weight (Illinois)
                g_hi *= 0.5
            side = 1
        else:
            hi, g_hi = x, k * p4_x - x
            if side < 0:
                g_eta *= 0.5
            side = -1
        ahead -= 1
        while ahead < -1 and a < mid < b and not eta < mid < hi:
            if mid <= eta:
                a = mid
            else:
                b = mid
            mid = 0.5 * (a + b)
            ahead += 1
        if ahead < -1:
            x = mid  # inside [eta, hi], or both brackets have collapsed
        else:
            x = eta + g_eta * (hi - eta) / (g_eta - g_hi)
            if not eta < x < hi:  # rounded onto an end, or inf/inf
                x = 0.5 * (eta + hi)
    if eta > 0.1:
        warnings.warn(f"doubling efficiency {eta:.3g} exceeds the low-conversion "
                      "assumption", stacklevel=2)
    return IntracavitySolution(
        p2=(r1 / r2) * p4,
        p4=p4,
        eta_shg=eta,
        r1=r1,
        r2=r2,
        p_c=2.0 * eta * p4,
    )
