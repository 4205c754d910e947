"""Power branch: beam extraction, single-diode photovoltaic model and MPPT.

The fundamental-wavelength beam extracted through the output mirror is focused
onto a string of n_s photovoltaic cells in series, which share it, modelled by
the standard single-diode equivalent circuit (photocurrent source, diode,
shunt and series resistances) with photocurrent i_ph = rho*P/n_s.  The
operating point for a given charging voltage follows from Kirchhoff's laws:

    i = i_ph - i_d - v_d/r_sh
    i_d = i0 * (exp(v_d/(n_s*n*v_t)) - 1)
    v_d = v_charge + i*r_s

All solves use bisection (unconditionally convergent; the diode exponential
makes Newton steps overflow-prone), run down to bracket collapse so residuals
sit at the floating-point floor.  The charging power P(v) = v*i(v) is strictly
concave on [0, v_oc] (the proof is in `mppt`), so the maximum power point is
found by one golden-section search over [0, v_oc], stopped once the bracket is
narrower than 1e-9*v_oc.  The search compares the solves' powers as floats and
builds one OperatingPoint, for the point it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, E_CHARGE, H_PLANCK, K_BOLTZMANN, check_domains
from .resonator import LossBudget

_EXP_CLAMP = 700.0  # exp argument cap, avoids overflow on wild brackets
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_STEPS = math.ceil(math.log(1e9) / -math.log(_GOLDEN))  # 44 steps to a bracket < 1e-9*v_oc


@dataclass(frozen=True)
class PVSpec:
    """Single-diode string: responsivity rho [A/W] at the beam wavelength
    lam [m], reverse saturation current i0 [A], shunt/series resistances
    r_sh/r_s [Ohm], ideality factor n, temperature t [K], and n_s, the number
    of identical cells in series that share the one beam.  The string is one
    diode with junction scale n_s*n*v_t, fed the current of one cell, which
    is lit by 1/n_s of the beam (De Soto, Klein & Beckman, Solar Energy 80,
    78, 2006); so n_s raises the voltage and not the power."""

    rho: float
    lam: float
    i0: float
    r_sh: float
    r_s: float
    n: float
    n_s: int
    t: float

    def __post_init__(self) -> None:
        check_domains(self, ("rho", "lam", "i0", "r_sh", "r_s", "n", "n_s", "t"))
        if self.n_s != int(self.n_s):
            raise ValueError(f"n_s must be a whole number of cells, got {self.n_s!r}")
        if not self.nvt > 0.0:  # the diode exponential divides by it
            raise ValueError("n_s*n*v_t must be positive")
        limit = E_CHARGE * self.lam / (H_PLANCK * C_LIGHT)  # one electron per photon
        if self.rho > limit:
            raise ValueError(f"rho must not exceed the quantum limit e*lam/(h*c) = "
                             f"{limit:.4g} A/W at lam = {self.lam!r} m, got {self.rho}")

    @property
    def thermal_voltage(self) -> float:
        return K_BOLTZMANN * self.t / E_CHARGE

    @property
    def nvt(self) -> float:
        """Junction voltage scale n_s*n*v_t of the diode exponential [V]."""
        return self.n_s * self.n * self.thermal_voltage


@dataclass(frozen=True)
class PowerPath:
    """Transmittances of the fundamental's path from the cavity to the cell
    that the cavity does not share, from the cell back: the cell surface
    gamma_pv, lens L3 and the dichroic at the fundamental gamma_m5_nu."""

    gamma_pv: float
    gamma_l3: float
    gamma_m5_nu: float

    def __post_init__(self) -> None:
        check_domains(self, ("gamma_pv", "gamma_l3", "gamma_m5_nu"))


@dataclass(frozen=True)
class OperatingPoint:
    """One solved circuit state; p_charge = v_charge * i_charge."""

    v_charge: float
    i_charge: float
    p_charge: float
    v_d: float


def received_pt_power(p2: float, path: PowerPath, loss: LossBudget, gamma_air: float) -> float:
    """Beam power reaching the photovoltaic cell.

    The output mirror transmits 1 - loss.r_m2 of the incident wave p2
    (lossless coupler); the extracted beam then passes lens L2
    (loss.gamma_l2), air (gamma_air), the dichroic (path.gamma_m5_nu at the
    fundamental), lens L3 (path.gamma_l3) and the cell surface
    path.gamma_pv.
    """
    return (path.gamma_pv * path.gamma_l3 * path.gamma_m5_nu * (1.0 - loss.r_m2)
            * loss.gamma_l2 * gamma_air * p2)


def photo_current(spec: PVSpec, p_recv_pt: float) -> float:
    """String photocurrent i_ph = rho * P / n_s: the beam P is shared by the
    n_s series cells, so each is lit by P/n_s, and the string carries the
    current of one of them."""
    if p_recv_pt < 0.0:
        raise ValueError("p_recv_pt must be non-negative")
    return spec.rho * p_recv_pt / spec.n_s


def _diode_current(i0: float, nvt: float, v_d: float) -> float:
    x = v_d / nvt  # the conditional is min(x, _EXP_CLAMP), NaN included, but cheaper
    return i0 * math.expm1(_EXP_CLAMP if x > _EXP_CLAMP else x)


def _bisect(func, lo: float, hi: float) -> float:
    """Bisection to bracket collapse; assumes func(lo) >= 0 >= func(hi) or the
    reverse."""
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError("inconsistent circuit state: no sign change in bracket")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def _solve_circuit(i0: float, nvt: float, r_sh: float, r_s: float, i_ph: float,
                   v_charge: float) -> tuple[float, float, float]:
    """(p_charge, i_charge, v_d) at a prescribed charging voltage, from the
    cell's fields; `solve_operating_point` without its checks and record."""

    def residual(v_d: float) -> float:
        return i_ph - _diode_current(i0, nvt, v_d) - v_d / r_sh - (v_d - v_charge) / r_s

    v_d = _bisect(residual, 0.0, v_charge + i_ph * r_s)
    i = (v_d - v_charge) / r_s
    return v_charge * i, i, v_d


def solve_operating_point(spec: PVSpec, i_ph: float, v_charge: float) -> OperatingPoint:
    """Circuit state at a prescribed charging voltage.

    Bisects the current-balance residual over v_d in
    [0, v_charge + i_ph*r_s]: the residual is strictly decreasing in v_d,
    positive at 0 and negative at the upper end, so the bracket always holds a
    sign change (at i_ph = v_charge = 0 it is [0, 0], where the residual is 0).
    A v_charge above v_oc yields a (small) negative current -- the cell
    absorbs -- rather than an error.
    """
    if i_ph < 0.0:
        raise ValueError("i_ph must be non-negative")
    if v_charge < 0.0:
        raise ValueError("v_charge must be non-negative")
    p, i, v_d = _solve_circuit(spec.i0, spec.nvt, spec.r_sh, spec.r_s, i_ph, v_charge)
    return OperatingPoint(v_charge=v_charge, i_charge=i, p_charge=p, v_d=v_d)


def open_circuit_voltage(spec: PVSpec, i_ph: float) -> float:
    """Terminal voltage at zero charging current: i_ph = i_d(v) + v/r_sh."""
    if i_ph < 0.0:
        raise ValueError("i_ph must be non-negative")
    i0, nvt, r_sh = spec.i0, spec.nvt, spec.r_sh

    def residual(v: float) -> float:
        return i_ph - _diode_current(i0, nvt, v) - v / r_sh

    return _bisect(residual, 0.0, nvt * math.log1p(i_ph / i0))


def kirchhoff_residuals(spec: PVSpec, i_ph: float, op: OperatingPoint) -> tuple[float, float]:
    """Relative residuals of the node and loop equations at an operating point,
    with the diode current taken from op.v_d."""
    i_scale = max(abs(i_ph), 1e-30)
    v_scale = max(abs(op.v_d), 1e-30)
    i_d = _diode_current(spec.i0, spec.nvt, op.v_d)
    e_node = op.i_charge - (i_ph - i_d - op.v_d / spec.r_sh)
    e_loop = op.v_d - (op.v_charge + op.i_charge * spec.r_s)
    return abs(e_node) / i_scale, abs(e_loop) / v_scale


def mppt(spec: PVSpec, i_ph: float) -> OperatingPoint:
    """Maximum-power operating point over v_charge in [0, v_oc].

    P(v) = v*i(v) is strictly concave on [0, v_oc], so one golden-section
    search finds its only maximum.  With i = i_ph - i_d(v_d) - v_d/r_sh and
    v_d = v + i*r_s, let G(v_d) = i_d'(v_d) + 1/r_sh: G > 0, and G rises with
    v_d because i_d is convex (_EXP_CLAMP binds only above v_oc unless
    i_ph/i0 exceeds e**700).  Differentiating the loop equation gives

        di/dv = -1/(r_s + 1/G) < 0,    dv_d/dv = 1/(1 + r_s*G) > 0,

    so G rises with v, di/dv falls and i is concave.  Hence
    P'' = 2*i' + v*i'' < 0 for v >= 0.

    The search stops once the bracket is narrower than 1e-9*v_oc, after
    _STEPS = 44 steps and 2 + 44 solves whatever i_ph is.  Each step keeps the
    better point of the pair and adds one, so the pair always holds the best
    point solved so far, concave or not.  The steps compare charging powers
    only; the one OperatingPoint built is the winner's.
    """
    v_oc = open_circuit_voltage(spec, i_ph)  # raises for i_ph < 0
    i0, nvt, r_sh, r_s = spec.i0, spec.nvt, spec.r_sh, spec.r_s
    lo, hi = 0.0, v_oc
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    s1 = _solve_circuit(i0, nvt, r_sh, r_s, i_ph, x1)
    s2 = _solve_circuit(i0, nvt, r_sh, r_s, i_ph, x2)
    for _ in range(_STEPS):
        if s1[0] < s2[0]:
            lo, x1, s1 = x1, x2, s2
            x2 = lo + _GOLDEN * (hi - lo)
            s2 = _solve_circuit(i0, nvt, r_sh, r_s, i_ph, x2)
        else:
            hi, x2, s2 = x2, x1, s1
            x1 = hi - _GOLDEN * (hi - lo)
            s1 = _solve_circuit(i0, nvt, r_sh, r_s, i_ph, x1)
    v, (p, i, v_d) = (x2, s2) if s2[0] >= s1[0] else (x1, s1)
    return OperatingPoint(v_charge=v, i_charge=i, p_charge=p, v_d=v_d)
