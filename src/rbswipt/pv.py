"""Power branch: beam extraction, single-diode photovoltaic model and MPPT.

The fundamental-wavelength beam extracted through the output mirror is focused
onto a photovoltaic cell modelled by the standard single-diode equivalent
circuit (photocurrent source, diode, shunt and series resistances).  The
operating point for a given charging voltage follows from Kirchhoff's laws:

    i = i_ph - i_d - v_d/r_sh
    i_d = i0 * (exp(v_d/(n_s*n*v_t)) - 1)
    v_d = v_charge + i*r_s

All solves use bisection (unconditionally convergent; the diode exponential
makes Newton steps overflow-prone), run down to bracket collapse so residuals
sit at the floating-point floor.  The maximum power point is located by
golden-section search over [0, v_oc], guarded by a coarse scan so a
non-unimodal power curve falls back to a dense scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import E_CHARGE, K_BOLTZMANN
from .resonator import IntracavitySolution

_EXP_CLAMP = 700.0  # exp argument cap, avoids overflow on wild brackets
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PVSpec:
    """Single-diode cell: responsivity rho [A/W], reverse saturation current
    i0 [A], shunt/series resistances r_sh/r_s [Ohm], ideality factor n,
    series cell count n_s, temperature t [K]."""

    rho: float
    i0: float
    r_sh: float
    r_s: float
    n: float
    n_s: int
    t: float

    def __post_init__(self) -> None:
        for name in ("rho", "i0", "r_sh", "r_s", "n", "t"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 1 <= self.n_s < math.inf:
            raise ValueError("n_s must be >= 1")

    @property
    def thermal_voltage(self) -> float:
        return K_BOLTZMANN * self.t / E_CHARGE


@dataclass(frozen=True)
class OperatingPoint:
    """One solved circuit state; p_charge = v_charge * i_charge, r_pl the
    implied load resistance."""

    v_charge: float
    i_charge: float
    p_charge: float
    v_d: float
    i_d: float
    r_pl: float


def received_pt_power(
    solution: IntracavitySolution,
    gamma_pv: float,
    gamma_l3: float,
    gamma_m5_nu: float,
    r_m2: float,
    gamma_l2: float,
    gamma_air: float,
) -> float:
    """Beam power reaching the photovoltaic cell.

    The output mirror transmits 1 - r_m2 of the incident wave P2 (lossless
    coupler); the extracted beam then passes lens L2, air, the dichroic
    (transmittance gamma_m5_nu at the fundamental), lens L3 and the cell
    surface gamma_pv.
    """
    if solution.status != "lasing":
        return 0.0
    return (
        gamma_pv
        * gamma_l3
        * gamma_m5_nu
        * (1.0 - r_m2)
        * gamma_l2
        * gamma_air
        * solution.p2
    )


def photo_current(spec: PVSpec, p_recv_pt: float) -> float:
    """Photocurrent i_ph = rho * P."""
    if p_recv_pt < 0.0:
        raise ValueError("p_recv_pt must be non-negative")
    return spec.rho * p_recv_pt


def _diode_current(spec: PVSpec, v_d: float) -> float:
    arg = v_d / (spec.n_s * spec.n * spec.thermal_voltage)
    return spec.i0 * math.expm1(min(arg, _EXP_CLAMP))


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


def solve_operating_point(spec: PVSpec, i_ph: float, v_charge: float) -> OperatingPoint:
    """Circuit state at a prescribed charging voltage.

    Bisects the current-balance residual over v_d in
    [0, v_charge + i_ph*r_s]: the residual is strictly decreasing in v_d,
    positive at 0 and negative at the upper end, so the bracket always holds a
    sign change.  A v_charge above v_oc yields a (small) negative current --
    the cell absorbs -- rather than an error.
    """
    if i_ph < 0.0:
        raise ValueError("i_ph must be non-negative")
    if v_charge < 0.0:
        raise ValueError("v_charge must be non-negative")
    if i_ph == 0.0 and v_charge == 0.0:
        return OperatingPoint(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def residual(v_d: float) -> float:
        return i_ph - _diode_current(spec, v_d) - v_d / spec.r_sh - (v_d - v_charge) / spec.r_s

    v_d = _bisect(residual, 0.0, v_charge + i_ph * spec.r_s)
    i = (v_d - v_charge) / spec.r_s
    r_pl = v_charge / i if i > 0.0 else math.inf
    return OperatingPoint(
        v_charge=v_charge,
        i_charge=i,
        p_charge=v_charge * i,
        v_d=v_d,
        i_d=_diode_current(spec, v_d),
        r_pl=r_pl,
    )


def open_circuit_voltage(spec: PVSpec, i_ph: float) -> float:
    """Terminal voltage at zero charging current: i_ph = i_d(v) + v/r_sh."""
    if i_ph < 0.0:
        raise ValueError("i_ph must be non-negative")
    if i_ph == 0.0:
        return 0.0
    hi = spec.n_s * spec.n * spec.thermal_voltage * math.log1p(i_ph / spec.i0)

    def residual(v: float) -> float:
        return i_ph - _diode_current(spec, v) - v / spec.r_sh

    return _bisect(residual, 0.0, hi)


def kirchhoff_residuals(
    spec: PVSpec, i_ph: float, op: OperatingPoint
) -> tuple[float, float, float]:
    """Relative residuals of the three circuit equations at an operating point."""
    i_scale = max(abs(i_ph), 1e-30)
    v_scale = max(abs(op.v_d), 1e-30)
    e_node = op.i_charge - (i_ph - op.i_d - op.v_d / spec.r_sh)
    e_diode = op.i_d - _diode_current(spec, op.v_d)
    e_loop = op.v_d - (op.v_charge + op.i_charge * spec.r_s)
    return abs(e_node) / i_scale, abs(e_diode) / i_scale, abs(e_loop) / v_scale


def mppt(spec: PVSpec, i_ph: float, v_tol: float = 1e-9) -> OperatingPoint:
    """Maximum-power operating point over v_charge in [0, v_oc].

    Golden-section search down to v_tol (default well below the micro-volt
    level, so the power error is far under a nanowatt and the result beats any
    dense-scan sample of the unimodal curve).  A 65-point coarse scan guards
    unimodality: if some coarse sample beats the search result, a 10000-point
    dense scan takes over.
    """
    if i_ph < 0.0:
        raise ValueError("i_ph must be non-negative")
    if i_ph == 0.0:
        return OperatingPoint(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    v_oc = open_circuit_voltage(spec, i_ph)

    def point(v: float) -> OperatingPoint:
        return solve_operating_point(spec, i_ph, v)

    lo, hi = 0.0, v_oc
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    p1, p2 = point(x1), point(x2)
    best = p1 if p1.p_charge >= p2.p_charge else p2
    while hi - lo > v_tol:
        if p1.p_charge < p2.p_charge:
            lo, x1, p1 = x1, x2, p2
            x2 = lo + _GOLDEN * (hi - lo)
            p2 = point(x2)
        else:
            hi, x2, p2 = x2, x1, p1
            x1 = hi - _GOLDEN * (hi - lo)
            p1 = point(x1)
        if p1.p_charge >= best.p_charge:
            best = p1
        if p2.p_charge >= best.p_charge:
            best = p2

    coarse = [point(v_oc * k / 64.0) for k in range(1, 64)]
    best_coarse = max(coarse, key=lambda op: op.p_charge)
    if best_coarse.p_charge > best.p_charge:
        # power curve not unimodal around the search result: dense fallback
        dense = [point(v_oc * k / 9999.0) for k in range(1, 9999)]
        best_dense = max(dense, key=lambda op: op.p_charge)
        lo = max(0.0, best_dense.v_charge - v_oc / 9999.0)
        hi = min(v_oc, best_dense.v_charge + v_oc / 9999.0)
        while hi - lo > v_tol:
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            if point(x1).p_charge < point(x2).p_charge:
                lo = x1
            else:
                hi = x2
        candidate = point(0.5 * (lo + hi))
        best = max((best, best_dense, candidate), key=lambda op: op.p_charge)
    return best
