"""Reference computations for the benchmark, built from the model's equations.

Nothing here calls into `rbswipt`: a `SystemParams` is read only for its
field values.  Each stage is posed the way the paper writes it, in the
coordinate where the answer is explicit or a monotone 1-D root:

- stability: the cavity is unstable exactly when d >= 4*f_rr, with
  f_rr = f^2 / (2*(l - f)) the cat's-eye focal length;
- mode: the single pass D(l) L(f) D(2f + d) L(f) D(l) as a product of element
  matrices, its self-consistent q, and thin-lens propagation along the axis;
- threshold: the pump at which the Rigrod bracket crosses zero at eta = 0;
- intracavity: the root of g(eta) = K*P4(eta) - eta, strictly decreasing on
  [0, 1), by bisection to bracket collapse;
- MPPT: a scan in the diode voltage v_d, where i = i_ph - i_d(v_d) - v_d/r_sh
  and v = v_d - i*r_s are explicit, refined by golden section in v_d;
- rate: R_b = 0.5*log2(1 + (gamma*P)^2 / (2*pi*e*sigma^2)) in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

E_CHARGE = 1.602176634e-19
K_BOLTZMANN = 1.380649e-23
EPSILON_0 = 8.8541878128e-12
C_LIGHT = 299792458.0

# Tolerances follow the solvers' stated stopping rules.  The intracavity
# solve iterates eta <- eta + 0.5*(K*P4(eta) - eta) and stops once successive
# P4 differ by at most STOP_REL relative.  Linearised at the root, the error
# e of eta shrinks by rho = 0.5*(1 + K*P4') < 0.5 per step, and the stop rule
# bounds |e| <= |rho|/(1 - rho) * STOP_REL/|dlnP4/deta| <= STOP_REL/|dlnP4/deta|:
# P4 is then good to STOP_REL, but eta only to STOP_REL/(eta*|dlnP4/deta|)
# relative, which is coarse when eta is small.  `Expected.tol` carries that
# bound through r1 = (1 - eta)*..., P_c = 2*eta*P4 and R_b (whose slope in
# ln P_recv_IT is below 1/ln 2), with ALLOWANCE for the linearisation.  The
# PV solves bisect to bracket collapse and the MPPT golden section stops at
# 1e-9 V; at the flat maximum the power is flat to rounding over
# |dv| ~ sqrt(2*eps*P/|P''|) ~ 1e-8 V, hence V_MPP_ABS_TOL, and v_mpp moves
# with ln i_ph at slope n_s*n*v_t.
STOP_REL = 1e-10
ALLOWANCE = 10.0
V_MPP_ABS_TOL = 1e-7  # [V]


def rr_focal_length(f: float, l: float) -> float:
    return f * f / (2.0 * (l - f))


def is_unstable(p) -> bool:
    return p.d >= 4.0 * rr_focal_length(p.f, p.l)


def _drift(x: float) -> np.ndarray:
    return np.array([[1.0, x], [0.0, 1.0]])


def _lens(f: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [-1.0 / f, 1.0]])


def _q0(p) -> complex:
    """Self-consistent q at the transmitter mirror for the single pass."""
    m = np.linalg.multi_dot([_drift(p.l), _lens(p.f), _drift(2.0 * p.f + p.d),
                             _lens(p.f), _drift(p.l)])
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    half_trace = 0.5 * (a + d)
    inv_q = complex((d - a) / (2.0 * b), -math.sqrt(1.0 - half_trace ** 2) / abs(b))
    return 1.0 / inv_q


def _q_at(p, z: float) -> complex:
    """q at axial position z; lenses at f, l + 2f + d and 3l + 2f + d."""
    q, prev = _q0(p), 0.0
    for z_lens in (p.f, p.l + 2.0 * p.f + p.d, 3.0 * p.l + 2.0 * p.f + p.d):
        if z < z_lens:
            break
        q = q + (z_lens - prev)
        q = 1.0 / (1.0 / q - 1.0 / p.f)
        prev = z_lens
    return q + (z - prev)


def _w00(q: complex, lam: float) -> float:
    return math.sqrt(-lam / (math.pi * (1.0 / q).imag))


def multimode_radius(p, z: float) -> float:
    """Multimode radius at z, anchored so that w(l + f) = a_g."""
    m = p.a_g / _w00(_q_at(p, p.l + p.f), p.lam)
    return m * _w00(_q_at(p, z), p.lam)


def gamma_diff(p) -> float:
    """Far-field spillover: Gaussian of radius lam*d/(pi*a_g) on aperture a_g."""
    if not isinstance(p.gamma_diff, str):
        return float(p.gamma_diff)
    if p.gamma_diff != "model:farfield":
        raise ValueError(f"oracle models only the far-field spillover, got {p.gamma_diff!r}")
    w = p.lam * p.d / (math.pi * p.a_g)
    return 1.0 - math.exp(-2.0 * p.a_g ** 2 / (w * w)) if w > 0.0 else 1.0


def reflectances(p, eta: float) -> tuple[float, float]:
    r1 = (1.0 - eta) * p.gamma_shg * math.sqrt(p.gamma_l1 ** 2 * p.r_m1)
    r2 = (p.gamma_g * math.exp(-p.alpha_air * p.d)
          * math.sqrt(p.gamma_l2 ** 2 * p.r_m2 * gamma_diff(p)))
    return r1, r2


def p4(p, eta: float) -> float:
    """Rigrod circulating power at doubling efficiency eta (0 below threshold)."""
    r1, r2 = reflectances(p, eta)
    volume = math.pi * p.a_g ** 2 * p.l_g
    bracket = p.l_g * p.eta_c * p.p_in / (p.i_s * volume) - math.log(1.0 / (r1 * r2))
    if bracket <= 0.0:
        return 0.0
    return math.pi * p.a_g ** 2 * p.i_s / ((1.0 + r1 / r2) * (1.0 - r1 * r2)) * bracket


def threshold_pump(p) -> float:
    """Pump power at which the eta = 0 Rigrod bracket is zero."""
    r1, r2 = reflectances(p, 0.0)
    return math.log(1.0 / (r1 * r2)) * p.i_s * math.pi * p.a_g ** 2 / p.eta_c


def expected_status(p) -> str:
    if is_unstable(p):
        return "unstable"
    if p.p_in <= threshold_pump(p):
        return "below_threshold"
    return "ok"


def _bisect(func, lo: float, hi: float) -> float:
    """Root of a decreasing func with func(lo) > 0 > func(hi), to collapse."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if func(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def intracavity(p, w0: float) -> tuple[float, float]:
    """(eta, P4) at the root of g(eta) = K*P4(eta) - eta."""
    k_coef = (8.0 * math.pi ** 2 * p.d_eff ** 2 * p.l_s ** 2
              / (EPSILON_0 * C_LIGHT * p.lam ** 2 * p.n0 ** 3))
    k = k_coef * 2.0 / (math.pi * w0 * w0)
    eta = _bisect(lambda e: k * p4(p, e) - e, 0.0, 1.0)
    return eta, p4(p, eta)


def _pv_curve(p, i_ph: float, v_d):
    """Terminal (v, i) of the single-diode cell as explicit functions of v_d."""
    v_t = K_BOLTZMANN * p.t / E_CHARGE
    i = i_ph - p.i0 * np.expm1(v_d / (p.n_s * p.n * v_t)) - v_d / p.r_sh
    return v_d - i * p.r_s, i


def mppt(p, i_ph: float) -> tuple[float, float]:
    """(P_max, v_mpp): dense v_d scan, then golden section to collapse."""
    v_t = K_BOLTZMANN * p.t / E_CHARGE
    # v_d spans short circuit (v = 0, v_d = i*r_s <= i_ph*r_s) to open circuit
    # (i = 0, v_d <= n_s*n*v_t*ln(1 + i_ph/i0)); power is negative outside
    hi = p.n_s * p.n * v_t * math.log1p(i_ph / p.i0) + i_ph * p.r_s
    grid = np.linspace(0.0, hi, 4097)
    v, i = _pv_curve(p, i_ph, grid)
    k = int(np.argmax(v * i))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]

    def power(v_d: float) -> float:
        v, i = _pv_curve(p, i_ph, v_d)
        return float(v * i)

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    while True:
        x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
        if not lo < x1 < x2 < hi:
            break
        if power(x1) < power(x2):
            lo = x1
        else:
            hi = x2
    v_d = 0.5 * (lo + hi)
    v, i = _pv_curve(p, i_ph, v_d)
    return float(v * i), float(v)


def rate(p, p_recv_it: float) -> float:
    if p_recv_it == 0.0:
        return 0.0
    signal = p.gamma * p_recv_it
    sigma2 = (2.0 * E_CHARGE * (signal + p.i_bk) * p.b
              + 4.0 * K_BOLTZMANN * p.t * p.b / p.r_il)
    return 0.5 * math.log2(1.0 + signal * signal / (2.0 * math.pi * math.e * sigma2))


@dataclass(frozen=True)
class Expected:
    status: str
    p_recv_pt: float = 0.0
    p_recv_it: float = 0.0
    p_hat_charge: float = 0.0
    r_b: float = 0.0
    v_mpp: float = 0.0
    eta_shg: float = 0.0
    tol: dict | None = None  # absolute tolerance per field when lasing


def link(p) -> Expected:
    """The whole chain for one parameter set."""
    status = expected_status(p)
    if status != "ok":
        return Expected(status)
    eta, p4_root = intracavity(p, multimode_radius(p, 0.0))
    r1, r2 = reflectances(p, eta)
    gamma_air = math.exp(-p.alpha_air * p.d)
    p2 = (r1 / r2) * p4_root
    p_recv_pt = (p.gamma_pv * p.gamma_l3 * p.gamma_m5_nu * (1.0 - p.r_m2)
                 * p.gamma_l2 * gamma_air * p2)
    p_max, v_mpp = mppt(p, p.rho * p_recv_pt)
    gamma_pd = p.gamma_pd
    if isinstance(gamma_pd, str):
        a_eff = 0.0
        if p.psi <= p.psi_c:
            a_eff = (p.a_pd * p.t_s * p.n_c ** 2 / math.sin(p.psi_c) ** 2
                     * math.cos(p.psi))
        spot = multimode_radius(p, 3.0 * p.l + 3.0 * p.f + p.d)
        gamma_pd = min(a_eff / (math.pi * spot ** 2), 1.0)
    p_c = 2.0 * eta * p4_root
    p_recv_it = (gamma_pd * p.gamma_l4 * p.r_m5_2nu * p.gamma_m2_2nu * p.gamma_l2
                 * gamma_air * p.gamma_g_eom * p.gamma_l1 * p_c)
    h = 1e-6 * eta
    slope = abs(math.log(p4(p, eta + h) / p4(p, eta - h)) / (2.0 * h))  # dlnP4/deta
    e_eta = ALLOWANCE * STOP_REL / slope
    rel_p4 = ALLOWANCE * STOP_REL
    rel_pt = rel_p4 + e_eta / (1.0 - eta)
    rel_it = rel_p4 + e_eta / eta
    r_b = rate(p, p_recv_it)
    v_t = K_BOLTZMANN * p.t / E_CHARGE
    tol = {"eta_shg": e_eta, "p_recv_pt": rel_pt * p_recv_pt,
           "p_hat_charge": 2.0 * rel_pt * p_max, "p_recv_it": rel_it * p_recv_it,
           "r_b": rel_it / math.log(2.0),
           "v_mpp": V_MPP_ABS_TOL + p.n_s * p.n * v_t * 2.0 * rel_pt}
    return Expected("ok", p_recv_pt, p_recv_it, p_max, r_b, v_mpp, eta, tol)


def mismatch(result, want: Expected) -> str | None:
    """None when `result` (a LinkResult) agrees with `want`, else why not."""
    if result.status != want.status:
        return f"status {result.status!r}, expected {want.status!r}"
    for name in ("p_recv_pt", "p_recv_it", "p_hat_charge", "r_b", "v_mpp", "eta_shg"):
        got, ref = getattr(result, name), getattr(want, name)
        if want.status != "ok":
            if got != 0.0:
                return f"dark row has {name} = {got!r}, expected 0"
        elif not abs(got - ref) <= want.tol[name]:
            return f"{name} = {got!r}, expected {ref!r} +- {want.tol[name]:.3g}"
    return None
