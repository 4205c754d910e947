"""50-digit references of the PV maximum-power point, the intracavity root and
the rate, independent of `pv`, `resonator` and `it_channel`.

The single-diode cell of `pv` with the charging voltage eliminated: at diode
voltage v_d the cell delivers i = i_ph - i_d(v_d) - v_d/r_sh at
v = v_d - i*r_s, so P = v*i and, with G = i_d'(v_d) + 1/r_sh,

    dP/dv_d = i*(1 + 2*r_s*G) - v_d*G,

which is i_ph > 0 at v_d = 0 and negative where i_d = i_ph, at
v_d = n_s*n*v_t*ln(1 + i_ph/i0).  The reference bisects that bracket at 50
significant digits (stdlib `decimal`), from the float photocurrent
rho*P_recv_PT/n_s of the program's own received power (a string of n_s
cells shares the one beam), the cell fields and the constants k and e, each
taken exactly, so it measures the error of the program's arithmetic and
solves alone.  It checks the maximum charging power, at n_s = 1, 2 and 4,
and the maximum-power voltage that `evaluate_link` reports.

The intracavity balance is bisected in the same way: g(eta) = K*P4(eta) - eta,
with P4 the Rigrod power at the equivalent reflectances r1(eta) and r2 and K
the plane-wave doubling coefficient at the program's own float beam radius w0
and diffraction factor, so the root checks `resonator.solve_intracavity`
alone, at each point's pump and just over its threshold.  The rate is the
closed form 0.5*log2(1 + (gamma*P)^2/(2*pi*e*sigma^2)) at the program's float
P_recv_IT.

The optics carry q, as a pair of Decimals, through the element list of the
two cat's-eye retroreflectors from M1 at z = 0: M1 -l- L1 -f- gain plane -d-
pupil 2 -f- L2 -l- M2 -l- L3 -f- PV.  q(0) is the self-consistent q of the
single pass M1 to M2, built from that list, and from the carried q follow the
multimode factor m = a_g/w00 at the gain plane, w0 = m*w00 at the crystal
(z = 0) and the capture area pi*(m*w00)^2 at the PV plane.  The program's
own stages past the optics, fed that w0 and area, give the reference
P_charge and P_recv_IT.  The program places lens 1 at f from M1, not at l,
so its capture area and P_recv_IT differ from these; a strict xfail pins
that disagreement.
"""

import functools
import math
from decimal import Decimal, localcontext

import pytest

from rbswipt import it_channel, pv
from rbswipt.constants import C_LIGHT, E_CHARGE, EPSILON_0, K_BOLTZMANN
from rbswipt.link import evaluate_link
from rbswipt.optics import beam_radius, cavity_mode
from rbswipt.params import SystemParams
from rbswipt.resonator import (air_transmittance, equivalent_reflectances, lasing_threshold,
                               resolve_gamma_diff, solve_intracavity)

POINTS = {"default": SystemParams(), "d = 11 m": SystemParams(d=11.0)}
# the maximum-power point also of strings of 2 and 4 cells
PV_POINTS = {**POINTS, "n_s = 2": SystemParams(n_s=2), "n_s = 4": SystemParams(n_s=4)}


@functools.cache
def maximum_power_point(name):
    """(P, v) at the maximum-power point of `PV_POINTS[name]`, to 50 digits."""
    params = PV_POINTS[name]
    cell = params.pv
    # each cell is lit by 1/n_s of the beam; n_s is a power of 2, so the
    # division is exact
    i_ph = Decimal(cell.rho * evaluate_link(params).p_recv_pt / cell.n_s)
    with localcontext() as ctx:
        ctx.prec = 50
        i0, r_sh, r_s = Decimal(cell.i0), Decimal(cell.r_sh), Decimal(cell.r_s)
        nvt = (cell.n_s * Decimal(cell.n) * Decimal(K_BOLTZMANN) * Decimal(cell.t)
               / Decimal(E_CHARGE))

        def current(v_d):
            return i_ph - i0 * ((v_d / nvt).exp() - 1) - v_d / r_sh

        def power(v_d):
            i = current(v_d)
            return (v_d - i * r_s) * i

        def slope(v_d):  # dP/dv_d
            g = i0 / nvt * (v_d / nvt).exp() + 1 / r_sh
            return current(v_d) * (1 + 2 * r_s * g) - v_d * g

        lo, hi = Decimal(0), nvt * (1 + i_ph / i0).ln()
        assert slope(lo) > 0 > slope(hi)
        while hi - lo > hi * Decimal("1e-48"):
            mid = (lo + hi) / 2
            if slope(mid) > 0:
                lo = mid
            else:
                hi = mid
        # the root is the maximum: P falls 1e-6 either side of it
        assert power(lo * Decimal("0.999999")) < power(lo) > power(lo * Decimal("1.000001"))
        return power(lo), lo - current(lo) * r_s


def _relative_error(name, field, reference):
    got = getattr(evaluate_link(PV_POINTS[name]), field)
    return abs(Decimal(got) - reference) / reference


# bound on the relative error of the charging power, from the errors
# measured: 6.9e-16 at the default point, 1.9e-15 at 11 m, 1.5e-15 at n_s = 2
# and 5.5e-15 at n_s = 4, where the golden section's v_mpp is 1.8e-8 off
CHARGE_BOUND = {"default": "2e-15", "d = 11 m": "2e-15", "n_s = 2": "3e-15",
                "n_s = 4": "1e-14"}


@pytest.mark.parametrize("name", PV_POINTS)
def test_maximum_charging_power_to_the_last_digits(name):
    power, _ = maximum_power_point(name)
    assert _relative_error(name, "p_hat_charge", power) < Decimal(CHARGE_BOUND[name])


@pytest.mark.xfail(strict=True, reason="pv.mppt's golden section stops about 4e-9 relative "
                   "from the maximum-power voltage (the v_mpp FOUND: in CHANGES.md)")
def test_maximum_power_voltage_to_1e_12():
    for name in POINTS:
        _, voltage = maximum_power_point(name)
        assert _relative_error(name, "v_mpp", voltage) < Decimal("1e-12"), name


# ------------------------------------------------------- intracavity and rate


def _pi():
    """pi to the context's precision, by the series that the `decimal`
    documentation's recipe sums: 3 + 3*(1/24) + 3*(1/24)*(9/80) + ..."""
    total, term, n, dn, d, dd, last = Decimal(3), Decimal(3), 1, 0, 0, 24, None
    while total != last:
        last = total
        n, dn = n + dn, dn + 8
        d, dd = d + dd, dd + 32
        term = term * n / d
        total += term
    return total


PUMPS = ("the point's pump", "threshold*(1 + 1e-9)")


def _gamma_diff(params):
    return resolve_gamma_diff(params.loss, params.geometry, params.a_g, params.lam)


def _pump(name, pump):
    """The pump of `PUMPS` at `POINTS[name]`, the threshold the program's own."""
    params = POINTS[name]
    if pump == PUMPS[0]:
        return params.p_in
    r1, r2 = equivalent_reflectances(params.loss, params.shg, params.gain, 0.0, params.d,
                                     _gamma_diff(params))
    return lasing_threshold(params.gain, r1, r2) * (1 + 1e-9)


@functools.cache
def intracavity(name, pump):
    """The program's intracavity solution at `POINTS[name]` and `pump`, and
    (eta, P4) of the same balance to 50 digits from the same float inputs."""
    params = POINTS[name]
    p_in = _pump(name, pump)
    gamma_diff = _gamma_diff(params)
    w0 = beam_radius(cavity_mode(params.geometry, params.a_g, params.lam), 0.0)
    solution = solve_intracavity(params.gain, params.shg, params.loss, p_in, w0, gamma_diff,
                                 params.d)
    with localcontext() as ctx:
        ctx.prec = 50
        gain, shg, loss = params.gain, params.shg, params.loss
        pi, area = _pi(), Decimal(gain.a_g) ** 2
        i_s = Decimal(gain.i_s)
        drive = Decimal(gain.l_g) * Decimal(gain.eta_c) * Decimal(p_in) / (
            i_s * pi * area * Decimal(gain.l_g))
        s1 = Decimal(shg.gamma_shg) * (Decimal(loss.gamma_l1) ** 2 * Decimal(loss.r_m1)).sqrt()
        r2 = (Decimal(gain.gamma_g) * (-Decimal(loss.alpha_air) * Decimal(params.d)).exp()
              * (Decimal(loss.gamma_l2) ** 2 * Decimal(loss.r_m2) * Decimal(gamma_diff)).sqrt())
        k = (8 * pi**2 * Decimal(shg.d_eff) ** 2 * Decimal(shg.l_s) ** 2
             / (Decimal(EPSILON_0) * Decimal(C_LIGHT) * Decimal(gain.lam) ** 2
                * Decimal(shg.n0) ** 3)
             * 2 / (pi * Decimal(w0) ** 2))

        def p4(eta):  # the Rigrod balance; negative under threshold
            r1 = (1 - eta) * s1
            return pi * area * i_s / ((1 + r1 / r2) * (1 - r1 * r2)) * (drive + (r1 * r2).ln())

        # g(eta) = K*P4(eta) - eta falls from K*P4(0) > 0 to -1 at eta = 1
        lo, hi = Decimal(0), Decimal(1)
        assert k * p4(lo) > 0
        while hi - lo > hi * Decimal("1e-45"):
            mid = (lo + hi) / 2
            if k * p4(mid) > mid:
                lo = mid
            else:
                hi = mid
        return solution, lo, p4(lo)


@functools.cache
def rate(name):
    """R_b to 50 digits from the program's float P_recv_IT at `POINTS[name]`."""
    noise = POINTS[name].noise
    p_recv_it = evaluate_link(POINTS[name]).p_recv_it
    with localcontext() as ctx:
        ctx.prec = 50
        signal = Decimal(noise.gamma) * Decimal(p_recv_it)
        b = Decimal(noise.b)
        variance = (2 * Decimal(E_CHARGE) * (signal + Decimal(noise.i_bk)) * b
                    + 4 * Decimal(K_BOLTZMANN) * Decimal(noise.t) * b / Decimal(noise.r_il))
        snr = signal**2 / (2 * _pi() * Decimal(1).exp() * variance)
        return (1 + snr).ln() / (2 * Decimal(2).ln())


# bound on the relative error of both eta and P4, from the errors measured:
# eta 9.6e-16 (7.5 ulp) and P4 6.2e-16 at the default point, eta 3.1e-15
# (24 ulp) and P4 3.6e-15 at 11 m.  Just over threshold both are off by
# 1.7e-6 (default) and 2.4e-7 (11 m): the float Rigrod bracket drive -
# ln(1/(r1*r2)) cancels to about 1e-9 of its terms there, and alone is off by
# 1.1e-6 and 5.6e-7 at the program's own r1 and r2, so the error is the
# bracket's, not the root's (the near-threshold FOUND: in CHANGES.md)
INTRACAVITY_BOUND = {("default", PUMPS[0]): "2e-15", ("d = 11 m", PUMPS[0]): "6e-15",
                     ("default", PUMPS[1]): "3e-6", ("d = 11 m", PUMPS[1]): "5e-7"}


@pytest.mark.parametrize("pump", PUMPS)
@pytest.mark.parametrize("name", POINTS)
def test_intracavity_root_to_the_last_digits(name, pump):
    solution, eta, p4 = intracavity(name, pump)
    if pump == PUMPS[0]:  # the solve is the one evaluate_link makes
        assert solution.eta_shg == evaluate_link(POINTS[name]).eta_shg
    bound = Decimal(INTRACAVITY_BOUND[name, pump])
    assert abs(Decimal(solution.eta_shg) - eta) / eta < bound
    assert abs(Decimal(solution.p4) - p4) / p4 < bound


@pytest.mark.parametrize("name", POINTS)
def test_rate_to_the_last_digits(name):
    # measured: 1.9e-16 relative at the default point and 7.7e-17 at 11 m
    reference = rate(name)
    assert abs(Decimal(evaluate_link(POINTS[name]).r_b) - reference) / reference < Decimal("4e-16")


# ------------------------------------------------------------------- optics

# the default point, 11 m, and the two ends of each grid criterion 4 reads
# its trends on; of these fields the optics read only the gap, so their
# bounds are keyed by it
OPTICS_POINTS = {**POINTS, "r_m2 = 0.82": SystemParams(r_m2=0.82),
                 "r_m2 = 0.995": SystemParams(r_m2=0.995),
                 "l_s = 0.1 mm": SystemParams(l_s=1e-4), "l_s = 1.2 mm": SystemParams(l_s=1.2e-3),
                 "d = 1 m": SystemParams(d=1.0), "d = 11.9 m": SystemParams(d=11.9),
                 "p_in = 40 W": SystemParams(p_in=40.0), "p_in = 100 W": SystemParams(p_in=100.0)}


def _inverse(q):
    x, y = q
    norm = x * x + y * y
    return x / norm, -y / norm


@functools.cache
def mode(name):
    """(q(0), m, w0, capture area at z_pv) of `OPTICS_POINTS[name]` to 50
    digits, q as a (real, imaginary) pair, from the float f, l, d, a_g and lam
    taken exactly."""
    params = OPTICS_POINTS[name]
    with localcontext() as ctx:
        ctx.prec = 50
        f, l, d = Decimal(params.f), Decimal(params.l), Decimal(params.d)
        # ("drift", length), ("lens", focal length) or ("plane", name)
        elements = (("drift", l), ("lens", f), ("drift", f), ("plane", "gain"), ("drift", d),
                    ("drift", f), ("lens", f), ("drift", l), ("plane", "M2"), ("drift", l),
                    ("lens", f), ("drift", f), ("plane", "PV"))
        a, b, c, dd = Decimal(1), Decimal(0), Decimal(0), Decimal(1)  # M1 to M2
        for kind, value in elements[:elements.index(("plane", "M2"))]:
            if kind == "drift":
                a, b = a + value * c, b + value * dd
            elif kind == "lens":
                c, dd = c - a / value, dd - b / value
        half_trace = (a + dd) / 2
        q = q0 = _inverse(((dd - a) / (2 * b), -(1 - half_trace**2).sqrt() / abs(b)))
        planes = {"M1": q0}
        for kind, value in elements:
            if kind == "drift":
                q = (q[0] + value, q[1])
            elif kind == "lens":
                inverse = _inverse(q)
                q = _inverse((inverse[0] - 1 / value, inverse[1]))
            else:
                planes[value] = q
        # q(0) is the single pass's own: carried to M2 it comes back
        q_m2 = planes["M2"]
        assert max(abs(q_m2[0] - q0[0]), abs(q_m2[1] - q0[1])) < q0[1] * Decimal("1e-40")
        pi, lam = _pi(), Decimal(params.lam)

        def w00(q):
            return (-lam / (pi * _inverse(q)[1])).sqrt()

        m = Decimal(params.a_g) / w00(planes["gain"])
        return q0, m, m * w00(planes["M1"]), pi * (m * w00(planes["PV"])) ** 2


def downstream(name):
    """(P_charge, P_recv_IT) of the program's stages past the optics at
    `OPTICS_POINTS[name]`, fed the reference w0 and capture area, in the order
    the lasing stage chains them."""
    params = OPTICS_POINTS[name]
    _, _, w0, area = mode(name)
    geom, gain, loss = params.geometry, params.gain, params.loss
    solution = solve_intracavity(gain, params.shg, loss, params.p_in, float(w0),
                                 _gamma_diff(params), geom.d)
    gamma_air = air_transmittance(loss.alpha_air, geom.d)
    p_recv_pt = pv.received_pt_power(solution.p2, params.power_path, loss, gamma_air)
    charge = pv.mppt(params.pv, pv.photo_current(params.pv, p_recv_pt)).p_charge
    gamma_pd = it_channel.pd_capture_ratio(it_channel.effective_area(params.concentrator),
                                           float(area))
    return charge, it_channel.received_it_power(solution.p_c, gamma_pd, params.carrier_path,
                                                loss, gamma_air)


def _relative(got, reference):
    return abs(Decimal(got) - Decimal(reference)) / abs(Decimal(reference))


# bound on the relative error of the program's q(0), by gap, from the errors
# measured: 1.2e-16 at 1 m, 1.4e-17 at 6 m, 3.9e-16 at 11 m and 1.3e-14 at
# 11.9 m, where 1 - g^2 is 0.033 and cancels about 5 bits
Q0_BOUND = {1.0: "3e-16", 6.0: "5e-17", 11.0: "1e-15", 11.9: "3e-14"}


@pytest.mark.parametrize("name", OPTICS_POINTS)
def test_mode_parameter_to_the_last_digits(name):
    q0, _, _, _ = mode(name)
    params = OPTICS_POINTS[name]
    got = cavity_mode(params.geometry, params.a_g, params.lam).q0
    assert got.real == 0.0 and abs(q0[0]) < q0[1] * Decimal("1e-45")
    assert _relative(got.imag, q0[1]) < Decimal(Q0_BOUND[params.d])


# bound on the relative error of the program's P_charge against the one fed
# the reference optics, from the errors measured: 2.6e-12 to 4.2e-11 at eight
# points; lens 1 at f moves w0 by 3.1e-10 at 6 m, which moves P_charge by
# 1.2e-10 at r_m2 = 0.995 and 2.0e-10 at l_s = 1.2 mm, where the doubling
# takes the most of the intracavity power
CHARGE_FROM_OPTICS_BOUND = {**dict.fromkeys(OPTICS_POINTS, "1e-10"), "r_m2 = 0.995": "3e-10",
                            "l_s = 1.2 mm": "3e-10"}


@pytest.mark.parametrize("name", OPTICS_POINTS)
def test_charging_power_from_the_reference_optics(name):
    charge, _ = downstream(name)
    got = evaluate_link(OPTICS_POINTS[name]).p_hat_charge
    assert _relative(got, charge) < Decimal(CHARGE_FROM_OPTICS_BOUND[name])


# bound on the relative error of m, w0, the capture area, P_charge and
# P_recv_IT once lens 1 sits at l, by gap, from the largest of those errors
# measured with that one change: 6.4e-15 at 1 m (P_recv_IT), 1.8e-15 at 6 m
# (the capture area and P_recv_IT), 7.5e-14 at 11 m (P_recv_IT) and 1.7e-13
# at 11.9 m (P_charge and P_recv_IT)
OPTICS_BOUND = {1.0: "2e-14", 6.0: "5e-15", 11.0: "2e-13", 11.9: "5e-13"}


@pytest.mark.xfail(strict=True, reason="lens 1 sits at z = f, not at l from M1: at 6 m, m and "
                   "w0 are 3.1e-10 off, the capture area at the PV plane is twice the "
                   "reference's, and P_recv_IT is 0.0226 W against 0.0451 W")
def test_mode_radii_and_detector_power_to_the_last_digits():
    for name, params in OPTICS_POINTS.items():
        _, m, w0, area = mode(name)
        got = cavity_mode(params.geometry, params.a_g, params.lam)
        result = evaluate_link(params)
        charge, p_recv_it = downstream(name)
        bound = Decimal(OPTICS_BOUND[params.d])
        assert _relative(got.m, m) < bound, name
        assert _relative(beam_radius(got, 0.0), w0) < bound, name
        assert _relative(math.pi * beam_radius(got, params.geometry.z_pv) ** 2, area) < bound, name
        assert _relative(result.p_hat_charge, charge) < bound, name
        assert _relative(result.p_recv_it, p_recv_it) < bound, name
