"""Single-diode photovoltaic solves, open-circuit voltage and MPPT."""

import dataclasses
import math

import numpy as np
import pytest

from rbswipt import pv
from rbswipt.constants import E_CHARGE, K_BOLTZMANN
from rbswipt.link import _cavity_stage, evaluate_link
from rbswipt.params import SystemParams
from rbswipt.pv import (
    OperatingPoint,
    PowerPath,
    PVSpec,
    _diode_current,
    _solve_circuit,
    kirchhoff_residuals,
    mppt,
    open_circuit_voltage,
    photo_current,
    received_pt_power,
    solve_operating_point,
)
from rbswipt.resonator import LossBudget

SPEC = PVSpec(rho=0.6, lam=1064e-9, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=1,
              t=298.0)
I_PH = 3.247419385080777  # photocurrent at the reference operating point


def random_spec(rng) -> PVSpec:
    return PVSpec(rho=0.6, lam=1064e-9,
                  i0=10.0 ** rng.uniform(-8, -5),
                  r_sh=rng.uniform(30.0, 300.0),
                  r_s=rng.uniform(0.01, 0.08),
                  n=rng.uniform(1.3, 1.9),
                  n_s=int(rng.integers(1, 3)),
                  t=rng.uniform(280.0, 320.0))


def test_spec_validation_and_thermal_voltage():
    assert math.isclose(SPEC.thermal_voltage, K_BOLTZMANN * 298.0 / E_CHARGE,
                        rel_tol=1e-15)
    assert math.isclose(SPEC.thermal_voltage, 0.02567965312119263, rel_tol=1e-12)
    with pytest.raises(ValueError):
        PVSpec(rho=0.6, lam=1064e-9, i0=-1e-7, r_sh=53.82, r_s=0.037, n=1.48, n_s=1,
               t=298.0)
    with pytest.raises(ValueError):
        PVSpec(rho=0.6, lam=1064e-9, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=0,
               t=298.0)
    with pytest.raises(ValueError, match="whole number"):
        PVSpec(rho=0.6, lam=1064e-9, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=1.5,
               t=298.0)
    for n, t in ((5e-324, 298.0), (1.48, 1e-320), (1.48, 5e-324)):  # n_s*n*v_t underflows
        with pytest.raises(ValueError, match=r"n_s\*n\*v_t must be positive"):
            PVSpec(rho=0.6, lam=1064e-9, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=n, n_s=1, t=t)
    assert PVSpec(rho=0.6, lam=1064e-9, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=2.0,
                  t=298.0).n_s == 2
    # at most one electron per photon: rho <= e*lam/(h*c) at the cell's own lam
    for rho, lam, limit in ((0.86, 1064e-9, "0.8582"), (0.6, 743e-9, "0.5993")):
        with pytest.raises(ValueError, match=rf"^rho must not exceed the quantum limit "
                           rf"e\*lam/\(h\*c\) = {limit} A/W at lam = {lam!r} m, got {rho}$"):
            dataclasses.replace(SPEC, rho=rho, lam=lam)
    assert dataclasses.replace(SPEC, rho=0.86, lam=1100e-9).rho == 0.86  # limit 0.8872 A/W
    with pytest.raises(ValueError, match="^lam must be positive and finite, got nan$"):
        dataclasses.replace(SPEC, lam=math.nan)


def test_received_pt_power_extraction_chain():
    p2 = 65.99334088212247  # wave incident on the output coupler at the reference point
    path = PowerPath(gamma_pv=0.995, gamma_l3=0.99, gamma_m5_nu=0.99)
    loss = LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915, alpha_air=1e-4)
    got = received_pt_power(p2, path, loss, gamma_air=math.exp(-6e-4))
    expected = 0.995 * 0.99 * 0.99 * (1.0 - 0.915) * 0.99 * math.exp(-6e-4) * p2
    assert math.isclose(got, expected, rel_tol=1e-12)
    assert math.isclose(got, 5.412365641801295, rel_tol=1e-12)


def test_photo_current():
    assert math.isclose(photo_current(SPEC, 5.412365641801295), I_PH, rel_tol=1e-12)
    assert photo_current(SPEC, 0.0) == 0.0
    with pytest.raises(ValueError):
        photo_current(SPEC, -1.0)


def test_operating_point_satisfies_kirchhoff():
    rng = np.random.default_rng(5150)
    for _ in range(30):
        spec = random_spec(rng)
        i_ph = rng.uniform(0.05, 0.8)
        v_oc = open_circuit_voltage(spec, i_ph)
        op = solve_operating_point(spec, i_ph, rng.uniform(0.0, v_oc))
        assert max(kirchhoff_residuals(spec, i_ph, op)) < 1e-12


def test_kirchhoff_residuals_detect_a_wrong_diode_voltage():
    # the diode current comes from op.v_d, so a point whose loop equation holds
    # but whose v_d is off by 1e-6 (relative) breaks the node equation
    op = solve_operating_point(SPEC, I_PH, 0.4)
    v_d = op.v_d * (1.0 + 1e-6)
    i = (v_d - op.v_charge) / SPEC.r_s
    wrong = OperatingPoint(v_charge=op.v_charge, i_charge=i,
                           p_charge=op.v_charge * i, v_d=v_d)
    node, loop = kirchhoff_residuals(SPEC, I_PH, wrong)
    assert node > 1e-9
    assert loop < 1e-12
    assert max(kirchhoff_residuals(SPEC, I_PH, op)) < 1e-12


def test_operating_point_structure():
    op = solve_operating_point(SPEC, I_PH, 0.4)
    assert isinstance(op, OperatingPoint)
    assert op.p_charge == op.v_charge * op.i_charge
    assert math.isclose(op.v_d, op.v_charge + op.i_charge * SPEC.r_s, rel_tol=1e-12)
    # short circuit: no delivered power, nearly the full photocurrent flows
    short = solve_operating_point(SPEC, I_PH, 0.0)
    assert short.p_charge == 0.0
    assert abs(short.i_charge - I_PH) < 0.01 * I_PH
    with pytest.raises(ValueError):
        solve_operating_point(SPEC, -1.0, 0.4)
    with pytest.raises(ValueError):
        solve_operating_point(SPEC, I_PH, -0.1)
    # a dark cell at zero volts: the bracket is [0, 0] and the residual there is +0.0
    dark = solve_operating_point(SPEC, 0.0, 0.0)
    assert dark == OperatingPoint(0.0, 0.0, 0.0, 0.0)
    assert all(math.copysign(1.0, x) == 1.0 for x in dataclasses.astuple(dark))


def test_current_monotone_decreasing_in_voltage():
    voltages = np.linspace(0.0, 0.6, 25)
    currents = [solve_operating_point(SPEC, I_PH, float(v)).i_charge
                for v in voltages]
    assert all(a > b for a, b in zip(currents, currents[1:]))


def test_diode_exponent_clamp():
    # the exponent is capped at 700, as min(v_d/nvt, 700) caps it: at and
    # above the cap the current is i0*expm1(700), a NaN exponent stays NaN
    # and an exponent of -inf gives the reverse saturation current -i0
    i0 = SPEC.i0
    capped = i0 * math.expm1(700.0)
    for x in (700.0, 701.0, 1e300):  # nvt = 1 V makes v_d the exponent exactly
        assert _diode_current(i0, 1.0, x) == capped, x
    assert _diode_current(i0, SPEC.nvt, 1e300) == capped
    assert _diode_current(i0, 1.0, 699.0) == i0 * math.expm1(699.0) < capped
    assert math.isnan(_diode_current(i0, 1.0, math.nan))
    assert _diode_current(i0, 1.0, -math.inf) == -i0


def test_open_circuit_voltage():
    v_oc = open_circuit_voltage(SPEC, I_PH)
    assert math.isclose(v_oc, 0.6130080441411385, rel_tol=1e-12)
    # definition: photocurrent exactly balances diode and shunt
    i_d = SPEC.i0 * math.expm1(v_oc / (SPEC.n_s * SPEC.n * SPEC.thermal_voltage))
    assert abs(I_PH - i_d - v_oc / SPEC.r_sh) < 1e-12 * I_PH
    v_dark = open_circuit_voltage(SPEC, 0.0)
    assert v_dark == 0.0 and math.copysign(1.0, v_dark) == 1.0
    with pytest.raises(ValueError):
        open_circuit_voltage(SPEC, -1.0)


def test_behaviour_at_and_above_open_circuit():
    v_oc = open_circuit_voltage(SPEC, I_PH)
    at_oc = solve_operating_point(SPEC, I_PH, v_oc)
    assert abs(at_oc.i_charge) < 1e-12
    above = solve_operating_point(SPEC, I_PH, 1.05 * v_oc)
    assert above.i_charge < 0.0  # driven cell absorbs current


def test_mppt_reference_point():
    op = mppt(SPEC, I_PH)
    assert math.isclose(op.v_charge, 0.4214061931932813, rel_tol=1e-9)
    assert math.isclose(op.p_charge, 1.2175157295037338, rel_tol=1e-12)
    assert max(kirchhoff_residuals(SPEC, I_PH, op)) < 1e-12
    for zero in (0.0, -0.0):  # a dark cell: the search runs on the bracket [0, 0]
        dark = mppt(SPEC, zero)
        assert all(math.copysign(1.0, x) == 1.0 and x == 0.0
                   for x in dataclasses.astuple(dark)), (zero, dark)
    with pytest.raises(ValueError, match="i_ph must be non-negative"):
        mppt(SPEC, -1.0)


def test_mppt_returns_the_best_point_it_solved(monkeypatch):
    # the golden-section pair always holds the best point solved so far, so
    # returning the better of the final pair returns the best of all 46
    solved = []

    def recording(i0, nvt, r_sh, r_s, i_ph, v_charge):
        p, i, v_d = _solve_circuit(i0, nvt, r_sh, r_s, i_ph, v_charge)
        solved.append(OperatingPoint(v_charge=v_charge, i_charge=i, p_charge=p, v_d=v_d))
        return p, i, v_d

    monkeypatch.setattr(pv, "_solve_circuit", recording)
    rng = np.random.default_rng(4242)
    cases = [(SPEC, I_PH), (SPEC, 1e-9)]
    cases += [(random_spec(rng), rng.uniform(0.05, 0.8)) for _ in range(10)]
    for spec, i_ph in cases:
        solved.clear()
        op = mppt(spec, i_ph)
        assert len(solved) == 46
        assert any(op == p for p in solved)
        assert op.p_charge == max(p.p_charge for p in solved)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
STEPS = math.ceil(math.log(1e9) / -math.log(GOLDEN))


def _golden_reference(spec, i_ph):
    """The golden section `mppt` ran when it built an OperatingPoint for each
    of its 46 solves and compared the records, verbatim but for its constants,
    which are kept here: the point it returns is the reference for `mppt`."""
    v_oc = open_circuit_voltage(spec, i_ph)  # raises for i_ph < 0
    lo, hi = 0.0, v_oc
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    p1, p2 = solve_operating_point(spec, i_ph, x1), solve_operating_point(spec, i_ph, x2)
    for _ in range(STEPS):
        if p1.p_charge < p2.p_charge:
            lo, x1, p1 = x1, x2, p2
            x2 = lo + GOLDEN * (hi - lo)
            p2 = solve_operating_point(spec, i_ph, x2)
        else:
            hi, x2, p2 = x2, x1, p1
            x1 = hi - GOLDEN * (hi - lo)
            p1 = solve_operating_point(spec, i_ph, x1)
    return p2 if p2.p_charge >= p1.p_charge else p1


def test_mppt_is_the_record_search_bit_for_bit():
    # 500 seeded cells with photocurrents from 1e-9 to 5 A, the reference cell
    # at its 60 W photocurrent, at 1e-9 A and at zero, and the photocurrent of
    # test_link::test_mppt_just_above_threshold: mppt returns the record search's
    # point bit for bit, and that point is the public solve at its voltage
    params = SystemParams()
    _, _, threshold = _cavity_stage(vars(params))
    near = dataclasses.replace(params, p_in=threshold * (1.0 + 1e-9))
    assert STEPS == 44
    rng = np.random.default_rng(2929)
    cases = [(SPEC, I_PH), (SPEC, 1e-9), (SPEC, 0.0),
             (near.pv, photo_current(near.pv, evaluate_link(near).p_recv_pt))]
    cases += [(random_spec(rng), 10.0 ** rng.uniform(-9.0, 0.7)) for _ in range(500)]
    for spec, i_ph in cases:
        op = mppt(spec, i_ph)
        assert repr(op) == repr(_golden_reference(spec, i_ph)), (spec, i_ph)
        assert solve_operating_point(spec, i_ph, op.v_charge) == op, (spec, i_ph)


def test_mppt_beats_neighbours_and_scans():
    rng = np.random.default_rng(909)
    for _ in range(10):
        spec = random_spec(rng)
        i_ph = rng.uniform(0.05, 0.8)
        op = mppt(spec, i_ph)
        for dv in (-1e-3, -1e-5, 1e-5, 1e-3):
            v = op.v_charge + dv
            if v < 0.0:
                continue
            assert solve_operating_point(spec, i_ph, v).p_charge <= op.p_charge
        v_oc = open_circuit_voltage(spec, i_ph)
        coarse = max(solve_operating_point(spec, i_ph, float(v)).p_charge
                     for v in np.linspace(0.0, v_oc, 257))
        assert op.p_charge >= coarse - 1e-12
