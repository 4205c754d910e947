"""Single-diode photovoltaic solves, open-circuit voltage and MPPT."""

import math

import numpy as np
import pytest

from rbswipt.constants import E_CHARGE, K_BOLTZMANN
from rbswipt.pv import (
    OperatingPoint,
    PVSpec,
    _diode_current,
    kirchhoff_residuals,
    mppt,
    open_circuit_voltage,
    photo_current,
    received_pt_power,
    solve_operating_point,
)

SPEC = PVSpec(rho=0.6, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=1, t=298.0)
I_PH = 3.247419385080777  # photocurrent at the reference operating point


def random_spec(rng) -> PVSpec:
    return PVSpec(rho=0.6,
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
        PVSpec(rho=0.6, i0=-1e-7, r_sh=53.82, r_s=0.037, n=1.48, n_s=1, t=298.0)
    with pytest.raises(ValueError):
        PVSpec(rho=0.6, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=0, t=298.0)
    with pytest.raises(ValueError, match="whole number"):
        PVSpec(rho=0.6, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=1.5, t=298.0)
    for n, t in ((5e-324, 298.0), (1.48, 1e-320), (1.48, 5e-324)):  # n_s*n*v_t underflows
        with pytest.raises(ValueError, match=r"n_s\*n\*v_t must be positive"):
            PVSpec(rho=0.6, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=n, n_s=1, t=t)
    assert PVSpec(rho=0.6, i0=0.32e-6, r_sh=53.82, r_s=0.037, n=1.48, n_s=2.0,
                  t=298.0).n_s == 2


def test_received_pt_power_extraction_chain():
    p2 = 65.99334088212247  # wave incident on the output coupler at the reference point
    got = received_pt_power(p2, gamma_pv=0.995, gamma_l3=0.99,
                            gamma_m5_nu=0.99, r_m2=0.915, gamma_l2=0.99,
                            gamma_air=math.exp(-6e-4))
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
    assert solve_operating_point(SPEC, 0.0, 0.0).p_charge == 0.0


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
    assert open_circuit_voltage(SPEC, 0.0) == 0.0
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
    assert mppt(SPEC, 0.0).p_charge == 0.0
    with pytest.raises(ValueError):
        mppt(SPEC, -1.0)


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
