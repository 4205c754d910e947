"""Exposure-limit arithmetic for the glowing gain disk."""

import dataclasses
import math

import pytest

from rbswipt.params import SystemParams
from rbswipt.safety import MPE_BASE, exposure, mpe_extended_source

# the safety fields at their defaults: eta_p 0.75, eta_t 0.99, eta_a 0.91,
# d_e 0.1 m, a_g 2 mm, lam 1064 nm
SPEC = SystemParams()


def test_absorbed_pump_power():
    p_a = exposure(SPEC)[0]  # the default pump, 60 W
    assert math.isclose(p_a, 0.75 * 0.99 * 0.91 * 60.0, rel_tol=1e-15)
    assert math.isclose(p_a, 40.5405, rel_tol=1e-12)
    with pytest.raises(ValueError):  # a negative pump has no report
        SystemParams(p_in=-1.0)


def test_spontaneous_irradiance():
    irr = exposure(SPEC)[1]
    assert math.isclose(irr, 2.0 * 40.5405 / (4.0 * math.pi * 0.01), rel_tol=1e-12)
    assert math.isclose(irr, 645.2220970416981, rel_tol=1e-12)
    # inverse square in the measurement distance
    far = dataclasses.replace(SPEC, d_e=0.2)
    assert math.isclose(exposure(far)[1], irr / 4.0, rel_tol=1e-12)


def test_angular_subtense():
    assert math.isclose(exposure(SPEC)[2], 0.04, rel_tol=1e-15)


def test_mpe_wavelength_bands():
    # 1050-1400 nm: flat wavelength factor 5
    assert math.isclose(mpe_extended_source(1064e-9, 0.04), 1349.0, rel_tol=1e-12)
    assert mpe_extended_source(1064e-9, 0.04) == mpe_extended_source(1200e-9, 0.04)
    assert mpe_extended_source(1064e-9, 0.04) == mpe_extended_source(1400e-9, 0.04)
    # below 700 nm the wavelength factor is 1
    assert math.isclose(mpe_extended_source(532e-9, 0.04),
                        MPE_BASE * 0.04 / 1.5e-3, rel_tol=1e-12)
    # 700-1050 nm: 10^(0.002 (lam_nm - 700))
    assert math.isclose(mpe_extended_source(800e-9, 0.04),
                        MPE_BASE * 10.0 ** 0.2 * 0.04 / 1.5e-3, rel_tol=1e-12)
    for lam in (350e-9, 1500e-9, 1550e-9):  # outside the band the MPE covers
        with pytest.raises(ValueError, match="outside the supported 400-1400 nm band"):
            mpe_extended_source(lam, 0.04)
    with pytest.raises(ValueError):
        mpe_extended_source(1064e-9, 0.0)


def test_mpe_subtense_clamp():
    # the source-size factor clamps to [1.5, 100] mrad
    tiny = mpe_extended_source(1064e-9, 1e-4)
    assert math.isclose(tiny, MPE_BASE * 5.0, rel_tol=1e-12)
    assert mpe_extended_source(1064e-9, 1.5e-3) == tiny
    huge = mpe_extended_source(1064e-9, 0.5)
    assert math.isclose(huge, MPE_BASE * 5.0 * 0.1 / 1.5e-3, rel_tol=1e-12)
    # linear in between
    assert math.isclose(mpe_extended_source(1064e-9, 0.08),
                        2.0 * mpe_extended_source(1064e-9, 0.04), rel_tol=1e-12)


def test_max_safe_source_power():
    _, _, _, mpe, p_a_safe, p_in_safe = exposure(SPEC)
    assert mpe == mpe_extended_source(1064e-9, 0.04)
    assert math.isclose(p_a_safe, mpe * 4.0 * math.pi * 0.01 / 2.0, rel_tol=1e-12)
    assert math.isclose(p_in_safe, p_a_safe / (0.75 * 0.99 * 0.91), rel_tol=1e-12)
    assert math.isclose(p_a_safe, 84.76016979385264, rel_tol=1e-12)
    assert math.isclose(p_in_safe, 125.44517674007867, rel_tol=1e-12)
    # at the safe drive level the irradiance sits exactly at the limit
    at_limit = dataclasses.replace(SPEC, p_in=p_in_safe)
    assert math.isclose(exposure(at_limit)[1], mpe, rel_tol=1e-12)


def test_refusals():
    with pytest.raises(ValueError, match=r"^wavelength 1550\.0 nm outside the supported "
                       r"400-1400 nm band$"):
        exposure(dataclasses.replace(SPEC, lam=1550e-9))
    leaves = ("the safety report of this configuration leaves the double range; "
              "check p_in, d_e, a_g and eta_p*eta_t*eta_a")
    for change in ({"d_e": 1e-160},  # the irradiance overflows
                   {"eta_p": 1e-320},  # the safe pump power overflows
                   {"eta_p": 5e-324, "eta_t": 5e-324},  # the product underflows to 0
                   # alpha = 2e305 rad is finite, but not in mrad, as it is printed
                   {"a_g": 1e150, "d_e": 1e-155, "p_in": 0.0}):
        with pytest.raises(ValueError) as refused:
            exposure(dataclasses.replace(SPEC, **change))
        assert str(refused.value) == leaves, change
