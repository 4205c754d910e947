"""Carrier delivery chain, photodiode capture, noise and achievable rate."""

import math

import pytest

from rbswipt.constants import E_CHARGE, K_BOLTZMANN
from rbswipt.it_channel import (
    CarrierPath,
    ConcentratorSpec,
    NoiseSpec,
    achievable_rate,
    concentrator_gain,
    effective_area,
    noise_variance,
    pd_capture_ratio,
    received_it_power,
)
from rbswipt.resonator import LossBudget

CON = ConcentratorSpec(a_pd=1.6e-7, psi_c=math.radians(30.0), n_c=1.5,
                       t_s=0.995, psi=0.0)
NOISE = NoiseSpec(b=800e6, t=298.0, r_il=1e4, i_bk=5.1e-3, gamma=0.4)


def test_spec_validation():
    with pytest.raises(ValueError):
        ConcentratorSpec(a_pd=0.0, psi_c=0.5, n_c=1.5, t_s=0.995, psi=0.0)
    with pytest.raises(ValueError):
        ConcentratorSpec(a_pd=1.6e-7, psi_c=2.0, n_c=1.5, t_s=0.995, psi=0.0)
    with pytest.raises(ValueError):
        ConcentratorSpec(a_pd=1.6e-7, psi_c=0.5, n_c=0.5, t_s=0.995, psi=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(b=0.0, t=298.0, r_il=1e4, i_bk=5.1e-3, gamma=0.4)
    for b in (1e-320, 5e-324):  # the zero-signal noise variance underflows to 0
        with pytest.raises(ValueError, match="noise variance at zero signal"):
            NoiseSpec(b=b, t=298.0, r_il=1e4, i_bk=5.1e-3, gamma=0.4)


def test_concentrator_gain_and_area():
    # n_c^2 / sin^2(psi_c) with a 30 degree half-angle: 1.5^2 / 0.25 = 9
    assert math.isclose(concentrator_gain(CON), 9.0, rel_tol=1e-12)
    assert math.isclose(effective_area(CON), 1.6e-7 * 0.995 * 9.0, rel_tol=1e-12)
    assert math.isclose(effective_area(CON), 1.4328e-6, rel_tol=1e-12)
    # oblique incidence pays a cosine; outside the field of view nothing arrives
    tilted = ConcentratorSpec(a_pd=1.6e-7, psi_c=math.radians(30.0), n_c=1.5,
                              t_s=0.995, psi=0.2)
    assert math.isclose(effective_area(tilted),
                        effective_area(CON) * math.cos(0.2), rel_tol=1e-12)
    outside = ConcentratorSpec(a_pd=1.6e-7, psi_c=math.radians(30.0), n_c=1.5,
                               t_s=0.995, psi=math.radians(31.0))
    assert concentrator_gain(outside) == 0.0
    assert effective_area(outside) == 0.0


def test_pd_capture_ratio():
    assert pd_capture_ratio(1.0, 2.0) == 0.5
    assert pd_capture_ratio(3.0, 2.0) == 1.0  # detector larger than the spot
    # reference receiver spot (radius 2.828 mm) against the concentrator area
    a_o = math.pi * 0.002828462479422351**2
    assert math.isclose(pd_capture_ratio(1.4328e-6, a_o), 0.057007875436445726,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        pd_capture_ratio(1.0, 0.0)


def test_received_it_power_factor_chain():
    gamma_pd, gamma_air = 0.057007875436445726, math.exp(-6e-4)
    path = CarrierPath(gamma_pd="auto", gamma_l4=0.99, r_m5_2nu=0.995, gamma_m2_2nu=0.99,
                       gamma_g_eom=0.9752)
    loss = LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915, alpha_air=1e-4)
    p_c = 0.4249684565706579
    got = received_it_power(p_c, gamma_pd, path, loss, gamma_air)
    expected = p_c
    for value in (gamma_pd, 0.99, 0.995, 0.99, 0.99, gamma_air, 0.9752, 0.99):
        expected *= value
    assert math.isclose(got, expected, rel_tol=1e-12)
    assert math.isclose(got, 0.022567763746865574, rel_tol=1e-12)
    # without capture the fixed-optics chain multiplies out to ~0.9315
    chain = got / (p_c * gamma_pd)
    assert math.isclose(chain, 0.9315302769320907, rel_tol=1e-12)
    assert received_it_power(0.0, gamma_pd, path, loss, gamma_air) == 0.0
    with pytest.raises(ValueError):
        received_it_power(-1.0, gamma_pd, path, loss, gamma_air)


def test_noise_variance_terms():
    sigma2 = noise_variance(NOISE, 0.010)
    shot = 2.0 * E_CHARGE * (0.4 * 0.010 + 5.1e-3) * 800e6
    thermal = 4.0 * K_BOLTZMANN * 298.0 * 800e6 / 1e4
    assert math.isclose(shot, 2.332769179104e-12, rel_tol=1e-12)
    assert math.isclose(thermal, 1.3165868864e-15, rel_tol=1e-12)
    assert math.isclose(sigma2, shot + thermal, rel_tol=1e-12)
    # dark receiver still carries background shot noise and thermal noise
    floor = noise_variance(NOISE, 0.0)
    assert math.isclose(floor, 2.0 * E_CHARGE * 5.1e-3 * 800e6 + thermal,
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        noise_variance(NOISE, -1e-3)


def test_achievable_rate():
    dark = achievable_rate(NOISE, 0.0)
    assert dark == 0.0 and math.copysign(1.0, dark) == 1.0
    r = achievable_rate(NOISE, 0.010)
    snr = (0.4 * 0.010) ** 2 / (2.0 * math.pi * math.e * noise_variance(NOISE, 0.010))
    assert math.isclose(r, 0.5 * math.log2(1.0 + snr), rel_tol=1e-12)
    assert math.isclose(r, 9.307261709832101, rel_tol=1e-12)
    # an SNR under the double epsilon keeps its rate: 0.5*snr/ln 2 to first order
    weak = achievable_rate(NOISE, 1e-13)
    snr = (0.4 * 1e-13) ** 2 / (2.0 * math.pi * math.e * noise_variance(NOISE, 1e-13))
    assert snr < 2.0**-53
    assert math.isclose(weak, 0.5 * snr / math.log(2.0), rel_tol=1e-12)
    # monotone in received power
    powers = [1e-4, 1e-3, 1e-2, 1e-1]
    rates = [achievable_rate(NOISE, p) for p in powers]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    # an SNR past the double range: 0.5*log2(snr) from the logs of its factors
    quiet = NoiseSpec(b=1e-300, t=298.0, r_il=1e4, i_bk=5.1e-3, gamma=0.4)
    var = noise_variance(quiet, 0.010)
    assert (0.4 * 0.010) ** 2 / (2.0 * math.pi * math.e * var) == math.inf
    r = achievable_rate(quiet, 0.010)
    assert math.isclose(r, math.log2(0.4 * 0.010) - 0.5 * math.log2(2.0 * math.pi * math.e)
                        - 0.5 * math.log2(var), rel_tol=1e-12)
    with pytest.raises(ValueError, match="p_recv_it must be non-negative"):
        achievable_rate(NOISE, -1e-3)
