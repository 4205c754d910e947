"""Intracavity power balance, doubling efficiency and loss bookkeeping."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from rbswipt import resonator
from rbswipt.constants import C_LIGHT, EPSILON_0
from rbswipt.optics import CavityGeometry, beam_radius, cavity_mode
from rbswipt.resonator import (
    GainMediumSpec,
    IntracavitySolution,
    LossBudget,
    SHGSpec,
    air_transmittance,
    diffraction_loss,
    equivalent_reflectances,
    lasing_threshold,
    resolve_gamma_diff,
    rigrod_p4,
    shg_conversion_coefficient,
    solve_intracavity,
)

GAIN = GainMediumSpec(i_s=1.1976e7, a_g=2e-3, l_g=1e-3, eta_c=0.439,
                      gamma_g=0.9851, lam=1064e-9)
SHG = SHGSpec(d_eff=4.7e-12, l_s=0.4e-3, n0=2.23, gamma_shg=0.99)
LOSS = LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915,
                  alpha_air=1e-4)
GEOM = CavityGeometry(f=0.03, l=0.03015, d=6.0)
W0 = 9.999999996875e-06  # multimode radius at the crystal for the reference setup


def undepleted_eta(p4: float) -> float:
    """Plane-wave doubling efficiency K*2*p4/(pi*W0^2) at the reference focus."""
    return shg_conversion_coefficient(SHG, GAIN.lam) * 2.0 * p4 / (math.pi * W0 * W0)


def reference_gamma_diff() -> float:
    return diffraction_loss(GEOM, GAIN.a_g, GAIN.lam)


# ------------------------------------------------------------------ validation


def test_spec_validation():
    with pytest.raises(ValueError):
        GainMediumSpec(i_s=-1.0, a_g=2e-3, l_g=1e-3, eta_c=0.4, gamma_g=0.98, lam=1e-6)
    with pytest.raises(ValueError):
        GainMediumSpec(i_s=1e7, a_g=2e-3, l_g=1e-3, eta_c=1.2, gamma_g=0.98, lam=1e-6)
    with pytest.raises(ValueError):
        SHGSpec(d_eff=4.7e-12, l_s=0.0, n0=2.23, gamma_shg=0.99)
    with pytest.raises(ValueError):
        SHGSpec(d_eff=4.7e-12, l_s=4e-4, n0=0.9, gamma_shg=0.99)
    with pytest.raises(ValueError):
        LossBudget(gamma_l1=0.0, gamma_l2=0.99, r_m1=0.995, r_m2=0.915, alpha_air=1e-4)
    with pytest.raises(ValueError):
        LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915,
                   alpha_air=1e-4, gamma_diff="farfield")  # missing model: prefix
    with pytest.raises(ValueError):
        LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915,
                   alpha_air=1e-4, gamma_diff="model:nearfield")  # unknown model
    with pytest.raises(ValueError):
        LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915,
                   alpha_air=1e-4, gamma_diff="model:pupil")  # deleted model
    with pytest.raises(ValueError):
        LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915,
                   alpha_air=1e-4, gamma_diff=1.5)


def test_gain_volume():
    assert math.isclose(GAIN.volume, math.pi * 4e-6 * 1e-3, rel_tol=1e-15)


# ----------------------------------------------------------------- path losses


def test_air_transmittance():
    assert air_transmittance(1e-4, 0.0) == 1.0
    assert math.isclose(air_transmittance(1e-4, 6.0), math.exp(-6e-4), rel_tol=1e-15)
    with pytest.raises(ValueError):
        air_transmittance(-1e-4, 6.0)


def test_diffraction_loss_farfield_closed_form():
    # capture of a centred Gaussian by a circular aperture: 1 - exp(-2 a^2/w^2),
    # cross-checked against radial integration of the intensity profile
    gd = diffraction_loss(GEOM, GAIN.a_g, GAIN.lam)
    assert math.isclose(gd, 0.999568967316199, rel_tol=1e-12)
    w = GAIN.lam * GEOM.d / (math.pi * GAIN.a_g)
    r = np.linspace(0.0, GAIN.a_g, 4097)
    integrand = (4.0 / (w * w)) * r * np.exp(-2.0 * r * r / (w * w))
    weights = np.ones(r.size)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    simpson = float(weights @ integrand) * (r[1] - r[0]) / 3.0
    assert math.isclose(gd, simpson, rel_tol=1e-10)


def test_diffraction_loss_models_and_limits():
    assert diffraction_loss(CavityGeometry(0.03, 0.03015, 0.0), GAIN.a_g, GAIN.lam) == 1.0
    # longer gap, weaker capture
    far = [diffraction_loss(CavityGeometry(0.03, 0.03015, d), GAIN.a_g, GAIN.lam)
           for d in (2.0, 6.0, 10.0)]
    assert far[0] > far[1] > far[2]


def test_resolve_gamma_diff_dispatch():
    assert resolve_gamma_diff(LOSS, GEOM, GAIN.a_g, GAIN.lam) == \
        reference_gamma_diff()
    const = LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=0.915,
                      alpha_air=1e-4, gamma_diff=0.97)
    assert resolve_gamma_diff(const, GEOM, GAIN.a_g, GAIN.lam) == 0.97


def test_equivalent_reflectances_composition():
    gd = reference_gamma_diff()
    r1, r2 = equivalent_reflectances(LOSS, SHG, GAIN, 0.0, GEOM.d, gd)
    assert math.isclose(r1, 0.9776466795064565, rel_tol=1e-12)
    assert math.isclose(r2, 0.9321200853730065, rel_tol=1e-12)
    assert math.isclose(r1, 0.99 * math.sqrt(0.99**2 * 0.995), rel_tol=1e-12)
    assert math.isclose(
        r2,
        0.9851 * math.exp(-6e-4) * math.sqrt(0.99**2 * 0.915 * gd),
        rel_tol=1e-12,
    )
    # conversion shows up as a (1 - eta) amplitude factor on the crystal side
    r1_eta, r2_eta = equivalent_reflectances(LOSS, SHG, GAIN, 0.01, GEOM.d, gd)
    assert math.isclose(r1_eta, 0.99 * r1, rel_tol=1e-12)
    assert r2_eta == r2
    with pytest.raises(ValueError):
        equivalent_reflectances(LOSS, SHG, GAIN, 1.0, GEOM.d, gd)


# ----------------------------------------------------------- doubling physics


def test_shg_conversion_coefficient_formula():
    k = shg_conversion_coefficient(SHG, GAIN.lam)
    expected = (8.0 * math.pi**2 * (4.7e-12) ** 2 * (0.4e-3) ** 2
                / (EPSILON_0 * C_LIGHT * (1064e-9) ** 2 * 2.23**3))
    assert math.isclose(k, expected, rel_tol=1e-12)
    assert math.isclose(k, 8.374100198262984e-15, rel_tol=1e-12)
    # quadratic in crystal length
    double_l = SHGSpec(d_eff=4.7e-12, l_s=0.8e-3, n0=2.23, gamma_shg=0.99)
    assert math.isclose(shg_conversion_coefficient(double_l, GAIN.lam), 4.0 * k,
                        rel_tol=1e-12)


# -------------------------------------------------------------- power balance


def test_rigrod_reference_point():
    gd = reference_gamma_diff()
    r1, r2 = equivalent_reflectances(LOSS, SHG, GAIN, 0.0, GEOM.d, gd)
    assert math.isclose(rigrod_p4(GAIN, r1, r2, 60.0), 67.99412906221443,
                        rel_tol=1e-12)
    assert math.isclose(lasing_threshold(GAIN, r1, r2), 31.8475113882943,
                        rel_tol=1e-12)
    # explicit closed form
    rr = r1 * r2
    bracket = GAIN.l_g * GAIN.eta_c * 60.0 / (GAIN.i_s * GAIN.volume) - math.log(1 / rr)
    pre = math.pi * GAIN.a_g**2 * GAIN.i_s / ((1 + r1 / r2) * (1 - rr))
    assert math.isclose(rigrod_p4(GAIN, r1, r2, 60.0), pre * bracket, rel_tol=1e-12)


def test_rigrod_threshold_behaviour():
    gd = reference_gamma_diff()
    r1, r2 = equivalent_reflectances(LOSS, SHG, GAIN, 0.0, GEOM.d, gd)
    thr = lasing_threshold(GAIN, r1, r2)
    assert rigrod_p4(GAIN, r1, r2, thr * 0.999) == 0.0
    assert rigrod_p4(GAIN, r1, r2, thr * 1.001) > 0.0
    assert rigrod_p4(GAIN, r1, r2, 0.0) == 0.0
    with pytest.raises(ValueError):
        rigrod_p4(GAIN, r1, r2, -1.0)
    # an opaque end (r = 0, or r1*r2 underflowing to 0) never lases
    for opaque in ((0.0, r2), (r1, 0.0), (1e-200, 1e-200)):
        assert rigrod_p4(GAIN, *opaque, 1e9) == 0.0
        assert lasing_threshold(GAIN, *opaque) == math.inf
    # no threshold where rigrod_p4 has no balance: lossless or out of range
    for bad in ((1.0, 1.0), (-0.5, r2), (r1, -1e-300), (1.5, r2), (r1, 1.0000000000000002)):
        with pytest.raises(ValueError):
            rigrod_p4(GAIN, *bad, 60.0)
        with pytest.raises(ValueError):
            lasing_threshold(GAIN, *bad)


@pytest.mark.parametrize("draw_gain", [False, True])
def test_threshold_is_the_exact_edge_of_lasing(draw_gain):
    # Pumps stepped one ulp at a time across the threshold of seeded stable
    # cavities: P4 at eta = 0 is positive, and the solve accepts the pump,
    # exactly when the pump exceeds the threshold.  A threshold that is only
    # the closed form disagrees with the gain bracket within 2 ulp of it, on
    # about 1 pump in 200 here.  Only the pumps within 5 ulp of it are
    # solved, which keeps the test short.
    rng = np.random.default_rng(20261018)
    steps = 60
    for _ in range(200):
        gain = GAIN
        if draw_gain:
            gain = dataclasses.replace(GAIN, i_s=rng.uniform(0.5e7, 2e7),
                                       a_g=rng.uniform(1e-3, 4e-3),
                                       l_g=rng.uniform(0.5e-3, 3e-3),
                                       eta_c=rng.uniform(0.2, 0.8))
        geom = CavityGeometry(f=0.03, l=0.03015, d=rng.uniform(0.5, 11.9))
        loss = dataclasses.replace(LOSS, r_m2=rng.uniform(0.5, 0.999),
                                   alpha_air=rng.uniform(0.0, 1e-3))
        gd = diffraction_loss(geom, gain.a_g, gain.lam)
        w0 = beam_radius(cavity_mode(geom, gain.a_g, gain.lam), 0.0)
        r1, r2 = equivalent_reflectances(loss, SHG, gain, 0.0, geom.d, gd)
        thr = lasing_threshold(gain, r1, r2)
        p_in = thr
        for _ in range(steps):
            p_in = math.nextafter(p_in, 0.0)
        for step in range(-steps, steps):
            lases = p_in > thr
            assert (rigrod_p4(gain, r1, r2, p_in) > 0.0) == lases, (thr, p_in)
            if lases and step < 5:
                assert solve_intracavity(gain, SHG, loss, p_in, w0, gd, geom.d).p4 > 0.0
            elif not lases and step > -5:
                with pytest.raises(ValueError, match="threshold"):
                    solve_intracavity(gain, SHG, loss, p_in, w0, gd, geom.d)
            p_in = math.nextafter(p_in, math.inf)


def test_solve_intracavity_reference_solution():
    gd = reference_gamma_diff()
    sol = solve_intracavity(GAIN, SHG, LOSS, 60.0, W0, gd, GEOM.d)
    assert math.isclose(sol.p4, 63.13267801847667, rel_tol=1e-12)
    assert math.isclose(sol.eta_shg, 0.003365677413573774, rel_tol=1e-12)
    assert math.isclose(sol.p_c, 0.4249684569304248, rel_tol=1e-12)
    assert math.isclose(sol.r1, 0.9743562361587862, rel_tol=1e-12)
    assert math.isclose(sol.r2, 0.9321200853730065, rel_tol=1e-12)


@pytest.mark.filterwarnings("ignore:doubling efficiency")
@pytest.mark.parametrize("d, l_s, p_in, gamma_diff", [
    (6.0, 0.4e-3, 60.0, "model:farfield"),
    (6.0, 3e-3, 200.0, "model:farfield"),  # eta = 0.215
    (6.0, 6e-3, 200.0, "model:farfield"),  # eta = 0.315
    (11.9, 0.4e-3, 60.0, "model:farfield"),
    (6.0, 0.4e-3, 60.0, 0.97),
], ids=["reference", "l_s_3mm", "l_s_6mm", "d_11.9m", "constant_gamma_diff"])
def test_solve_intracavity_is_a_fixed_point(d, l_s, p_in, gamma_diff):
    # the solve's own r1 and r2 are bit for bit those of equivalent_reflectances
    # at its eta, at weak and strong conversion and at any diffraction factor
    geom = dataclasses.replace(GEOM, d=d)
    shg = dataclasses.replace(SHG, l_s=l_s)
    loss = dataclasses.replace(LOSS, gamma_diff=gamma_diff)
    w0 = beam_radius(cavity_mode(geom, GAIN.a_g, GAIN.lam), 0.0)
    gd = resolve_gamma_diff(loss, geom, GAIN.a_g, GAIN.lam)
    sol = solve_intracavity(GAIN, shg, loss, p_in, w0, gd, d)
    assert (sol.eta_shg > 0.1) == (l_s >= 3e-3)
    r1, r2 = equivalent_reflectances(loss, shg, GAIN, sol.eta_shg, d, gd)
    assert (r1, r2) == (sol.r1, sol.r2)
    assert abs(sol.p4 - rigrod_p4(GAIN, r1, r2, p_in)) <= 1e-10 * sol.p4
    eta_back = shg_conversion_coefficient(shg, GAIN.lam) * 2.0 * sol.p4 / (math.pi * w0 * w0)
    assert abs(sol.eta_shg - eta_back) <= 1e-8 * eta_back
    # wave bookkeeping around the loop
    assert math.isclose(sol.p2, (sol.r1 / sol.r2) * sol.p4, rel_tol=1e-15)
    assert math.isclose(sol.p_c, 2.0 * sol.eta_shg * sol.p4, rel_tol=1e-15)


def test_solve_intracavity_matches_undamped_replication():
    # independent plain-iteration replication of the same balance
    gd = reference_gamma_diff()
    sol = solve_intracavity(GAIN, SHG, LOSS, 60.0, W0, gd, GEOM.d)
    eta = 0.0
    for _ in range(200):
        r1, r2 = equivalent_reflectances(LOSS, SHG, GAIN, eta, GEOM.d, gd)
        p4 = rigrod_p4(GAIN, r1, r2, 60.0)
        eta = undepleted_eta(p4)
    assert math.isclose(p4, sol.p4, rel_tol=1e-9)
    assert math.isclose(eta, sol.eta_shg, rel_tol=1e-8)


def test_solve_intracavity_below_threshold():
    # a dark pump is decided by its caller: the solve refuses it
    gd = reference_gamma_diff()
    with pytest.raises(ValueError, match="threshold"):
        solve_intracavity(GAIN, SHG, LOSS, 1.0, W0, gd, GEOM.d)
    thr = lasing_threshold(GAIN, *equivalent_reflectances(LOSS, SHG, GAIN, 0.0,
                                                          GEOM.d, gd))
    assert math.isclose(thr, 31.8475113882943, rel_tol=1e-12)
    for p_in in (thr * 0.999, thr):
        with pytest.raises(ValueError, match="threshold"):
            solve_intracavity(GAIN, SHG, LOSS, p_in, W0, gd, GEOM.d)
    assert solve_intracavity(GAIN, SHG, LOSS, thr * 1.01, W0, gd, GEOM.d).p4 > 0.0


def test_solve_intracavity_monotone_in_losses():
    gd = reference_gamma_diff()
    p_ref = solve_intracavity(GAIN, SHG, LOSS, 60.0, W0, gd, GEOM.d).p4
    lossier = LossBudget(gamma_l1=0.98, gamma_l2=0.99, r_m1=0.995, r_m2=0.915,
                         alpha_air=1e-4)
    assert solve_intracavity(GAIN, SHG, lossier, 60.0, W0, gd, GEOM.d).p4 < p_ref
    assert solve_intracavity(GAIN, SHG, LOSS, 60.0, W0, 0.99 * gd, GEOM.d).p4 < p_ref


def _bisection_oracle(gain, shg, loss, p_in, w0, gd, d):
    """(status, eta, P4) from the model equations alone: bisection of
    g(eta) = K*P4(eta) - eta over [0, 1] until the bracket collapses."""
    r1_0 = shg.gamma_shg * math.sqrt(loss.gamma_l1**2 * loss.r_m1)
    r2 = (gain.gamma_g * math.exp(-loss.alpha_air * d)
          * math.sqrt(loss.gamma_l2**2 * loss.r_m2 * gd))
    drive = gain.eta_c * p_in / (gain.i_s * math.pi * gain.a_g**2)

    def p4(eta):
        r1 = (1.0 - eta) * r1_0
        bracket = drive + math.log(r1 * r2)
        if bracket <= 0.0:
            return 0.0
        return (math.pi * gain.a_g**2 * gain.i_s * bracket
                / ((1.0 + r1 / r2) * (1.0 - r1 * r2)))

    if p4(0.0) <= 0.0:
        return "below_threshold", 0.0, 0.0
    k = (16.0 * math.pi * shg.d_eff**2 * shg.l_s**2
         / (EPSILON_0 * C_LIGHT * gain.lam**2 * shg.n0**3 * w0 * w0))
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return "lasing", lo, p4(lo)
        if k * p4(mid) > mid:
            lo = mid
        else:
            hi = mid


def test_solve_intracavity_matches_bisection_oracle():
    # strong-conversion crystals, a strong crystal at high pump (eta ~ 0.27),
    # no doubling at all, pumps under threshold, and the end of lasing
    # 0.1 m short of the stability limit
    cases = [(d, l_s, d_eff, p_in)
             for d in (6.0, 11.9)
             for l_s in (0.4e-3, 3e-3, 4e-3, 5e-3, 6e-3)
             for d_eff in (0.0, 4.7e-12, 50e-12)
             for p_in in (20.0, 60.0, 200.0)]
    seen = set()
    for d, l_s, d_eff, p_in in cases:
        geom = CavityGeometry(f=0.03, l=0.03015, d=d)
        w0 = beam_radius(cavity_mode(geom, GAIN.a_g, GAIN.lam), 0.0)
        gd = diffraction_loss(geom, GAIN.a_g, GAIN.lam)
        shg = dataclasses.replace(SHG, l_s=l_s, d_eff=d_eff)
        status, eta, p4 = _bisection_oracle(GAIN, shg, LOSS, p_in, w0, gd, d)
        case = (d, l_s, d_eff, p_in)
        seen.add((status, eta > 0.1))
        if status == "below_threshold":
            with pytest.raises(ValueError, match="threshold"):
                solve_intracavity(GAIN, shg, LOSS, p_in, w0, gd, d)
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_intracavity(GAIN, shg, LOSS, p_in, w0, gd, d)
        assert math.isclose(sol.eta_shg, eta, rel_tol=1e-12), case
        # near the end of lasing P4 is a small difference of terms of order
        # p_in, so it carries their rounding as an absolute error
        assert math.isclose(sol.p4, p4, rel_tol=1e-12, abs_tol=1e-12 * p_in), case
        # one warning on the root, none from trial points
        assert len(caught) == (eta > 0.1), case
        assert sol.p4 > 0.0 and sol.p2 > 0.0, case
        if d_eff == 0.0:
            assert sol.eta_shg == 0.0 and sol.p_c == 0.0, case
    assert seen == {("below_threshold", False), ("lasing", False), ("lasing", True)}

    # the named cases: lasing at l_s = 5 mm with no warning, and one warning
    # for d_eff = 50 pm/V at 200 W
    w0, gd = W0, reference_gamma_diff()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_intracavity(GAIN, dataclasses.replace(SHG, l_s=5e-3), LOSS,
                                60.0, w0, gd, GEOM.d)
    assert sol.p4 > 0.0 and not caught
    assert math.isclose(sol.eta_shg, 0.0648, rel_tol=1e-3)
    assert math.isclose(sol.p4, 7.78, rel_tol=1e-3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_intracavity(GAIN, dataclasses.replace(SHG, d_eff=50e-12), LOSS,
                                200.0, w0, gd, GEOM.d)
    assert math.isclose(sol.eta_shg, 0.270, rel_tol=1e-3)
    assert len(caught) == 1 and issubclass(caught[0].category, UserWarning)


def _bisection_reference(gain, shg, loss, p_in, w0, gamma_diff, d):
    """The bisection that `solve_intracavity` replaced, verbatim but for its
    warning: the root it returns and the rigrod_p4 calls it makes are the
    reference for the Illinois solve."""
    r1, r2 = equivalent_reflectances(loss, shg, gain, 0.0, d, gamma_diff)
    p4 = rigrod_p4(gain, r1, r2, p_in)
    if p4 <= 0.0:
        raise ValueError(f"pump {p_in!r} W is at or under the lasing threshold")
    k = shg_conversion_coefficient(shg, gain.lam) * 2.0 / (math.pi * w0 * w0)
    eta, hi = 0.0, 1.0  # g(eta) > 0 >= g(hi) throughout
    # Any point of the bracket can be the first trial; the undepleted K*P4(0)
    # lies just above the root wherever conversion lowers P4, and with K = 0
    # it ends the search at eta = 0 without a step.
    mid = min(k * p4, 0.5)
    # r2 does not depend on eta; r1 is rounded as equivalent_reflectances does
    s1 = math.sqrt(loss.gamma_l1**2 * loss.r_m1)
    while eta < mid < hi:
        r1_mid = (1.0 - mid) * shg.gamma_shg * s1
        p4_mid = rigrod_p4(gain, r1_mid, r2, p_in)
        if k * p4_mid > mid:
            eta, r1, p4 = mid, r1_mid, p4_mid
        else:
            hi = mid
        mid = 0.5 * (eta + hi)
    return IntracavitySolution(
        p2=(r1 / r2) * p4,
        p4=p4,
        eta_shg=eta,
        r1=r1,
        r2=r2,
        p_c=2.0 * eta * p4,
    )


@pytest.mark.filterwarnings("ignore:doubling efficiency")
def test_illinois_solve_is_bisection_bit_for_bit_within_two_calls(monkeypatch):
    # 3000 seeded lasing draws over d in [0, 12) m, p_in in [0, 200] W, r_m2 in
    # [0.5, 1), l_s in [0.1, 6] mm and d_eff in {1, 4.7, 50} pm/V: every
    # solution is the bisection's, and no solve makes more than 2 rigrod_p4
    # calls beyond the bisection's count
    calls, uncounted = [0], rigrod_p4

    def counting(*args):
        calls[0] += 1
        return uncounted(*args)

    # the solve looks rigrod_p4 up in its module, the reference in this one
    monkeypatch.setattr(resonator, "rigrod_p4", counting)
    monkeypatch.setitem(globals(), "rigrod_p4", counting)
    rng = np.random.default_rng(20261020)
    counts = []  # (Illinois calls, bisection calls) per solve
    while len(counts) < 3000:
        d, p_in, r_m2, l_s, pick = rng.uniform((0.0, 0.0, 0.5, 0.1e-3, 0.0),
                                               (12.0, 200.0, 1.0, 6e-3, 3.0)).tolist()
        geom = CavityGeometry(f=0.03, l=0.03015, d=d)
        loss = dataclasses.replace(LOSS, r_m2=r_m2)
        shg = dataclasses.replace(SHG, l_s=l_s, d_eff=(1e-12, 4.7e-12, 50e-12)[int(pick)])
        gd = diffraction_loss(geom, GAIN.a_g, GAIN.lam)
        if p_in <= lasing_threshold(GAIN, *equivalent_reflectances(loss, shg, GAIN, 0.0, d, gd)):
            continue
        w0 = beam_radius(cavity_mode(geom, GAIN.a_g, GAIN.lam), 0.0)
        calls[0] = 0
        want = _bisection_reference(GAIN, shg, loss, p_in, w0, gd, d)
        bisection_calls = calls[0]
        calls[0] = 0
        got = solve_intracavity(GAIN, shg, loss, p_in, w0, gd, d)
        case = (d, p_in, r_m2, l_s, shg.d_eff)
        assert repr(got) == repr(want), case
        assert calls[0] <= bisection_calls + 2, case
        counts.append((calls[0], bisection_calls))
    illinois, bisection = np.median(counts, axis=0)
    assert illinois < 0.4 * bisection  # 19 and 55
