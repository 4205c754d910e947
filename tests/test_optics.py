"""Ray-matrix algebra, stability classification and Gaussian-mode chain."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rbswipt.optics import (
    CavityGeometry,
    CavityMode,
    beam_radius,
    cavity_mode,
    fundamental_radius,
    q_at,
    rr_focal_length,
    single_pass_abcd,
    stability_check,
)

DEFAULT = CavityGeometry(f=0.03, l=0.03015, d=6.0)
A_G, LAM = 2e-3, 1064e-9


def mode_of(geom: CavityGeometry) -> CavityMode:
    return cavity_mode(geom, A_G, LAM)


def random_stable_geometry(rng) -> CavityGeometry:
    f = rng.uniform(0.01, 0.1)
    l = f * (1.0 + rng.uniform(1e-4, 1e-2))
    d_max = 2.0 * f * f / (l - f)  # 4*f_rr
    return CavityGeometry(f=f, l=l, d=rng.uniform(0.05, 0.95) * d_max)


# ---------------------------------------------------------------- ray matrices


def test_rr_focal_length_reference_geometry():
    # f^2/(2*(l-f)) = 0.0009/0.0003 m
    assert abs(rr_focal_length(0.03, 0.03015) - 3.0) <= 1e-12
    assert rr_focal_length(0.03, 0.03) == math.inf
    assert rr_focal_length(0.03, 0.02985) < 0  # mirror inside focus defocuses


def test_single_pass_entries_factored_forms():
    a, b, c = single_pass_abcd(DEFAULT)  # symmetric pass: D = A
    delta = DEFAULT.l - DEFAULT.f
    f2 = DEFAULT.f**2
    assert math.isclose(a, -1.0 + DEFAULT.d * delta / f2, rel_tol=1e-15)
    assert math.isclose(b, -2.0 * delta + DEFAULT.d * (delta / DEFAULT.f) ** 2,
                        rel_tol=1e-15)
    assert math.isclose(c, DEFAULT.d / f2, rel_tol=1e-15)


def test_single_pass_unimodular_identity_exact_rationals():
    # det = a^2 - b*c == 1 identically for the factored entry formulas
    rng = np.random.default_rng(20260801)
    for _ in range(25):
        f = Fraction(int(rng.integers(1, 500)), int(rng.integers(500, 5000)))
        delta = Fraction(int(rng.integers(1, 50)), int(rng.integers(10_000, 200_000)))
        d = Fraction(int(rng.integers(1, 1000)), int(rng.integers(1, 100)))
        a = -1 + d * delta / f**2
        b = -2 * delta + d * (delta / f) ** 2
        c = d / f**2
        assert a * a - b * c == 1


def test_single_pass_unimodular_floating_point():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b, c = single_pass_abcd(random_stable_geometry(rng))
        assert abs(a * a - b * c - 1.0) <= 1e-12


# ------------------------------------------------------------------- stability


def test_stability_classification_over_gap():
    # stable range 0 <= d <= 4 f_rr = 12 m for the reference geometry
    assert stability_check(CavityGeometry(0.03, 0.03015, 6.0)) == "stable"
    assert stability_check(CavityGeometry(0.03, 0.03015, 3.0)) == "stable"
    assert stability_check(CavityGeometry(0.03, 0.03015, 11.999999)) == "stable"
    assert stability_check(CavityGeometry(0.03, 0.03015, 12.0)) == "marginal"
    assert stability_check(CavityGeometry(0.03, 0.03015, 0.0)) == "marginal"
    assert stability_check(CavityGeometry(0.03, 0.03015, 12.000001)) == "unstable"
    assert stability_check(CavityGeometry(0.03, 0.03015, 13.0)) == "unstable"


def test_stability_product_confocal_point():
    # d = 2 f_rr: A = 0, the product g1*g2 = A*A bottoms out at 0 and stays stable
    a, _, _ = single_pass_abcd(CavityGeometry(0.03, 0.03015, 6.0))
    assert abs(a * a) < 1e-28
    a, _, _ = single_pass_abcd(CavityGeometry(0.03, 0.03015, 3.0))
    assert 0.25 - 1e-12 <= a * a <= 0.25 + 1e-12


def test_geometry_validation():
    with pytest.raises(ValueError):
        CavityGeometry(f=0.0, l=0.03, d=1.0)
    with pytest.raises(ValueError):
        CavityGeometry(f=0.03, l=-0.01, d=1.0)
    with pytest.raises(ValueError):
        CavityGeometry(f=0.03, l=0.03, d=-1.0)


def test_axis_landmarks():
    g = DEFAULT
    assert g.z_l1 == g.f
    assert g.z_l2 == g.l + 2 * g.f + g.d
    assert g.z_l3 == 3 * g.l + 2 * g.f + g.d
    assert g.z_pv == 3 * g.l + 3 * g.f + g.d


# -------------------------------------------------------------------- q chain


def _mobius(mat: np.ndarray, q: complex) -> complex:
    return (mat[0, 0] * q + mat[0, 1]) / (mat[1, 0] * q + mat[1, 1])


def _axis_matrix(geom: CavityGeometry, z: float) -> np.ndarray:
    """Independent 2x2 propagation matrix from z = 0 to z (drifts and lenses)."""
    lens = np.array([[1.0, 0.0], [-1.0 / geom.f, 1.0]])

    def drift(dz: float) -> np.ndarray:
        return np.array([[1.0, dz], [0.0, 1.0]])

    mat = np.eye(2)
    prev = 0.0
    for z_lens in (geom.z_l1, geom.z_l2, geom.z_l3):
        if z < z_lens:
            break
        mat = lens @ drift(z_lens - prev) @ mat
        prev = z_lens
    return drift(z - prev) @ mat


def test_mode_q_is_round_trip_self_consistent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        geom = random_stable_geometry(rng)
        a, b, c = single_pass_abcd(geom)
        q0 = q_at(mode_of(geom), 0.0)
        # round trip = two symmetric passes; q0 must be its Moebius fixed point
        single = np.array([[a, b], [c, a]])
        rt = single @ single
        assert abs(_mobius(rt, q0) - q0) <= 1e-9 * abs(q0)
        # closed form j*sqrt(-B/C) of the round trip
        expected = 1j * math.sqrt(-rt[0, 1] / rt[1, 0])
        assert abs(q0 - expected) <= 1e-9 * abs(q0)


def test_q0_reference_value():
    # purely imaginary with Rayleigh range |B| at the confocal default gap
    q0 = q_at(mode_of(DEFAULT), 0.0)
    assert q0 == mode_of(DEFAULT).q0
    assert q0.real == 0.0
    assert math.isclose(q0.imag, 1.5e-4, rel_tol=1e-12)


def test_q_propagation_matches_independent_matrix_chain():
    rng = np.random.default_rng(11)
    for _ in range(10):
        geom = random_stable_geometry(rng)
        mode = mode_of(geom)
        q0 = q_at(mode, 0.0)
        for z in rng.uniform(0.0, geom.z_pv, size=6):
            expected = _mobius(_axis_matrix(geom, float(z)), q0)
            got = q_at(mode, float(z))
            assert abs(got - expected) <= 1e-10 * abs(expected)


@pytest.mark.xfail(strict=True, reason="lens 1 sits at z = f, not at l from M1 "
                   "(ROADMAP item 2): at 6 m, q at M2 is (7.5e-5 + 7.5e-5j) m "
                   "against q(0) = 1.5e-4j m")
def test_mode_at_the_output_mirror_is_the_mode_at_m1():
    # the cavity is symmetric about the gap, so the mode carried from M1 to M2
    # (z = 2l + 2f + d) is q(0) again.  q passes through a drift of length d,
    # so its rounding error scales with d, not with |q(0)|, which falls to
    # 14 um at 11.9 m: the bound is 1e-12 of the gap
    for d in (0.45, 1.0, 6.0, 11.9):
        geom = CavityGeometry(f=0.03, l=0.03015, d=d)
        mode = mode_of(geom)
        q_m2 = q_at(mode, 2 * geom.l + 2 * geom.f + d)
        assert abs(q_m2 - mode.q0) <= 1e-12 * d, (d, q_m2, mode.q0)


def test_lens_jumps_in_inverse_q():
    # across each lens plane, 1/q drops by exactly 1/f
    for geom in (DEFAULT, CavityGeometry(0.025, 0.02512, 2.3)):
        mode = mode_of(geom)
        boundaries = [0.0, geom.z_l1, geom.z_l2, geom.z_l3]
        for prev, z_lens in zip(boundaries, boundaries[1:]):
            q_pre = q_at(mode, prev) + (z_lens - prev)
            q_post = q_at(mode, z_lens)
            jump = 1.0 / q_post - 1.0 / q_pre
            assert abs(jump - (-1.0 / geom.f)) <= 1e-12 / geom.f


def test_q_at_domain_errors():
    with pytest.raises(ValueError):
        q_at(mode_of(DEFAULT), -0.1)
    with pytest.raises(ValueError):
        q_at(mode_of(DEFAULT), DEFAULT.z_pv + 0.1)
    with pytest.raises(ValueError):
        beam_radius(mode_of(DEFAULT), DEFAULT.z_pv + 0.1)
    bad = CavityGeometry(0.03, 0.03015, 13.0)
    with pytest.raises(ValueError):
        mode_of(bad)
    with pytest.raises(ValueError, match="a_g must be positive"):
        cavity_mode(DEFAULT, 0.0, LAM)


# ---------------------------------------------------------------- beam radii


def test_fundamental_radius_waist_formula():
    # q = j z_R at a waist: w00 = sqrt(lam z_R / pi)
    lam, z_r = 1064e-9, 1.5e-4
    assert math.isclose(fundamental_radius(1j * z_r, lam),
                        math.sqrt(lam * z_r / math.pi), rel_tol=1e-12)
    with pytest.raises(ValueError):
        fundamental_radius(complex(0.1, 1e-4), -1064e-9)
    for q in (1 + 0j, -1e-4j):  # Im(1/q) is -0.0 or positive: no confined mode
        with pytest.raises(ValueError, match="^non-physical mode"):
            fundamental_radius(q, lam)


def test_propagation_factor_anchor():
    mode = mode_of(DEFAULT)
    assert math.isclose(mode.m, 1.4030026544477399, rel_tol=1e-12)
    # anchor plane: multimode radius equals the gain aperture radius
    assert math.isclose(beam_radius(mode, DEFAULT.l + DEFAULT.f), 2e-3, rel_tol=1e-12)


def test_beam_radius_reference_values():
    mode = mode_of(DEFAULT)
    assert math.isclose(fundamental_radius(q_at(mode, 0.0), LAM),
                        7.127570261662315e-06, rel_tol=1e-12)
    assert math.isclose(beam_radius(mode, 0.0), 9.999999996875e-06, rel_tol=1e-12)
    assert math.isclose(beam_radius(mode, DEFAULT.z_pv), 0.002828462479422351,
                        rel_tol=1e-12)


def test_multimode_scaling_constant_along_axis():
    rng = np.random.default_rng(3)
    mode = mode_of(DEFAULT)
    m_ref = A_G / fundamental_radius(q_at(mode, DEFAULT.l + DEFAULT.f), LAM)
    for z in rng.uniform(0.0, DEFAULT.z_pv, size=10):
        w00 = fundamental_radius(q_at(mode, float(z)), LAM)
        assert abs(beam_radius(mode, float(z)) / w00 - m_ref) <= 1e-9 * m_ref


def test_beam_radius_matches_mode_carried_by_q_at():
    for d in (0.45, 1.0, 6.0, 11.9):
        geom = CavityGeometry(0.03, 0.03015, d)
        mode = mode_of(geom)
        assert (mode.geom, mode.lam) == (geom, LAM)
        m = A_G / fundamental_radius(q_at(mode, geom.l + geom.f), LAM)
        assert mode.m == m
        for z in (0.0, geom.l + geom.f, geom.z_pv):
            assert beam_radius(mode, z) == m * fundamental_radius(q_at(mode, z), LAM)
    # d = 0 and d = 4 f_rr are marginal, d = 13 m is unstable: no mode
    for d in (0.0, 12.0, 13.0):
        with pytest.raises(ValueError, match="no self-consistent Gaussian mode"):
            mode_of(CavityGeometry(0.03, 0.03015, d))
