"""Ray-matrix and Gaussian-beam machinery for a two-retroreflector open cavity.

The cavity is built from two telecentric cat's-eye retroreflectors (lens of
focal length f with a mirror l behind it) facing each other across a free-space
gap d measured between their pupils.  A single pass maps a ray through lens 1,
the gap, and lens 2; the composite is symmetric (A = D), so the two stability
parameters g1 = A and g2 = D coincide.  The mode follows from the geometry
alone: `cavity_mode` builds the single pass of a stable cavity once, solves
q(0) and the multimode factor once, and `q_at` and `beam_radius` read the
resulting `CavityMode` at any axial position.

Axial positions: z = 0 is the plane of the transmitter mirror (where the
doubling crystal sits).  The lens planes and the receiver photovoltaic plane
are at

    z_l1 = f,  z_l2 = l + 2f + d,  z_l3 = 3l + 2f + d,  z_pv = 3l + 3f + d.

Using f rather than l for the first drift is a near-telecentric approximation
(the error is O(l - f), some 150 um at the default geometry).

The multimode beam radius w(z) is modelled as a constant multiple of the
fundamental-mode radius w00(z), anchored so that w equals the gain-aperture
radius a_g at the gain plane z = l + f.  The anchor makes the factor dip below
one for very long gaps; it is an approximation valid near the design range and
is deliberately not clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

STABILITY_BOUNDARY_TOL = 1e-12  # |g1*g2 - 1| below this counts as marginal


@dataclass(frozen=True)
class CavityGeometry:
    """Cavity geometry: lens focal length f, lens-mirror interval l, gap d (all m)."""

    f: float
    l: float
    d: float

    def __post_init__(self) -> None:
        if not 0.0 < self.f < math.inf:
            raise ValueError(f"focal length f must be positive and finite, got {self.f}")
        if not 0.0 < self.l < math.inf:
            raise ValueError(
                f"lens-mirror interval l must be positive and finite, got {self.l}")
        if not 0.0 <= self.d < math.inf:
            raise ValueError(f"gap d must be non-negative and finite, got {self.d}")
        # single_pass_abcd divides by f*f and squares (l - f)/f
        ratio = (self.l - self.f) / self.f
        if not (0.0 < self.f * self.f < math.inf and ratio * ratio < math.inf):
            raise ValueError("f*f and ((l - f)/f)**2 must be positive and finite")

    @property
    def z_l1(self) -> float:
        return self.f

    @property
    def z_l2(self) -> float:
        return self.l + 2.0 * self.f + self.d

    @property
    def z_l3(self) -> float:
        return 3.0 * self.l + 2.0 * self.f + self.d

    @property
    def z_pv(self) -> float:
        return 3.0 * self.l + 3.0 * self.f + self.d


def rr_focal_length(f: float, l: float) -> float:
    """Equivalent focal length f**2 / (2*(l - f)) of a cat's-eye retroreflector.

    l == f (mirror exactly in the focal plane) gives an ideal retroreflector
    with no focusing; returned as inf.
    """
    if l == f:
        return math.inf
    return f * f / (2.0 * (l - f))


def single_pass_abcd(geom: CavityGeometry) -> tuple[float, float, float]:
    """Entries (A, B, C) of the single-pass ray matrix (pupil to pupil,
    symmetric: D = A).

    Entries are evaluated in factored form (delta = l - f) to keep the
    determinant A*A - B*C within ~1e-13 of unity; the expanded polynomials
    lose several digits to cancellation at desk-scale geometry.
    """
    f, l, d = geom.f, geom.l, geom.d
    delta = l - f
    a = -1.0 + d * delta / (f * f)
    b = -2.0 * delta + d * (delta / f) ** 2
    c = d / (f * f)
    return a, b, c


def _classify(s: float) -> str:
    if abs(s - 1.0) <= STABILITY_BOUNDARY_TOL:
        return "marginal"
    if 0.0 <= s < 1.0:
        return "stable"
    return "unstable"


def stability_check(geom: CavityGeometry) -> str:
    """Classify the cavity: 'stable', 'marginal' or 'unstable'.

    The self-reproducing Gaussian mode exists for 0 <= g1*g2 < 1; the product
    reaches its lower bound 0 in the interior of the stable range (confocal
    point), so only the g1*g2 = 1 boundary is marginal.  In gap distance the
    stable range is 0 <= d <= 4*f_rr.
    """
    a, _, _ = single_pass_abcd(geom)
    return _classify(a * a)


def _propagate(geom: CavityGeometry, q: complex, z: float) -> complex:
    """Carry q(0) to axial position z: drifts, and thin lenses at their planes."""
    if not 0.0 <= z <= geom.z_pv:
        raise ValueError(f"z = {z} outside the modelled axis [0, {geom.z_pv}]")
    f = geom.f
    prev = 0.0
    for z_lens in (geom.z_l1, geom.z_l2, geom.z_l3):
        if z < z_lens:
            break
        q = q + (z_lens - prev)
        q = q / (-q / f + 1.0)
        prev = z_lens
    return q + (z - prev)


def fundamental_radius(q: complex, lam: float) -> float:
    """Fundamental-mode radius w00 = sqrt(-lam / (pi * Im(1/q)))."""
    im_inv = (1.0 / q).imag
    if im_inv >= 0.0:
        raise ValueError("non-physical mode: Im(1/q) must be negative")
    return math.sqrt(-lam / (math.pi * im_inv))


@dataclass(frozen=True)
class CavityMode:
    """The mode of a stable cavity at wavelength lam [m]: the self-consistent
    q(0) [m] and the multimode factor m = w / w00 along the axis."""

    geom: CavityGeometry
    lam: float
    q0: complex
    m: float


def cavity_mode(geom: CavityGeometry, a_g: float, lam: float) -> CavityMode:
    """The cavity's mode, anchored so that w = a_g at the gain plane l + f.

    Raises unless the cavity is stable.
    """
    if not a_g > 0.0:
        raise ValueError("gain aperture radius a_g must be positive")
    a, b, _ = single_pass_abcd(geom)
    s = a * a
    status = _classify(s)
    if status != "stable":
        raise ValueError(f"no self-consistent Gaussian mode: cavity is {status}")
    # q(0) = j*|B|*sqrt((g2/g1) / (1 - g1*g2)); the pass is symmetric (g1 = g2),
    # so the ratio is 1, which also covers the confocal point g1 = g2 = 0
    q0 = complex(0.0, abs(b) * math.sqrt(1.0 / (1.0 - s)))
    m = a_g / fundamental_radius(_propagate(geom, q0, geom.l + geom.f), lam)
    return CavityMode(geom=geom, lam=lam, q0=q0, m=m)


def q_at(mode: CavityMode, z: float) -> complex:
    """Complex beam parameter q at axial position z in [0, z_pv].

    Carries q(0) by drifts (q -> q + dz) and the thin-lens map
    q -> q/(-q/f + 1) at each lens plane.  A lens acts at its own plane:
    q_at(z_lens) is the post-lens value.
    """
    return _propagate(mode.geom, mode.q0, z)


def beam_radius(mode: CavityMode, z: float) -> float:
    """Multimode beam radius w = m * w00 at axial position z."""
    return mode.m * fundamental_radius(q_at(mode, z), mode.lam)
