"""Ray-matrix and Gaussian-beam machinery for a two-retroreflector open cavity.

The cavity is built from two telecentric cat's-eye retroreflectors (lens of
focal length f with a mirror l behind it) facing each other across a free-space
gap d measured between their pupils.  A single pass maps a ray through lens 1,
the gap, and lens 2; the composite is symmetric (A = D), so the two stability
parameters g1 = A and g2 = D coincide.

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
class RayMatrix:
    """2x2 ray-transfer matrix; a, d dimensionless, b in m, c in 1/m."""

    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def apply(self, r: float, alpha: float) -> tuple[float, float]:
        """Propagate a ray (transverse offset r, slope alpha)."""
        return self.a * r + self.b * alpha, self.c * r + self.d * alpha

    def compose(self, first: "RayMatrix") -> "RayMatrix":
        """Matrix for `first` followed by this element (self @ first)."""
        return RayMatrix(
            a=self.a * first.a + self.b * first.c,
            b=self.a * first.b + self.b * first.d,
            c=self.c * first.a + self.d * first.c,
            d=self.c * first.b + self.d * first.d,
        )


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


def retroreflector_matrix(f: float, l: float) -> RayMatrix:
    """Ray matrix of one cat's-eye retroreflector: inversion plus weak focusing.

    The c entry is the focusing strength 1/f_rr written as 2*(l-f)/f**2 so the
    l == f case degrades gracefully to the pure inversion diag(-1, -1).
    """
    if f <= 0.0 or l <= 0.0:
        raise ValueError("f and l must be positive")
    return RayMatrix(a=-1.0, b=0.0, c=2.0 * (l - f) / (f * f), d=-1.0)


def single_pass_abcd(geom: CavityGeometry) -> RayMatrix:
    """Single-pass ray matrix of the cavity (pupil to pupil, symmetric: A = D).

    Entries are evaluated in factored form (delta = l - f) to keep the
    determinant within ~1e-13 of unity; the expanded polynomials lose several
    digits to cancellation at desk-scale geometry.
    """
    f, l, d = geom.f, geom.l, geom.d
    delta = l - f
    a = -1.0 + d * delta / (f * f)
    b = -2.0 * delta + d * (delta / f) ** 2
    c = d / (f * f)
    return RayMatrix(a=a, b=b, c=c, d=a)


def stability_product(abcd: RayMatrix) -> float:
    """Stability parameter product g1*g2 = A*D."""
    return abcd.a * abcd.d


def stability_check(geom: CavityGeometry) -> str:
    """Classify the cavity: 'stable', 'marginal' or 'unstable'.

    The self-reproducing Gaussian mode exists for 0 <= g1*g2 < 1; the product
    reaches its lower bound 0 in the interior of the stable range (confocal
    point), so only the g1*g2 = 1 boundary is marginal.  In gap distance the
    stable range is 0 <= d <= 4*f_rr.
    """
    s = stability_product(single_pass_abcd(geom))
    if abs(s - 1.0) <= STABILITY_BOUNDARY_TOL:
        return "marginal"
    if 0.0 <= s < 1.0:
        return "stable"
    return "unstable"


def _mode_q0(abcd: RayMatrix) -> complex:
    """Self-consistent q at z = 0 for the round trip described by `abcd`.

    q(0) = j*|B|*sqrt((g2/g1) / (1 - g1*g2)).  For the symmetric cavity
    g1 == g2 the ratio is exactly 1, which also covers the confocal point
    g1 = g2 = 0 where the literal quotient is indeterminate.
    """
    s = stability_product(abcd)
    if abcd.a == abcd.d:
        ratio = 1.0
    else:
        if abcd.a == 0.0:
            raise ValueError("no self-consistent Gaussian mode: g1 = 0 with g1 != g2")
        ratio = abcd.d / abcd.a
    if ratio <= 0.0 or not 0.0 <= s < 1.0:
        raise ValueError("no self-consistent Gaussian mode for this ray matrix")
    return complex(0.0, abs(abcd.b) * math.sqrt(ratio / (1.0 - s)))


def q_at(geom: CavityGeometry, abcd: RayMatrix, z: float) -> complex:
    """Complex beam parameter q at axial position z in [0, z_pv].

    Starts from the self-consistent q(0), then drifts (q -> q + dz) and applies
    the thin-lens map q -> q/(-q/f + 1) at each lens plane.  A lens acts at its
    own plane: q_at(z_lens) is the post-lens value.
    """
    status = stability_check(geom)
    if status != "stable":
        raise ValueError(f"no self-consistent Gaussian mode: cavity is {status}")
    if not 0.0 <= z <= geom.z_pv:
        raise ValueError(f"z = {z} outside the modelled axis [0, {geom.z_pv}]")
    q = _mode_q0(abcd)
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


def propagation_factor(geom: CavityGeometry, abcd: RayMatrix, a_g: float, lam: float) -> float:
    """Multimode-to-fundamental radius ratio, anchored by w(l + f) = a_g.

    Constant along the axis.  Normally >= 1 (the multimode beam overfills the
    fundamental mode); for very long gaps the anchor drives it below 1, which
    is tolerated as part of the approximation.
    """
    if not a_g > 0.0:
        raise ValueError("gain aperture radius a_g must be positive")
    return a_g / fundamental_radius(q_at(geom, abcd, geom.l + geom.f), lam)


@dataclass(frozen=True)
class BeamProfile:
    """Beam radii at one axial position: fundamental w00, multimode w = factor * w00."""

    w00: float
    w: float
    propagation_factor: float


def beam_radius(
    geom: CavityGeometry, abcd: RayMatrix, a_g: float, lam: float, z: float
) -> BeamProfile:
    """Fundamental and multimode beam radii at axial position z."""
    m = propagation_factor(geom, abcd, a_g, lam)
    w00 = fundamental_radius(q_at(geom, abcd, z), lam)
    return BeamProfile(w00=w00, w=m * w00, propagation_factor=m)
