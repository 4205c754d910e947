"""Eye-safety arithmetic for the pump-excited gain medium.

The gain disk glows with spontaneous emission in all directions; with a
high-reflectivity coating behind it, the forward irradiance at measurement
distance d_e is 2*P_a/(4*pi*d_e^2) for absorbed pump power P_a.  The limit is
the extended-source maximum permissible exposure (MPE) in the style of the
IEC 60825-1 correction factors:

    MPE = base * C4 * C6  [W/m^2]

with C4 the wavelength factor (1 below 700 nm, 10^(0.002*(lam-700)) over
700-1050 nm, 5 over 1050-1400 nm) and C6 = clamp(alpha, 1.5 mrad, 100 mrad)/1.5
the extended-source factor for angular subtense alpha; the standard's C7 is 1
across the supported band.  The base coefficient 10.1175 W/m^2 is a calibrated
reconstruction; treat the output as a design aid, not a certification.

`exposure` makes the whole `--safety` report from the SystemParams, which
range-checks the fields it reads: the pump p_in, the pump-path efficiencies
eta_p, eta_t and eta_a, the measurement distance d_e, the gain aperture a_g
and the wavelength lam.  It refuses a wavelength outside the band
`mpe_extended_source` covers, and a report that leaves the double range.
"""

from __future__ import annotations

import math

from .params import SystemParams

MPE_BASE = 10.1175  # W/m^2; calibrated so MPE(1064 nm, 40 mrad) = 1349 W/m^2
_ALPHA_MIN = 1.5e-3  # rad, point-source floor of C6
_ALPHA_MAX = 100e-3  # rad, extended-source cap of C6


def mpe_extended_source(lam: float, alpha: float) -> float:
    """Long-exposure extended-source MPE [W/m^2] for wavelength lam [m] and
    angular subtense alpha [rad]; lam must lie in the 400-1400 nm band it covers."""
    lam_nm = lam * 1e9
    if not 400.0 <= lam_nm <= 1400.0:
        raise ValueError(f"wavelength {lam_nm:.1f} nm outside the supported 400-1400 nm band")
    if alpha <= 0.0:
        raise ValueError("angular subtense must be positive")
    if lam_nm < 700.0:
        c4 = 1.0
    elif lam_nm < 1050.0:
        c4 = 10.0 ** (0.002 * (lam_nm - 700.0))
    else:
        c4 = 5.0
    c6 = min(max(alpha, _ALPHA_MIN), _ALPHA_MAX) / _ALPHA_MIN
    return MPE_BASE * c4 * c6


def exposure(params: SystemParams) -> tuple[float, float, float, float, float, float]:
    """(P_a, E, alpha, MPE, P_a_safe, P_in_safe) of the pump `params.p_in`.

    P_a = eta_p*eta_t*eta_a*p_in is the absorbed pump power [W], E its
    spontaneous-emission irradiance at d_e [W/m^2] (the factor 2 folds the
    coated backward hemisphere forward), alpha = 2*a_g/d_e the apparent
    source subtense [rad] and MPE the limit at lam and alpha [W/m^2].
    P_a_safe and P_in_safe are the largest absorbed and electrical pump
    powers whose irradiance at d_e stays at the MPE.  Raises ValueError for
    a wavelength outside the MPE's band, and for a number past the double
    range, an efficiency product that underflows to 0 among them.
    """
    eta = params.eta_p * params.eta_t * params.eta_a
    p_a = eta * params.p_in
    irradiance = 2.0 * p_a / (4.0 * math.pi * params.d_e**2)
    alpha = 2.0 * params.a_g / params.d_e
    mpe = mpe_extended_source(params.lam, alpha)
    p_a_safe = mpe * 4.0 * math.pi * params.d_e**2 / 2.0
    # a zero efficiency product would put P_in_safe past the range too
    report = (p_a, irradiance, alpha, mpe, p_a_safe, p_a_safe / eta if eta else math.inf)
    if not all(math.isfinite(x) for x in report):
        raise ValueError("the safety report of this configuration leaves the double range; "
                         "check p_in, d_e, a_g and eta_p*eta_t*eta_a")
    return report
