"""Eye-safety arithmetic for the pump-excited gain medium.

The gain disk glows with spontaneous emission in all directions; with a
high-reflectivity coating behind it, the forward irradiance at measurement
distance d_e is 2*P_a/(4*pi*d_e^2) for absorbed pump power P_a.  The limit is
the extended-source maximum permissible exposure (MPE) in the style of the
IEC 60825-1 correction factors:

    MPE = base * C4 * C6 * C7  [W/m^2]

with C4 the wavelength factor (1 below 700 nm, 10^(0.002*(lam-700)) over
700-1050 nm, 5 over 1050-1400 nm), C6 = clamp(alpha, 1.5 mrad, 100 mrad)/1.5
the extended-source factor for angular subtense alpha, and C7 = 1 across the
supported band.  The base coefficient 10.1175 W/m^2 is a calibrated
reconstruction; treat the output as a design aid, not a certification.

Each function reads the pump-path efficiencies eta_p, eta_t and eta_a, the
measurement distance d_e, the gain aperture a_g and the wavelength lam from
the SystemParams, which range-checks them; only the band is checked here.
"""

from __future__ import annotations

import math

from .params import SystemParams

MPE_BASE = 10.1175  # W/m^2; calibrated so MPE(1064 nm, 40 mrad) = 1349 W/m^2
_ALPHA_MIN = 1.5e-3  # rad, point-source floor of C6
_ALPHA_MAX = 100e-3  # rad, extended-source cap of C6


def absorbed_pump_power(params: SystemParams, p_in: float) -> float:
    """Pump power absorbed by the gain medium: eta_p*eta_t*eta_a*p_in."""
    if p_in < 0.0:
        raise ValueError("p_in must be non-negative")
    return params.eta_p * params.eta_t * params.eta_a * p_in


def spontaneous_irradiance(params: SystemParams, p_in: float) -> float:
    """Spontaneous-emission irradiance [W/m^2] at distance d_e.

    Factor 2 accounts for the high-reflectivity coating folding the backward
    hemisphere forward.
    """
    return 2.0 * absorbed_pump_power(params, p_in) / (4.0 * math.pi * params.d_e**2)


def angular_subtense(params: SystemParams) -> float:
    """Apparent source subtense 2*a_g/d_e [rad] at the measurement distance."""
    return 2.0 * params.a_g / params.d_e


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
    c7 = 1.0
    return MPE_BASE * c4 * c6 * c7


def max_safe_source_power(params: SystemParams) -> tuple[float, float]:
    """(P_a_safe, P_in_safe): largest absorbed and electrical pump powers whose
    spontaneous-emission irradiance at d_e stays at the MPE."""
    mpe = mpe_extended_source(params.lam, angular_subtense(params))
    p_a_safe = mpe * 4.0 * math.pi * params.d_e**2 / 2.0
    p_in_safe = p_a_safe / (params.eta_p * params.eta_t * params.eta_a)
    return p_a_safe, p_in_safe
