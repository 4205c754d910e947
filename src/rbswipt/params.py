"""System parameter set, defaults, and the flat `key = value` config format.

SystemParams is a flat record of every scalar the simulator needs (geometry,
gain medium, doubling crystal, coatings, receiver optics, noise, photovoltaic
cell, safety, pump power).  Field names double as config keys.  The spec
objects of the link stages are built and validated once, when the parameters
are constructed, and kept as attributes outside the dataclass fields.  Each
field's own range is one interval of `constants.DOMAINS`, which every spec
and this record check with `check_domains`.  Every field but the pump `p_in`
and the safety fields feeds a spec; those are range-checked here, and the
safety fields are read only by the `--safety` report.  So is a lossless
cavity, which has no lasing threshold.  `AXES` names
the fields a sweep may vary.  A sweep's end points pass through this
constructor.

Config files are plain text, one `key = value` assignment per line, `#`
comments allowed.  Values may carry a unit suffix (`f = 3 cm`,
`l_s = 0.4 mm`, `d_eff = 4.7 pm/V`, `eta_c = 43.9 %`); bare numbers are SI.
`gamma_diff` accepts a number or `model:farfield`;
`gamma_pd` accepts a number or `auto` (concentrator capture model).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .constants import check_domains
from .it_channel import CarrierPath, ConcentratorSpec, NoiseSpec
from .optics import CavityGeometry
from .pv import PowerPath, PVSpec
from .resonator import (GainMediumSpec, LossBudget, SHGSpec, _round_trip,
                        equivalent_reflectances, resolve_gamma_diff)


class ConfigError(ValueError):
    """Raised for unparseable or invalid configuration input."""


# spec attribute -> (class, the fields it reads).  Each spec class names its
# fields after the config keys it is built from, and this table is the one
# record of which field feeds which spec: SystemParams and
# link.evaluate_rows both build from it.
_SPECS = {
    attr: (cls, tuple(f.name for f in dataclasses.fields(cls)))
    for attr, cls in (("geometry", CavityGeometry), ("gain", GainMediumSpec),
                      ("shg", SHGSpec), ("loss", LossBudget),
                      ("concentrator", ConcentratorSpec), ("noise", NoiseSpec),
                      ("pv", PVSpec), ("power_path", PowerPath),
                      ("carrier_path", CarrierPath))
}


@dataclass(frozen=True)
class SystemParams:
    """Complete simulator configuration; defaults describe the reference
    desk-scale design (1064 nm resonant beam, 532 nm carrier).

    Attributes `geometry`, `gain`, `shg`, `loss`, `concentrator`, `noise`,
    `pv`, `power_path` and `carrier_path` hold the spec objects built from
    the fields."""

    # cavity geometry [m]
    f: float = 0.03
    l: float = 0.03015
    d: float = 6.0
    # gain medium
    i_s: float = 1.1976e7  # saturation intensity [W/m^2]
    a_g: float = 2e-3  # aperture radius [m]
    l_g: float = 1e-3  # thickness [m]
    eta_c: float = 0.439  # combined pump efficiency
    gamma_g: float = 0.9851  # transmittance at the resonant wavelength
    lam: float = 1064e-9  # resonant wavelength [m]
    # doubling crystal
    d_eff: float = 4.7e-12  # effective nonlinear coefficient [m/V]
    l_s: float = 0.4e-3  # length [m]
    n0: float = 2.23  # refractive index
    gamma_shg: float = 0.99  # passive transmittance
    # coatings and loss factors
    gamma_l1: float = 0.99
    gamma_l2: float = 0.99
    gamma_l3: float = 0.99
    gamma_l4: float = 0.99
    r_m1: float = 0.995  # transmitter mirror reflectivity (resonant)
    r_m2: float = 0.915  # output-coupler reflectivity (resonant)
    r_m5_2nu: float = 0.995  # dichroic reflectivity at the doubled frequency
    gamma_m5_nu: float = 0.99  # dichroic transmittance at the fundamental
    gamma_m2_2nu: float = 0.99  # output-coupler transmittance at the doubled frequency
    gamma_g_eom: float = 0.9752  # gain-body + modulator transmittance (doubled)
    gamma_pv: float = 0.995  # photovoltaic surface transmittance
    alpha_air: float = 1e-4  # air attenuation [1/m]
    gamma_diff: float | str = "model:farfield"  # diffraction factor or model
    gamma_pd: float | str = "auto"  # detector capture ratio or 'auto'
    # photodiode concentrator
    a_pd: float = 1.6e-7  # detector area [m^2]
    psi_c: float = math.radians(30.0)  # semi-angle field of view [rad]
    n_c: float = 1.5  # concentrator refractive index
    t_s: float = 0.995  # concentrator surface transmittance
    psi: float = 0.0  # incidence angle [rad]
    # receiver electronics / noise
    b: float = 800e6  # bandwidth [Hz]
    r_il: float = 1e4  # load resistance [Ohm]
    i_bk: float = 5.1e-3  # background photocurrent [A]
    gamma: float = 0.4  # photodiode responsivity [A/W]
    # photovoltaic cell
    rho: float = 0.6  # responsivity [A/W]
    i0: float = 0.32e-6  # reverse saturation current [A]
    r_sh: float = 53.82  # shunt resistance [Ohm]
    r_s: float = 0.037  # series resistance [Ohm]
    n: float = 1.48  # diode ideality factor
    n_s: int = 1  # series cell count
    # shared temperature [K]
    t: float = 298.0
    # safety
    eta_p: float = 0.75  # pump source efficiency
    eta_t: float = 0.99  # pump transmission efficiency
    eta_a: float = 0.91  # gain absorption efficiency
    d_e: float = 0.1  # safety measurement distance [m]
    # drive
    p_in: float = 60.0  # electrical pump power [W]

    def __post_init__(self) -> None:
        fields = vars(self)
        for attr, (cls, names) in _SPECS.items():
            fields[attr] = cls(*[fields[name] for name in names])  # names are in field order
        check_domains(self, _LOOSE)
        try:  # the safety report divides by d_e**2 and multiplies by it
            square = self.d_e**2
        except OverflowError:
            square = math.inf
        if not 0.0 < square < math.inf:
            raise ValueError(f"d_e**2 must be positive and finite, got d_e = {self.d_e}")
        # r1*r2 at zero conversion: a lossless cavity has no lasing threshold
        geom, gain, loss = self.geometry, self.gain, self.loss
        gamma_diff = resolve_gamma_diff(loss, geom, gain.a_g, gain.lam)
        _round_trip(*equivalent_reflectances(loss, self.shg, gain, 0.0, geom.d, gamma_diff))


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SystemParams))
# field -> the spec attributes that read it (`t` feeds noise and pv)
_READERS = {name: tuple(attr for attr, (_, names) in _SPECS.items() if name in names)
            for name in _FIELD_NAMES}
_LOOSE = tuple(name for name, readers in _READERS.items() if not readers)
_STRING_OK = {"gamma_diff", "gamma_pd"}
_INT_FIELDS = {"n_s"}
# the fields a sweep may vary: the pump and every float field a spec reads
AXES = tuple(name for name, readers in _READERS.items()
             if (readers or name == "p_in") and name not in _INT_FIELDS | _STRING_OK)
AXIS_RULE = ("p_in or any float field a link stage reads, not "
             + ", ".join(name for name in _FIELD_NAMES if name not in AXES))


# unit suffix -> SI multiplier; deg scales by pi/180, as math.radians does
_UNITS: dict[str, float] = {
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12,
    "m2": 1.0, "cm2": 1e-4, "mm2": 1e-6, "um2": 1e-12,
    "W": 1.0, "mW": 1e-3, "uW": 1e-6, "kW": 1e3,
    "A": 1.0, "mA": 1e-3, "uA": 1e-6, "µA": 1e-6,
    "V": 1.0, "mV": 1e-3,
    "Ohm": 1.0, "ohm": 1.0, "mOhm": 1e-3, "kOhm": 1e3, "MOhm": 1e6,
    "K": 1.0,
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
    "rad": 1.0, "mrad": 1e-3, "deg": math.pi / 180.0,
    "%": 1e-2,
    "A/W": 1.0, "W/m2": 1.0, "W/cm2": 1e4, "m/V": 1.0, "pm/V": 1e-12, "1/m": 1.0,
}

# human-readable SI unit hints for --print-defaults comments and the sweep
# chart's axis label
_UNIT_HINT = {
    "f": "m", "l": "m", "d": "m", "i_s": "W/m2", "a_g": "m", "l_g": "m",
    "lam": "m", "d_eff": "m/V", "l_s": "m", "alpha_air": "1/m", "a_pd": "m2",
    "psi_c": "rad", "psi": "rad", "b": "Hz", "r_il": "Ohm", "i_bk": "A",
    "gamma": "A/W", "rho": "A/W", "i0": "A", "r_sh": "Ohm", "r_s": "Ohm",
    "t": "K", "d_e": "m", "p_in": "W",
}


def _parse_value(key: str, raw: str, where: str) -> float | int | str:
    tokens = raw.split()
    if not tokens:
        raise ConfigError(f"{where}: missing value for '{key}'")
    try:
        number = float(tokens[0])
    except ValueError:
        if key in _STRING_OK:
            return raw.strip()
        raise ConfigError(f"{where}: '{key}' needs a numeric value, got {raw!r}") from None
    if len(tokens) > 1:
        unit = " ".join(tokens[1:])
        if unit not in _UNITS:
            raise ConfigError(f"{where}: unknown unit {unit!r} for '{key}'")
        number *= _UNITS[unit]
    if key in _INT_FIELDS:
        if not number.is_integer():
            raise ConfigError(f"{where}: '{key}' must be an integer")
        return int(number)
    return number


def parse_config_text(text: str) -> dict[str, float | int | str]:
    """Parse config text into a field -> value mapping (units applied)."""
    result: dict[str, float | int | str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{where}: unknown parameter {key!r}")
        result[key] = _parse_value(key, value.strip(), where)
    return result


def load_params(path: str | None = None) -> SystemParams:
    """Defaults, optionally updated from a config file."""
    values: dict[str, float | int | str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        return SystemParams(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def format_defaults() -> str:
    """Default configuration as round-trippable `key = value` lines (SI)."""
    lines = []
    defaults = SystemParams()
    for field in dataclasses.fields(SystemParams):
        value = getattr(defaults, field.name)
        text = value if isinstance(value, str) else repr(value)
        hint = _UNIT_HINT.get(field.name)
        comment = f"  # {hint}" if hint else ""
        lines.append(f"{field.name} = {text}{comment}")
    return "\n".join(lines) + "\n"
