"""System parameter set, defaults, and the flat `key = value` config format.

SystemParams is a flat record of every scalar the simulator needs (geometry,
gain medium, doubling crystal, coatings, receiver optics, noise, photovoltaic
cell, safety, pump power).  Field names double as config keys.  The spec
objects of the link stages are built and validated once, when the parameters
are constructed, and kept as attributes outside the dataclass fields; the
safety fields are range-checked here and read only by the `--safety` report,
and the PV responsivity rho is checked against the quantum limit at lam.
A sweep row differs from its base in one field, so it rebuilds only the spec
objects that read that field and shares the rest.

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

from .constants import C_LIGHT, E_CHARGE, H_PLANCK
from .it_channel import ConcentratorSpec, NoiseSpec
from .optics import CavityGeometry
from .pv import PVSpec
from .resonator import GainMediumSpec, LossBudget, SHGSpec


class ConfigError(ValueError):
    """Raised for unparseable or invalid configuration input."""


# spec attribute -> (class, the fields it reads).  Each spec class names its
# fields after the config keys it is built from, and this table is the one
# record of which field feeds which spec: SystemParams and _with_field both
# build from it.
_SPECS = {
    attr: (cls, tuple(f.name for f in dataclasses.fields(cls)))
    for attr, cls in (("geometry", CavityGeometry), ("gain", GainMediumSpec),
                      ("shg", SHGSpec), ("loss", LossBudget),
                      ("concentrator", ConcentratorSpec), ("noise", NoiseSpec),
                      ("pv", PVSpec))
}


def _build_spec(fields: dict, attr: str):
    cls, names = _SPECS[attr]
    return cls(*[fields[name] for name in names])  # names are in field order


def _check_loose(name: str, v) -> None:
    """Range check of a field that no spec object reads."""
    if name == "gamma_pd":
        if isinstance(v, str):
            if v != "auto":
                raise ValueError(f"gamma_pd must be a number or 'auto', got {v!r}")
        elif not 0.0 < float(v) <= 1.0:
            raise ValueError(f"gamma_pd must be in (0, 1], got {v}")
    elif name == "d_e":
        if not 0.0 < v < math.inf:
            raise ValueError(f"d_e must be positive and finite, got {v}")
        try:  # the safety report divides by d_e**2 and multiplies by it
            square = v**2
        except OverflowError:
            square = math.inf
        if not 0.0 < square < math.inf:
            raise ValueError(f"d_e**2 must be positive and finite, got d_e = {v}")
    elif name == "p_in":
        if not 0.0 <= v < math.inf:
            raise ValueError(f"p_in must be non-negative and finite, got {v}")
    elif not 0.0 < v <= 1.0:  # the other loss factors and the pump-path efficiencies
        raise ValueError(f"{name} must be in (0, 1], got {v}")


def _check_responsivity(rho: float, lam: float) -> None:
    """The PV cell gives at most one electron per photon: rho <= e*lam/(h*c)."""
    limit = E_CHARGE * lam / (H_PLANCK * C_LIGHT)
    if rho > limit:
        raise ValueError(f"rho must not exceed the quantum limit e*lam/(h*c) = "
                         f"{limit:.4g} A/W at lam = {lam!r} m, got {rho}")


@dataclass(frozen=True)
class SystemParams:
    """Complete simulator configuration; defaults describe the reference
    desk-scale design (1064 nm resonant beam, 532 nm carrier).

    Attributes `geometry`, `gain`, `shg`, `loss`, `concentrator`, `noise`
    and `pv` hold the spec objects built from the fields."""

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
        for attr in _SPECS:
            fields[attr] = _build_spec(fields, attr)
        for name in _LOOSE:
            _check_loose(name, fields[name])
        _check_responsivity(self.rho, self.lam)


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SystemParams))
# field -> the spec attributes that read it (`t` feeds noise and pv)
_READERS = {name: tuple(attr for attr, (_, names) in _SPECS.items() if name in names)
            for name in _FIELD_NAMES}
_LOOSE = tuple(name for name, readers in _READERS.items() if not readers)


def _with_field(base: SystemParams, name: str, value: float | int | str) -> SystemParams:
    """`base` with one field set to `value`: the record `dataclasses.replace`
    gives, built without re-running the other 47 fields' checks.

    The spec objects that read `name` are rebuilt, which validates `value`;
    a field no spec reads gets its range check.  Every other spec object is
    the base's own.  Sweep rows are built this way."""
    row = object.__new__(SystemParams)
    fields = vars(row)
    fields.update(vars(base))
    fields[name] = value
    readers = _READERS[name]
    for attr in readers:
        fields[attr] = _build_spec(fields, attr)
    if not readers:
        _check_loose(name, value)
    if name in ("rho", "lam"):
        _check_responsivity(row.rho, row.lam)
    return row


_STRING_OK = {"gamma_diff", "gamma_pd"}
_INT_FIELDS = {"n_s"}

# unit suffix -> SI multiplier (deg is converted, not scaled)
_UNITS: dict[str, float] = {
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12,
    "m2": 1.0, "cm2": 1e-4, "mm2": 1e-6, "um2": 1e-12,
    "W": 1.0, "mW": 1e-3, "uW": 1e-6, "kW": 1e3,
    "A": 1.0, "mA": 1e-3, "uA": 1e-6, "µA": 1e-6,
    "V": 1.0, "mV": 1e-3,
    "Ohm": 1.0, "ohm": 1.0, "mOhm": 1e-3, "kOhm": 1e3, "MOhm": 1e6,
    "K": 1.0,
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
    "rad": 1.0, "mrad": 1e-3,
    "%": 1e-2,
    "A/W": 1.0, "W/m2": 1.0, "W/cm2": 1e4, "m/V": 1.0, "pm/V": 1e-12, "1/m": 1.0,
}
_UNITS_DEG = "deg"

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
        if unit == _UNITS_DEG:
            number = math.radians(number)
        elif unit in _UNITS:
            number *= _UNITS[unit]
        else:
            raise ConfigError(f"{where}: unknown unit {unit!r} for '{key}'")
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


def load_params(path: str | None = None, **overrides: float | int | str) -> SystemParams:
    """Defaults, optionally updated from a config file and keyword overrides."""
    values: dict[str, float | int | str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    values.update(overrides)
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
