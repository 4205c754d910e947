"""Configuration record, unit-suffixed config parsing and defaults dump."""

import dataclasses
import math
import pickle
import random
import sys

import pytest

from rbswipt import link
from rbswipt.cli import main
from rbswipt.constants import DOMAINS
from rbswipt.link import _CAVITY_FIELDS
from rbswipt.params import (
    AXES,
    ConfigError,
    SystemParams,
    _LOOSE,
    _READERS,
    format_defaults,
    load_params,
    parse_config_text,
)


def test_default_values_spot_checks():
    p = SystemParams()
    assert p.f == 0.03 and p.l == 0.03015 and p.d == 6.0
    assert p.i_s == 1.1976e7 and p.a_g == 2e-3 and p.eta_c == 0.439
    assert p.lam == 1064e-9 and p.l_s == 0.4e-3 and p.d_eff == 4.7e-12
    assert p.r_m1 == 0.995 and p.r_m2 == 0.915 and p.gamma_g_eom == 0.9752
    assert p.gamma_diff == "model:farfield" and p.gamma_pd == "auto"
    assert p.a_pd == 1.6e-7 and math.isclose(p.psi_c, math.radians(30.0))
    assert p.b == 800e6 and p.i_bk == 5.1e-3 and p.gamma == 0.4
    assert p.i0 == 0.32e-6 and p.r_sh == 53.82 and p.r_s == 0.037
    assert p.n == 1.48 and p.n_s == 1 and p.t == 298.0
    assert p.eta_p == 0.75 and p.d_e == 0.1 and p.p_in == 60.0


def test_spec_object_properties_mirror_fields():
    p = SystemParams()
    assert p.geometry.f == p.f and p.geometry.d == p.d
    assert p.gain.i_s == p.i_s and p.gain.lam == p.lam
    assert p.shg.l_s == p.l_s and p.shg.n0 == p.n0
    assert p.loss.r_m2 == p.r_m2 and p.loss.gamma_diff == p.gamma_diff
    assert p.concentrator.a_pd == p.a_pd and p.concentrator.psi == p.psi
    assert p.noise.b == p.b and p.noise.t == p.t
    assert p.pv.i0 == p.i0 and p.pv.t == p.t and p.pv.lam == p.lam
    assert p.power_path.gamma_pv == p.gamma_pv and p.carrier_path.gamma_pd == p.gamma_pd
    assert _READERS["lam"] == ("gain", "pv")  # the cell's quantum limit reads lam
    assert not hasattr(p, "safety")  # --safety reads the safety fields themselves


SPECS = ("geometry", "gain", "shg", "loss", "concentrator", "noise", "pv", "power_path",
         "carrier_path")


def test_spec_objects_are_built_once_and_kept():
    p = SystemParams()
    for name in SPECS:
        assert getattr(p, name) is getattr(p, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.geometry = p.geometry
    assert dataclasses.replace(p, d=3.0).geometry.d == 3.0
    q = pickle.loads(pickle.dumps(dataclasses.replace(p, r_m2=0.9)))
    assert q == dataclasses.replace(p, r_m2=0.9) and q.loss.r_m2 == 0.9
    # the spec objects stay out of the config keys
    names = {f.name for f in dataclasses.fields(SystemParams)}
    assert len(names) == 48 and names.isdisjoint(SPECS)
    keys = [line.split(" = ")[0] for line in format_defaults().splitlines()]
    assert keys == [f.name for f in dataclasses.fields(SystemParams)]
    with pytest.raises(ConfigError, match="unknown parameter"):
        parse_config_text("geometry = 1")


QUANTUM_LIMIT_BREACHES = (("rho", 0.86), ("rho", 0.9), ("lam", 743e-9), ("lam", 700e-9))


def test_validation_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^r_m2 must be in \(0, 1\], got 1.5$"):
        SystemParams(r_m2=1.5)
    # the safety fields are checked here although only --safety reads them
    with pytest.raises(ValueError, match=r"^eta_p must be in \(0, 1\], got 0$"):
        SystemParams(eta_p=0)
    with pytest.raises(ValueError, match=r"^eta_t must be in \(0, 1\], got 1.2$"):
        SystemParams(eta_t=1.2)
    with pytest.raises(ValueError, match=r"^eta_a must be in \(0, 1\], got 0$"):
        SystemParams(eta_a=0)
    with pytest.raises(ValueError, match=r"^d_e must be positive and finite, got 0$"):
        SystemParams(d_e=0)
    # the safety report divides by d_e**2, which underflows to 0 or overflows here
    for d_e in (1e-300, 5e-324, 1e160):
        with pytest.raises(ValueError, match=r"^d_e\*\*2 must be positive and finite"):
            SystemParams(d_e=d_e)
    assert SystemParams(d_e=1e-150).d_e == 1e-150 and SystemParams(d_e=1e150).d_e == 1e150
    with pytest.raises(ValueError, match=r"^n_s must be a whole number of cells, got 1.5$"):
        SystemParams(n_s=1.5)
    # one electron per photon at most: e*lam/(h*c) is 0.858 A/W at 1064 nm, and
    # the default 0.6 A/W needs lam of at least 744 nm
    assert SystemParams(rho=0.85).rho == 0.85 and SystemParams(lam=745e-9).lam == 745e-9
    for name, value in QUANTUM_LIMIT_BREACHES:
        with pytest.raises(ValueError, match=r"^rho must not exceed the quantum limit "
                           r"e\*lam/\(h\*c\) = "):
            SystemParams(**{name: value})
    with pytest.raises(ValueError):
        SystemParams(gamma_pv=0.0)
    with pytest.raises(ValueError):
        SystemParams(p_in=-1.0)
    with pytest.raises(ValueError):
        SystemParams(gamma_pd="bogus")
    with pytest.raises(ValueError):
        SystemParams(gamma_pd=1.5)
    with pytest.raises(ValueError):
        SystemParams(gamma_diff="farfield")  # needs the model: prefix
    with pytest.raises(ValueError):
        SystemParams(gamma_diff="model:pupil")  # the pupil model is deleted
    for field in dataclasses.fields(SystemParams):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                SystemParams(**{field.name: value})
    assert SystemParams(gamma_pd=0.5).gamma_pd == 0.5
    assert SystemParams(gamma_diff="model:farfield").gamma_diff == "model:farfield"


# SystemParams' refusals of the light-path factors, recorded from the release
# that range-checked them as loose fields; the path specs must word them alike
PATH_REFUSALS = [
    ("gamma_pv", 0.0, "gamma_pv must be in (0, 1], got 0.0"),
    ("gamma_pv", 1.5, "gamma_pv must be in (0, 1], got 1.5"),
    ("gamma_pv", math.nan, "gamma_pv must be in (0, 1], got nan"),
    ("gamma_l3", 0.0, "gamma_l3 must be in (0, 1], got 0.0"),
    ("gamma_l3", 1.5, "gamma_l3 must be in (0, 1], got 1.5"),
    ("gamma_l3", math.nan, "gamma_l3 must be in (0, 1], got nan"),
    ("gamma_m5_nu", 0.0, "gamma_m5_nu must be in (0, 1], got 0.0"),
    ("gamma_m5_nu", 1.5, "gamma_m5_nu must be in (0, 1], got 1.5"),
    ("gamma_m5_nu", math.nan, "gamma_m5_nu must be in (0, 1], got nan"),
    ("gamma_pd", 0.0, "gamma_pd must be in (0, 1], got 0.0"),
    ("gamma_pd", 1.5, "gamma_pd must be in (0, 1], got 1.5"),
    ("gamma_pd", math.nan, "gamma_pd must be in (0, 1], got nan"),
    ("gamma_pd", "bogus", "gamma_pd must be a number or 'auto', got 'bogus'"),
    ("gamma_l4", 0.0, "gamma_l4 must be in (0, 1], got 0.0"),
    ("gamma_l4", 1.5, "gamma_l4 must be in (0, 1], got 1.5"),
    ("gamma_l4", math.nan, "gamma_l4 must be in (0, 1], got nan"),
    ("r_m5_2nu", 0.0, "r_m5_2nu must be in (0, 1], got 0.0"),
    ("r_m5_2nu", 1.5, "r_m5_2nu must be in (0, 1], got 1.5"),
    ("r_m5_2nu", math.nan, "r_m5_2nu must be in (0, 1], got nan"),
    ("gamma_m2_2nu", 0.0, "gamma_m2_2nu must be in (0, 1], got 0.0"),
    ("gamma_m2_2nu", 1.5, "gamma_m2_2nu must be in (0, 1], got 1.5"),
    ("gamma_m2_2nu", math.nan, "gamma_m2_2nu must be in (0, 1], got nan"),
    ("gamma_g_eom", 0.0, "gamma_g_eom must be in (0, 1], got 0.0"),
    ("gamma_g_eom", 1.5, "gamma_g_eom must be in (0, 1], got 1.5"),
    ("gamma_g_eom", math.nan, "gamma_g_eom must be in (0, 1], got nan"),
]


def test_path_refusal_texts(tmp_path, capsys):
    # each refusal as SystemParams raises it and as `simulate --config` prints
    # it, with exit code 2
    cfg = tmp_path / "path.cfg"
    for name, value, text in PATH_REFUSALS:
        with pytest.raises(ValueError) as refused:
            SystemParams(**{name: value})
        assert str(refused.value) == text, (name, value)
        cfg.write_text(f"{name} = {value}\n", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 2, (name, value)
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"configuration error: {text}\n")


DEFAULTS = SystemParams()
# the 41 sweep axes and the 4 safety fields
SCANNED = AXES + tuple(name for name in _LOOSE if name not in AXES)
_MAGNITUDES = (5e-324, sys.float_info.max, *(10.0**k for k in range(-323, 309, 3)))


def test_domains_name_every_numeric_field_and_word_each_refusal():
    # one interval per field, for all but the two that may hold a model name;
    # the float past each end is refused with the table's own words
    fields = [f.name for f in dataclasses.fields(SystemParams)]
    assert set(DOMAINS) == set(fields) - {"gamma_diff", "gamma_pd"} and len(DOMAINS) == 46
    assert sorted(SCANNED) == sorted(set(DOMAINS) - {"n_s"})  # every float field
    for name, (lo, hi, phrase) in DOMAINS.items():
        assert lo <= getattr(DEFAULTS, name) <= hi, name
        for past in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            with pytest.raises(ValueError) as refused:
                SystemParams(**{name: past})
            assert str(refused.value) == f"{name} must be {phrase}, got {past}"




@pytest.mark.parametrize("name", SCANNED)
def test_accepted_values_are_one_run_inside_the_interval(name):
    # What SystemParams accepts of one field is one interval within its
    # DOMAINS entry, as SweepSpec's end-point argument needs: on a signed log
    # grid over the whole double range, plus 0 and the floats at 1 and at the
    # default, the accepted values are contiguous and lie in [lo, hi].
    lo, hi, _ = DOMAINS[name]
    default = getattr(DEFAULTS, name)
    near = (1.0, default)
    grid = sorted({0.0, *_MAGNITUDES, *(-m for m in _MAGNITUDES),
                   *(math.nextafter(x, to) for x in near for to in (-math.inf, math.inf)),
                   *near})
    accepted = []
    for k, value in enumerate(grid):
        try:
            SystemParams(**{name: value})
        except ValueError:
            continue
        accepted.append(k)
    assert accepted == list(range(accepted[0], accepted[-1] + 1)), name
    assert lo <= grid[accepted[0]] and grid[accepted[-1]] <= hi, name


# a valid value other than the default, for fields where 0.99 x default is not one
OTHER_VALUE = {"gamma_diff": 0.8, "gamma_pd": 0.5, "n_s": 2, "psi": 0.1}


def _stage_mappings(monkeypatch):
    """A function that runs `link.evaluate_rows` and returns copies of the
    mappings its cavity and lasing stages received, each list in call order.
    The stages are replaced by recorders; the cavity one returns a threshold
    of -inf, so every row goes on to the lasing one."""
    cavity, lasing = [], []

    def cavity_stage(specs):
        cavity.append(dict(specs))
        return None, math.nan, -math.inf

    def lasing_stage(gamma_diff, specs):
        lasing.append(dict(specs))

    monkeypatch.setattr(link, "_cavity_stage", cavity_stage)
    monkeypatch.setattr(link, "_lasing_stage", lasing_stage)

    def run(base, name, values):
        cavity.clear()
        lasing.clear()
        link.evaluate_rows(base, name, values)
        return list(cavity), list(lasing)
    return run


def test_row_builder_matches_the_constructor(monkeypatch):
    base = SystemParams()
    rows = _stage_mappings(monkeypatch)
    for field in dataclasses.fields(SystemParams):
        name = field.name
        value = OTHER_VALUE[name] if name in OTHER_VALUE else getattr(base, name) * 0.99
        assert value != getattr(base, name)
        ref = vars(dataclasses.replace(base, **{name: value}))
        cavity, lasing = rows(base, name, [value])
        # the mapping each stage reads is the record replace builds; a field
        # the cavity stage does not read shares the base's one cavity stage
        assert lasing == [ref], name
        assert cavity == ([ref] if name in _CAVITY_FIELDS else [vars(base)]), name
        for attr in SPECS:  # a row rebuilds only the specs that read its field
            reads = name in {f.name for f in dataclasses.fields(getattr(base, attr))}
            assert (lasing[0][attr] is not getattr(base, attr)) is reads, (name, attr)
        if not _READERS[name]:  # passed through: a sweep checks its end points
            continue
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as built:
                link.evaluate_rows(base, name, [bad])
            with pytest.raises(ValueError) as constructed:
                SystemParams(**{name: bad})
            assert str(built.value) == str(constructed.value), (name, bad)
    for name, bad in QUANTUM_LIMIT_BREACHES:  # checks that read two fields
        with pytest.raises(ValueError) as built:
            link.evaluate_rows(base, name, [bad])
        with pytest.raises(ValueError) as constructed:
            SystemParams(**{name: bad})
        assert str(built.value) == str(constructed.value), (name, bad)
    for name in ("bogus", "geometry"):  # not a field, and a spec attribute
        with pytest.raises(KeyError):
            link.evaluate_rows(base, name, [1.0])


# three more valid values, for fields where a fraction of the default is not one
OTHER_VALUES = {"gamma_diff": (0.7, 0.8, 0.9), "gamma_pd": (0.3, 0.5, 0.7), "n_s": (2, 3, 4),
                "psi": (0.05, 0.1, 0.15)}


def test_row_function_keeps_no_state_between_rows(monkeypatch):
    # One mapping serves a whole sweep, and each row writes its value into it
    # and into argument lists it reuses, so no row may see an earlier row's
    # value, in reverse order too, and the sweep leaves the base as it was.
    # `t` and `lam` each feed two specs.
    base = SystemParams()
    before = dict(vars(base))
    rows = _stage_mappings(monkeypatch)
    assert len(_READERS["t"]) == len(_READERS["lam"]) == 2
    for field in dataclasses.fields(SystemParams):
        name = field.name
        default = getattr(base, name)
        values = OTHER_VALUES.get(name) or [default * k for k in (0.97, 0.98, 0.99)]
        values = [*reversed(values), values[1]]
        refs = [vars(dataclasses.replace(base, **{name: value})) for value in values]
        cavity, lasing = rows(base, name, values)
        assert lasing == refs, name
        assert cavity == (refs if name in _CAVITY_FIELDS else [vars(base)]), name
    assert vars(base).keys() == before.keys()
    assert all(vars(base)[key] is value for key, value in before.items())


def test_parse_units():
    text = """
    # geometry block
    f = 3 cm
    l_s = 0.4 mm         # crystal
    lam = 1064 nm
    d_eff = 4.7 pm/V
    eta_c = 43.9 %
    b = 800 MHz
    r_il = 10 kOhm
    r_s = 37 mOhm
    i0 = 0.32 uA
    psi_c = 30 deg
    i_s = 1197.6 W/cm2
    a_pd = 0.16 mm2
    alpha_air = 1e-4 1/m
    d = 6
    """
    got = parse_config_text(text)
    assert math.isclose(got["f"], 0.03, rel_tol=1e-15)
    assert math.isclose(got["l_s"], 0.4e-3, rel_tol=1e-15)
    assert math.isclose(got["lam"], 1064e-9, rel_tol=1e-15)
    assert math.isclose(got["d_eff"], 4.7e-12, rel_tol=1e-15)
    assert math.isclose(got["eta_c"], 0.439, rel_tol=1e-15)
    assert got["b"] == 800e6
    assert got["r_il"] == 1e4
    assert math.isclose(got["r_s"], 0.037, rel_tol=1e-15)
    assert math.isclose(got["i0"], 0.32e-6, rel_tol=1e-15)
    assert math.isclose(got["psi_c"], math.radians(30.0), rel_tol=1e-15)
    assert math.isclose(got["i_s"], 1.1976e7, rel_tol=1e-15)
    assert math.isclose(got["a_pd"], 1.6e-7, rel_tol=1e-15)
    assert got["alpha_air"] == 1e-4
    assert got["d"] == 6.0


def test_parse_degrees_as_math_radians():
    # deg is a plain multiplier, pi/180, the constant math.radians multiplies by
    rng = random.Random(7)
    spread = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, 30.0, -90.0, 180.0, 360.0, 1e308,
              -1e308, math.inf, math.nan]
    spread += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 308) for _ in range(2000)]
    for x in spread:
        got = parse_config_text(f"psi_c = {x!r} deg")["psi_c"]
        assert got.hex() == math.radians(x).hex(), x


def test_parse_strings_and_integers():
    got = parse_config_text("gamma_diff = model:farfield\ngamma_pd = auto\nn_s = 2\n")
    assert got["gamma_diff"] == "model:farfield"
    assert got["gamma_pd"] == "auto"
    assert got["n_s"] == 2 and isinstance(got["n_s"], int)
    assert parse_config_text("gamma_pd = 0.5")["gamma_pd"] == 0.5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("f = 3 cm\nnot_a_field = 1\n")
    with pytest.raises(ConfigError, match="unknown unit"):
        parse_config_text("f = 3 parsec")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="numeric"):
        parse_config_text("f = tall")
    with pytest.raises(ConfigError, match="missing value"):
        parse_config_text("f =")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("n_s = 1.5")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("n_s = inf")


def test_load_params(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("d = 8 m\np_in = 45 W\nr_m2 = 92 %\n", encoding="utf-8")
    p = load_params(str(cfg))
    assert p.d == 8.0 and p.p_in == 45.0
    assert math.isclose(p.r_m2, 0.92, rel_tol=1e-15)
    assert p.f == 0.03  # untouched defaults remain
    assert dataclasses.replace(load_params(str(cfg)), d=9.5).d == 9.5
    assert load_params(None).d == 6.0
    with pytest.raises(ConfigError):
        load_params(str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("r_m2 = 1.5\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_params(str(bad))


def test_format_defaults_round_trips_exactly():
    text = format_defaults()
    parsed = parse_config_text(text)
    assert SystemParams(**parsed) == SystemParams()
    # every field appears
    assert len(parsed) == len(SystemParams.__dataclass_fields__)
