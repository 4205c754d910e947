"""Configuration record, unit-suffixed config parsing and defaults dump."""

import dataclasses
import math
import pickle

import pytest

from rbswipt.params import (
    ConfigError,
    SystemParams,
    _with_field,
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
    assert p.pv.i0 == p.i0 and p.pv.t == p.t
    assert not hasattr(p, "safety")  # --safety reads the safety fields themselves


SPECS = ("geometry", "gain", "shg", "loss", "concentrator", "noise", "pv")


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


QUANTUM_LIMIT_BREACHES = (("rho", 0.86), ("lam", 743e-9))


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


# a valid value other than the default, for fields where 0.99 x default is not one
OTHER_VALUE = {"gamma_diff": 0.8, "gamma_pd": 0.5, "n_s": 2, "psi": 0.1}


def test_row_builder_matches_the_constructor():
    base = SystemParams()
    for field in dataclasses.fields(SystemParams):
        name = field.name
        value = OTHER_VALUE[name] if name in OTHER_VALUE else getattr(base, name) * 0.99
        row = _with_field(base, name, value)
        ref = dataclasses.replace(base, **{name: value})
        assert row == ref and getattr(row, name) == value != getattr(base, name)
        assert pickle.dumps(row) == pickle.dumps(ref), name
        for attr in SPECS:
            spec = getattr(row, attr)
            assert spec == getattr(ref, attr), (name, attr)
            reads = name in {f.name for f in dataclasses.fields(spec)}
            assert (spec is getattr(base, attr)) is not reads, (name, attr)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as built:
                _with_field(base, name, bad)
            with pytest.raises(ValueError) as constructed:
                SystemParams(**{name: bad})
            assert str(built.value) == str(constructed.value), (name, bad)
    for name, bad in QUANTUM_LIMIT_BREACHES:  # checks that read two fields
        with pytest.raises(ValueError) as built:
            _with_field(base, name, bad)
        with pytest.raises(ValueError) as constructed:
            SystemParams(**{name: bad})
        assert str(built.value) == str(constructed.value), (name, bad)


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
    # keyword overrides win over the file
    assert load_params(str(cfg), d=9.5).d == 9.5
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
