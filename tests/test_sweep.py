"""Sweep execution, CSV/SVG emission and the command-line front end."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from rbswipt import link
from rbswipt import params as params_module
from rbswipt import sweep as sweep_module
from rbswipt.cli import main
from rbswipt.it_channel import CarrierPath, ConcentratorSpec, NoiseSpec
from rbswipt.link import LinkResult, evaluate_link
from rbswipt.optics import CavityGeometry
from rbswipt.params import ConfigError, SystemParams
from rbswipt.pv import PowerPath, PVSpec
from rbswipt.resonator import GainMediumSpec, LossBudget, SHGSpec
from rbswipt.sweep import (
    AXES,
    AXIS_RULE,
    CSV_HEADER,
    MAX_STEPS,
    SweepSpec,
    emit_csv,
    emit_plot_data,
    run_sweep,
)

PARAMS = SystemParams()


def small_sweep():
    return run_sweep(SweepSpec(axis="d", vmin=4.0, vmax=13.0, steps=5,
                               params=PARAMS))


# ----------------------------------------------------------------- sweep core


def test_axis_canonicalization():
    for name, axis, lo, hi in (("R_M2", "r_m2", 0.5, 0.9), ("P_in", "p_in", 0.0, 60.0),
                               ("d", "d", 1.0, 2.0), ("l_s", "l_s", 1e-4, 1e-3)):
        assert SweepSpec(axis=name, vmin=lo, vmax=hi, steps=3, params=PARAMS).axis == axis
    for axis in ("wavelength", None, 5):  # the name of no field, or no name at all
        with pytest.raises(ConfigError) as refused:
            SweepSpec(axis=axis, vmin=1.0, vmax=2.0, steps=3, params=PARAMS)
        assert str(refused.value) == f"cannot sweep {axis!r}: a sweep axis is {AXIS_RULE}"


# every field but these is swept: n_s is an integer, gamma_diff and gamma_pd
# may hold a model name, and no link stage reads the safety fields; each
# paired with a range SystemParams accepts
REFUSED = {"gamma_diff": (0.5, 0.9), "gamma_pd": (0.5, 0.9), "n_s": (1, 4),
           "eta_p": (0.5, 0.9), "eta_t": (0.5, 0.9), "eta_a": (0.5, 0.9), "d_e": (0.05, 1.0),
           "wavelength": (1.0, 2.0)}


def test_sweep_refuses_what_no_stage_reads_as_a_float(capsys):
    fields = [f.name for f in dataclasses.fields(SystemParams)]
    assert AXES == tuple(f for f in fields if f not in REFUSED) and len(AXES) == 41
    rule = ("a sweep axis is p_in or any float field a link stage reads, "
            "not gamma_diff, gamma_pd, n_s, eta_p, eta_t, eta_a, d_e")
    for name, (lo, hi) in REFUSED.items():
        for value in (lo, hi) if name in fields else ():  # the ends themselves are valid
            SystemParams(**{name: value})
        with pytest.raises(ConfigError) as refused:
            SweepSpec(axis=name, vmin=lo, vmax=hi, steps=5, params=PARAMS)
        assert str(refused.value) == f"cannot sweep {name!r}: {rule}"
        assert main(["--sweep", f"{name}:{lo}:{hi}:5"]) == 2, name
        assert capsys.readouterr().err == f"configuration error: cannot sweep {name!r}: {rule}\n"


def test_sweep_spec_validation(monkeypatch):
    # a step count that is no integer is refused first, even with a bad axis
    for steps in (2.5, math.nan, "3", None):
        with pytest.raises(ConfigError, match="steps must be an integer"):
            SweepSpec(axis="q", vmin=1.0, vmax=2.0, steps=steps, params=PARAMS)
    assert SweepSpec(axis="d", vmin=1.0, vmax=2.0, steps=np.int64(3), params=PARAMS).steps == 3
    with pytest.raises(ConfigError):
        SweepSpec(axis="d", vmin=1.0, vmax=2.0, steps=1, params=PARAMS)
    with pytest.raises(ConfigError):
        SweepSpec(axis="d", vmin=2.0, vmax=1.0, steps=5, params=PARAMS)
    with pytest.raises(ConfigError):
        SweepSpec(axis="q", vmin=1.0, vmax=2.0, steps=5, params=PARAMS)
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ConfigError):
            SweepSpec(axis="p_in", vmin=lo, vmax=hi, steps=3, params=PARAMS)
    for lo, hi in (("1", 2.0), (None, 2.0), (1.0, "2"), (1.0, None)):  # an end that is no number
        with pytest.raises(ConfigError, match="finite numbers"):
            SweepSpec(axis="d", vmin=lo, vmax=hi, steps=3, params=PARAMS)
    # a Decimal end compares with floats but does not mix with them, and an int
    # end past the float range has no float grid
    for lo, hi in ((Decimal("1"), 2.0), (1.0, Decimal("2")), (Decimal("1"), Decimal("2")),
                   (1, 10**400)):
        with pytest.raises(ConfigError, match="finite numbers with min < max"):
            SweepSpec(axis="d", vmin=lo, vmax=hi, steps=3, params=PARAMS)
    ends = SweepSpec(axis="d", vmin=np.float64(1.0), vmax=np.float64(2.0), steps=3,
                     params=PARAMS).values()
    assert ends == [1.0, 1.5, 2.0]
    floats = run_sweep(SweepSpec(axis="d", vmin=1.0, vmax=2.0, steps=3, params=PARAMS))
    for lo, hi in ((1, 2), (np.float64(1.0), np.float64(2.0)), (1, 2.0)):
        rows = run_sweep(SweepSpec(axis="d", vmin=lo, vmax=hi, steps=3, params=PARAMS))
        assert rows == floats
    for axis, lo, hi in (("r_m2", 0.5, 1.5), ("d", -1.0, 5.0), ("l_s", 0.0, 1e-3)):
        with pytest.raises(ConfigError):  # an end point outside the field's range
            SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=3, params=PARAMS)
    # (vmax - vmin) / (steps - 1) underflows to 0: every row would repeat vmin
    with pytest.raises(ConfigError, match="too narrow"):
        SweepSpec(axis="l_s", vmin=5e-324, vmax=1e-323, steps=10, params=PARAMS)
    # a positive step under half an ulp of vmin: ten rows at two values of d
    with pytest.raises(ConfigError, match="too narrow"):
        SweepSpec(axis="d", vmin=1.0, vmax=1.0000000000000002, steps=10, params=PARAMS)
    spec = SweepSpec(axis="P_in", vmin=0.0, vmax=100.0, steps=11, params=PARAMS)
    assert spec.axis == "p_in"
    assert list(spec.values()) == [10.0 * k for k in range(11)]
    # the step count is bounded before the grid is built
    assert MAX_STEPS == 10**6
    spec = SweepSpec(axis="d", vmin=1.0, vmax=2.0, steps=MAX_STEPS, params=PARAMS)
    assert len(spec.values()) == MAX_STEPS

    def no_grid(self):
        raise AssertionError("grid built for a step count over the bound")

    monkeypatch.setattr(SweepSpec, "values", no_grid)
    for steps in (MAX_STEPS + 1, 10**11):
        with pytest.raises(ConfigError, match=f"sweep needs at most 1000000 steps, got {steps}"):
            SweepSpec(axis="d", vmin=1.0, vmax=2.0, steps=steps, params=PARAMS)


# the sweeps CI runs, 2-step grids, and tiny and huge spans
NUMPY_GRIDS = [
    ("d", 0.45, 13.25, 33), ("p_in", 0.0, 120.0, 61), ("l_s", 0.0001, 0.006, 60),
    ("r_m2", 0.5, 1.0, 40), ("d", 12.2, 42.2, 600), ("p_in", 0.0, 27.0, 600),
    ("d", 4.0, 10.0, 7), ("d", 4.0, 8.0, 3),
    ("d", 0.45, 13.25, 2), ("r_m2", 0.1, 1.0, 2), ("l_s", 5e-324, 1e-323, 2),
    ("d", 1e-9, 3e-9, 7), ("l_s", 5e-324, 1e-321, 3),
    ("l_s", 1e-300, 3e-300, 11), ("p_in", 0.0, 1e300, 9),
    ("d", 1e300, 1.7976931348623157e308, 1000),
]


@pytest.mark.parametrize("axis, lo, hi, steps", NUMPY_GRIDS)
def test_grid_is_the_numpy_grid(axis, lo, hi, steps):
    values = SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=steps, params=PARAMS).values()
    expected = np.linspace(lo, hi, steps).tolist()
    # float.hex compares bits, so the sign of a zero counts too
    assert [v.hex() for v in values] == [v.hex() for v in expected]


def test_import_path_stays_lean():
    # numpy is a test dependency only, and nothing in the package needs
    # concurrent.futures or logging; the CLI builds its parser at import, so
    # the package root, which `evaluate_link` users import, loads no argparse
    child = ("import sys\n"
             "before = set(sys.modules)\n"
             "import rbswipt\n"
             "root = set(sys.modules)\n"
             "import rbswipt.cli\n"
             "print(*{m.partition('.')[0] for m in root - before})\n"
             "print(*{m.partition('.')[0] for m in set(sys.modules) - before})\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True).stdout
    root, loaded = (set(line.split()) for line in out.splitlines())
    assert "rbswipt" in root
    assert "argparse" not in root
    assert "argparse" in loaded  # so the check above is not vacuous
    assert not loaded & {"numpy", "concurrent", "logging"}


def test_run_sweep_rows_follow_grid():
    rows = small_sweep()
    assert [v for v, _ in rows] == [4.0, 6.25, 8.5, 10.75, 13.0]
    statuses = [r.status for _, r in rows]
    assert statuses[:4] == ["ok"] * 4 and statuses[-1] == "unstable"
    powers = [r.p_hat_charge for _, r in rows]
    assert powers[0] > powers[-2] > 0.0 and powers[-1] == 0.0


def test_crystal_length_sweep_lases_throughout():
    # strong conversion lowers the circulating power but never stops lasing
    rows = run_sweep(SweepSpec(axis="l_s", vmin=0.0001, vmax=0.006, steps=60,
                               params=PARAMS))
    assert [r.status for _, r in rows] == ["ok"] * 60
    assert all(r.p_hat_charge > 0.0 and r.eta_shg > 0.0 for _, r in rows)


GRIDS = {"d": (0.45, 13.25), "p_in": (0.0, 120.0), "r_m2": (0.5, 1.0),
         "l_s": (0.0001, 0.006)}

# lasing, unstable, mostly dark, lasing, opaque; the third base's factor is the
# capture of the multimode radius at the receiving pupil, 6 m out, with lens 1
# at f; the last one's air loss underflows r2 to 0, so its threshold is inf
PUMP_BASES = [SystemParams(), SystemParams(d=12.5),
              SystemParams(gamma_diff=0.6321113620724551), SystemParams(gamma_diff=0.9),
              SystemParams(alpha_air=1000.0)]


@pytest.mark.parametrize("axis", GRIDS)
def test_rows_match_points_built_by_replace(axis):
    # a row runs the link's stages itself, so this equality is what ties it to
    # evaluate_link; the first base gives all three statuses across GRIDS
    lo, hi = GRIDS[axis]
    for base in (SystemParams(p_in=80.0, l_s=1e-3, d=4.0), *PUMP_BASES):
        rows = run_sweep(SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=9, params=base))
        for value, result in rows:
            point = dataclasses.replace(base, **{axis: value})
            assert repr(result) == repr(evaluate_link(point)), (base, value)


@pytest.mark.parametrize("axis, lo, hi, steps, lasing", [
    ("d", 12.2, 42.2, 600, False), ("p_in", 0.0, 27.0, 600, False),
    ("p_in", 0.0, 120.0, 61, True), ("d", 0.45, 13.25, 33, True),
    ("r_m2", 0.5, 0.7, 600, False),
])
def test_dark_rows_assemble_no_parameter_record(monkeypatch, axis, lo, hi, steps, lasing):
    # only a row that lases reaches the lasing stage, and the one mapping
    # that stage reads holds the row's own value
    built = []
    lasing_stage = link._lasing_stage

    def counting(gamma_diff, specs):
        built.append(specs[axis])
        return lasing_stage(gamma_diff, specs)

    monkeypatch.setattr(link, "_lasing_stage", counting)
    rows = run_sweep(SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=steps, params=PARAMS))
    ok = [value for value, r in rows if r.status == "ok"]
    assert built == ok
    assert bool(ok) is lasing and len(ok) < len(rows)


SPEC_CLASSES = (CavityGeometry, GainMediumSpec, SHGSpec, LossBudget, ConcentratorSpec,
                NoiseSpec, PVSpec, PowerPath, CarrierPath)


@pytest.mark.parametrize("axis, rebuilt", [
    ("d", CavityGeometry), ("r_m2", LossBudget), ("l_s", SHGSpec), ("p_in", None),
])
def test_rows_rebuild_only_the_spec_that_reads_the_axis(monkeypatch, axis, rebuilt):
    # Spec constructions counted through each class's __post_init__: a row
    # rebuilds the one spec object that reads the swept field and shares the
    # others with the base; p_in is read by none of them.
    lo, hi = GRIDS[axis]
    spec = SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=9, params=PARAMS)
    built = dict.fromkeys(SPEC_CLASSES, 0)

    def counting(cls):
        post_init = cls.__post_init__

        def wrapper(self):
            built[cls] += 1
            post_init(self)
        return wrapper

    for cls in SPEC_CLASSES:
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    rows = run_sweep(spec)
    assert built == {cls: len(rows) if cls is rebuilt else 0 for cls in SPEC_CLASSES}


def test_run_sweep_is_repeatable():
    # a sweep reuses its mapping and argument lists within one run only
    for axis, (lo, hi) in GRIDS.items():
        spec = SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=9, params=PARAMS)
        assert repr(run_sweep(spec)) == repr(run_sweep(spec)), axis


@pytest.mark.parametrize("base", PUMP_BASES,
                         ids=["default", "unstable", "pupil", "0.9", "opaque"])
@pytest.mark.parametrize("lo, hi, steps", [(0.0, 120.0, 25), (31.0, 33.0, 21)])
def test_pump_sweep_rows_equal_whole_evaluations(base, lo, hi, steps):
    # a pump sweep shares one cavity stage; every row is still the whole
    # evaluation of the point built by replace
    spec = SweepSpec(axis="p_in", vmin=lo, vmax=hi, steps=steps, params=base)
    expected = [repr(evaluate_link(dataclasses.replace(base, p_in=v))) for v in spec.values()]
    assert [repr(r) for _, r in run_sweep(spec)] == expected


@pytest.mark.parametrize("base, status", [(PUMP_BASES[1], "unstable"),
                                          (PUMP_BASES[4], "below_threshold")])
def test_infinite_threshold_lases_at_no_finite_pump(base, status):
    # an unstable cavity's threshold is inf, as an opaque one's is, so the one
    # comparison keeps every finite pump dark, 1e300 W included
    spec = SweepSpec(axis="p_in", vmin=0.0, vmax=1e300, steps=5, params=base)
    rows = run_sweep(spec)
    assert [r.status for _, r in rows] == [status] * 5
    for value, result in rows:
        assert repr(result) == repr(evaluate_link(dataclasses.replace(base, p_in=value)))


def _count_calls(monkeypatch, names):
    from rbswipt import optics, resonator

    modules = {"optics": optics, "resonator": resonator}
    seen = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        module, attr = name.split(".")
        monkeypatch.setattr(modules[module], attr,
                            counting(name, getattr(modules[module], attr)))
    return seen


def test_pump_sweep_solves_its_cavity_once(monkeypatch):
    seen = _count_calls(monkeypatch, ("optics.stability_check", "resonator.lasing_threshold"))
    rows = run_sweep(SweepSpec(axis="p_in", vmin=0.0, vmax=120.0, steps=50, params=PARAMS))
    assert {r.status for _, r in rows} == {"ok", "below_threshold"}
    assert seen == {"optics.stability_check": 1, "resonator.lasing_threshold": 1}


def test_gap_sweep_checks_each_row_cavity(monkeypatch):
    seen = _count_calls(monkeypatch, ("optics.stability_check",))
    rows = run_sweep(SweepSpec(axis="d", vmin=12.2, vmax=42.2, steps=40, params=PARAMS))
    assert seen == {"optics.stability_check": len(rows)}


LOSSLESS = dict(gamma_g=1.0, gamma_shg=1.0, gamma_l1=1.0, gamma_l2=1.0, r_m1=1.0,
                r_m2=1.0, alpha_air=0.0, gamma_diff=1.0)


def _write_config(path, values):
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def test_pump_sweep_of_lossless_cavity_is_an_error(tmp_path, capsys):
    # the base of such a sweep is refused when it is built
    with pytest.raises(ValueError, match="lossless cavity"):
        dataclasses.replace(PARAMS, **LOSSLESS)
    cfg = _write_config(tmp_path / "lossless.cfg", LOSSLESS)
    assert main(["--config", cfg, "--sweep", "p_in:0:60:4"]) == 2
    assert "configuration error: lossless cavity" in capsys.readouterr().err


def test_lossless_row_is_refused_at_an_end_point(tmp_path, capsys, monkeypatch):
    # r1*r2 at zero conversion does not rise with d and rises with r_m2, so
    # a sweep that reaches a lossless cavity has one at an end point, refused
    # before any row runs
    near = SystemParams(**dict(LOSSLESS, r_m2=0.9))
    with pytest.raises(ConfigError, match="^sweep end point r_m2 = 1.0: lossless cavity"):
        SweepSpec(axis="r_m2", vmin=0.5, vmax=1.0, steps=5, params=near)
    # with the far-field model the diffraction factor rounds to 1 at a short gap
    farfield = {k: v for k, v in LOSSLESS.items() if k != "gamma_diff"}
    base = SystemParams(**farfield)
    with pytest.raises(ConfigError, match="^sweep end point d = 0.0001: lossless cavity"):
        SweepSpec(axis="d", vmin=0.0001, vmax=1.0, steps=5, params=base)
    assert evaluate_link(base).status == "ok"  # the 6 m gap itself loses power

    def no_rows(spec):
        raise AssertionError("a sweep with a lossless end point ran its rows")

    monkeypatch.setattr("rbswipt.cli.run_sweep", no_rows)
    cfg = _write_config(tmp_path / "farfield.cfg", farfield)
    assert main(["--config", cfg, "--sweep", "d:0.0001:1:5"]) == 2
    assert "sweep end point d = 0.0001: lossless cavity" in capsys.readouterr().err


# out-of-range values of each axis, each paired with the base's own value
BAD_ENDS = {
    "d": (-1.0, -1e-300, -5e-324),
    "p_in": (-60.0, -1e-300, -5e-324),
    "r_m2": (0.0, -0.5, 1.0000000000000002, 1.5, 1e300),
    "l_s": (0.0, -1e-3, -5e-324, 1e160, 1e300),
}


def _refused(axis, value):
    try:
        SystemParams(**{axis: value})
    except ValueError:
        return True
    return False


# every other axis: the candidates its constructor refuses
DERIVED_BAD_ENDS = {axis: tuple(v for v in (-1.0, 0.0, 1.5, 1e300) if _refused(axis, v))
                    for axis in AXES if axis not in BAD_ENDS}


@pytest.mark.parametrize("axis", AXES)
def test_end_point_refusal_is_the_constructor_message(axis):
    # SweepSpec checks an end point as the record its row stands for, so its
    # refusal carries exactly the message SystemParams gives that value
    assert set(BAD_ENDS) <= set(AXES)
    bad_ends = BAD_ENDS.get(axis) or DERIVED_BAD_ENDS[axis]
    assert bad_ends
    good = getattr(PARAMS, axis)
    for bad in bad_ends:
        with pytest.raises(ValueError) as constructed:
            SystemParams(**{axis: bad})
        lo, hi = sorted((bad, good))
        with pytest.raises(ConfigError) as refused:
            SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=3, params=PARAMS)
        assert str(refused.value) == f"sweep end point {axis} = {bad!r}: {constructed.value}"


def test_pump_sweep_rows_check_no_loose_field(monkeypatch):
    # no spec reads p_in: its end points went through SystemParams and its
    # range is an interval, so a row needs no check of its own
    checked = []
    check_domains = params_module.check_domains

    def counting(obj, names):
        checked.extend(names)
        check_domains(obj, names)

    monkeypatch.setattr(params_module, "check_domains", counting)
    spec = SweepSpec(axis="p_in", vmin=0.0, vmax=27.0, steps=600, params=PARAMS)
    assert checked.count("p_in") == 2  # the two end points, built by SystemParams
    checked.clear()
    rows = run_sweep(spec)
    assert len(rows) == 600 and checked == []


# ------------------------------------------------------------------- emitters


def test_emit_csv_layout(tmp_path):
    rows = small_sweep()
    out = tmp_path / "sweep.csv"
    emit_csv(rows, str(out))
    data = out.read_bytes()
    assert b"\r" not in data  # LF only
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert len(first) == 7
    # full double precision round trip
    assert float(first[0]) == rows[0][0]
    assert float(first[3]) == rows[0][1].p_hat_charge
    assert first[6] == "ok"
    assert lines[-1].endswith("unstable")


def test_emit_csv_rejects_empty(tmp_path):
    out = tmp_path / "nothing.csv"
    with pytest.raises(ValueError):
        emit_csv([], str(out))
    assert not out.exists()


def test_emit_svg_two_labelled_series(tmp_path):
    rows = small_sweep()
    out = tmp_path / "sweep.svg"
    emit_plot_data(rows, str(out), axis="d")
    root = ET.parse(str(out)).getroot()  # valid XML
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f".//{ns}polyline")
    assert len(polylines) == 2
    labels = [el.text for el in root.findall(f".//{ns}text")]
    assert "P_charge [W]" in labels
    assert "R_b [bit/s/Hz]" in labels
    assert "d [m]" in labels
    with pytest.raises(ValueError):
        emit_plot_data([], str(tmp_path / "e.svg"))


def _reference_csv(rows):
    # one row at a time, each field formatted where it is written
    lines = [CSV_HEADER] + [
        f"{value:.17g},{r.p_recv_pt:.17g},{r.p_recv_it:.17g},"
        f"{r.p_hat_charge:.17g},{r.r_b:.17g},{r.eta_shg:.17g},{r.status}"
        for value, r in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_svg(rows, axis):
    # the chart built one point at a time: every pixel mapped and formatted
    # where it is written
    def scale(values, lo_px, hi_px):
        vmin, vmax = min(values), max(values)
        if vmax == vmin:
            vmin, vmax = vmin - 1.0, vmax + 1.0
        return (lambda v: lo_px + (v - vmin) / (vmax - vmin) * (hi_px - lo_px)), vmin, vmax

    xs = [v for v, _ in rows]
    series = [([r.p_hat_charge for _, r in rows], "#1f77b4"),
              ([r.r_b for _, r in rows], "#d62728")]
    x_px, x_min, x_max = scale(xs, 80, 720)
    (p_px, p_min, p_max), (r_px, r_min, r_max) = [scale(ys, 440, 40) for ys, _ in series]
    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="500" '
             'viewBox="0 0 800 500">',
             '<rect x="0" y="0" width="800" height="500" fill="white"/>',
             '<line x1="80" y1="440" x2="720" y2="440" stroke="black"/>',
             '<line x1="80" y1="440" x2="80" y2="40" stroke="black"/>',
             '<line x1="720" y1="440" x2="720" y2="40" stroke="black"/>']
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        pv_v = p_min + frac * (p_max - p_min)
        rv = r_min + frac * (r_max - r_min)
        parts += [f'<line x1="{x_px(xv):.2f}" y1="440" x2="{x_px(xv):.2f}" y2="445" '
                  'stroke="black"/>',
                  f'<text x="{x_px(xv):.2f}" y="460" font-size="12" '
                  f'text-anchor="middle">{xv:.4g}</text>',
                  f'<text x="72" y="{p_px(pv_v):.2f}" font-size="12" '
                  f'text-anchor="end" fill="#1f77b4">{pv_v:.4g}</text>',
                  f'<text x="728" y="{r_px(rv):.2f}" font-size="12" '
                  f'text-anchor="start" fill="#d62728">{rv:.4g}</text>']
    for (ys, color), to_px in zip(series, (p_px, r_px)):
        pts = " ".join([f"{x_px(x):.2f},{to_px(y):.2f}" for x, y in zip(xs, ys)])
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{pts}"/>')
    parts += [f'<text x="400.0" y="485" font-size="14" text-anchor="middle">{axis} [W]</text>',
              '<text x="80" y="28" font-size="14" fill="#1f77b4">P_charge [W]</text>',
              '<text x="720" y="28" font-size="14" text-anchor="end" '
              'fill="#d62728">R_b [bit/s/Hz]</text>',
              '</svg>']
    return ("\n".join(parts) + "\n").encode("utf-8")


def _lasing(k):
    return LinkResult(p_recv_pt=5.4 + k / 3, p_recv_it=0.02 * k, p_hat_charge=1.2 + k / 7,
                      r_b=10.0 + k / 11, v_mpp=0.42, eta_shg=0.003 * k, status="ok")


@pytest.mark.parametrize("results", [
    # flat: every row shares one of the two dark constants
    [link._UNSTABLE, link._BELOW_THRESHOLD] * 20,
    # not flat: shared dark constants, distinct lasing results, one result in
    # two rows and two equal results in two objects
    [link._BELOW_THRESHOLD] * 5 + [_lasing(k) for k in range(1, 9)] + [_lasing(3)] * 2
    + [link._UNSTABLE] * 4 + [_lasing(8), link._BELOW_THRESHOLD, _lasing(0.5)],
    # lasing rows at d_eff = 0: the rate curve is flat, the power curve is not
    [dataclasses.replace(_lasing(k), r_b=0.0) for k in range(1, 12)],
], ids=["flat", "mixed", "flat_rate"])
def test_writers_match_row_at_a_time_reference(tmp_path, results):
    rows = [(31.0 + 0.125 * j, r) for j, r in enumerate(results)]
    emit_csv(rows, str(tmp_path / "out.csv"))
    emit_plot_data(rows, str(tmp_path / "out.svg"), axis="p_in")
    assert (tmp_path / "out.csv").read_bytes() == _reference_csv(rows)
    assert (tmp_path / "out.svg").read_bytes() == _reference_svg(rows, "p_in")


_EMITTERS = {"csv": emit_csv, "svg": lambda rows, path: emit_plot_data(rows, path, axis="d")}


@pytest.mark.parametrize("kind", sorted(_EMITTERS))
def test_rewriting_a_file_gives_the_fresh_bytes(tmp_path, kind):
    # a file is written in place, so a shorter write must cut off the old tail
    emit = _EMITTERS[kind]
    short = small_sweep()[:3]
    long = run_sweep(SweepSpec(axis="d", vmin=12.2, vmax=42.2, steps=2001, params=PARAMS))
    emit(short, str(tmp_path / "short"))
    emit(long, str(tmp_path / "long"))
    target = str(tmp_path / "target")
    for rows, fresh in ((short, "short"), (long, "long"), (short, "short")):
        emit(rows, target)  # new, then longer, then shorter than the file it finds
        assert (tmp_path / "target").read_bytes() == (tmp_path / fresh).read_bytes()
    assert len((tmp_path / "long").read_bytes()) > 10 * len((tmp_path / "short").read_bytes())


def test_emitters_open_without_truncation(tmp_path, monkeypatch):
    # an open with O_TRUNC makes ext4 write the file back when it is closed,
    # on every rerun onto the same paths; the benchmark's sweeps measure this
    flags = []
    real_open = sweep_module.os.open

    def spy(path, flag, *args, **kwargs):
        if str(path).startswith(str(tmp_path)):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(sweep_module.os, "open", spy)
    rows = small_sweep()
    for kind, emit in _EMITTERS.items():
        emit(rows, str(tmp_path / kind))
        emit(rows, str(tmp_path / kind))  # and over an existing file
    assert len(flags) == 4
    assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)


# ------------------------------------------------------------------------ CLI


def test_cli_default_run(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "P_charge" in out and "status" in out and "ok" in out


def test_cli_print_defaults_round_trip(tmp_path, capsys):
    assert main(["--print-defaults"]) == 0
    text = capsys.readouterr().out
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["--config", str(cfg)]) == 0


def test_cli_safety_report(capsys):
    assert main(["--safety"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "electrical pump power       P_in      = 60 W",
        "absorbed pump power         P_a       = 40.5405 W",
        "worst-case irradiance       E         = 645.222 W/m2 at 0.1 m",
        "apparent source subtense    alpha     = 40 mrad",
        "permissible exposure        MPE       = 1349 W/m2",
        "max absorbed pump power     P_a,safe  = 84.7602 W",
        "max electrical pump power   P_in,safe = 125.445 W",
        "verdict: SAFE",
    ]


def test_cli_sweep_writes_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    code = main(["--sweep", "d:4:8:5", "--csv", str(csv_path),
                 "--svg", str(svg_path)])
    assert code == 0
    assert csv_path.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER
    ET.parse(str(svg_path))


def test_cli_csv_and_svg_to_one_path_leave_the_svg(tmp_path, capsys):
    both, svg = tmp_path / "both", tmp_path / "fresh.svg"
    both.write_bytes(b"x" * 100_000)  # longer than either file
    assert main(["--sweep", "d:4:8:5", "--csv", str(both), "--svg", str(both)]) == 0
    assert main(["--sweep", "d:4:8:5", "--svg", str(svg)]) == 0
    assert both.read_bytes() == svg.read_bytes()


def test_cli_writes_to_targets_that_are_not_regular_files(tmp_path, capsys):
    # a device or a FIFO cannot be cut to length, and is not
    assert main(["--sweep", "d:1:2:3", "--csv", os.devnull, "--svg", os.devnull]) == 0
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    fifo, fresh = tmp_path / "fifo", tmp_path / "fresh.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["--sweep", "d:1:2:3", "--csv", str(fifo)]) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert main(["--sweep", "d:1:2:3", "--csv", str(fresh)]) == 0
    assert received == [fresh.read_bytes()]


def test_cli_main_reuses_one_parser(tmp_path, capsys):
    # one process, one parser: help, a usage error and a config error between
    # two runs of one sweep leave it as it was
    def sweep(tag):
        csv, svg = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.svg"
        assert main(["--sweep", "d:12.2:42.2:600", "--csv", str(csv), "--svg", str(svg)]) == 0
        return csv.read_bytes(), svg.read_bytes()

    first = sweep("first")
    capsys.readouterr()
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    for option in ("--config", "--sweep", "--csv", "--svg", "--safety", "--print-defaults"):
        assert option in help_text, option
    assert main(["--no-such-option"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: simulate ")
    assert "unrecognized arguments: --no-such-option" in err
    assert main(["--csv", str(tmp_path / "x.csv")]) == 2  # --csv needs --sweep
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert sweep("again") == first


def test_cli_sweep_table_to_stdout(capsys):
    assert main(["--sweep", "P_in:30:60:4"]) == 0
    out = capsys.readouterr().out
    assert "P_charge_W" in out and "below_threshold" in out


def test_cli_config_errors_exit_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("r_m2 = 1.7\n", encoding="utf-8")
    assert main(["--config", str(bad)]) == 2
    assert main(["--sweep", "d:1:2"]) == 2  # malformed token
    for token in ("d:a:b:3", "d:1:2:3.5", "d:1e0:2:0x3"):  # non-numeric MIN:MAX:STEPS
        assert main(["--sweep", token]) == 2, token
    assert main(["--sweep", "d:2:1:5"]) == 2  # empty range
    assert main(["--sweep", "x:1:2:5"]) == 2  # unknown axis
    assert main(["--sweep", "p_in:0:inf:3"]) == 2  # unbounded range
    assert main(["--sweep", "r_m2:0.5:1.5:3"]) == 2  # end point out of range
    assert main(["--sweep", "d:-1:5:3"]) == 2  # start point out of range
    for line in ("p_in = nan", "p_in = inf", "i0 = inf", "gamma_diff = model:nearfield",
                 "gamma_diff = model:pupil",  # a deleted model
                 "eta_a = 1.5", "d_e = 0",
                 "a_g = 1e200",  # pi*a_g**2 overflows
                 "i_s = 1e-200\nl_g = 1e-200"):  # i_s*volume underflows
        bad.write_text(line + "\n", encoding="utf-8")
        assert main(["--config", str(bad)]) == 2, line
    bad.write_bytes(b"p_in = 6\xff0\n")  # not UTF-8
    assert main(["--config", str(bad)]) == 2
    assert main(["--sweep", "d:4:8:3", "--jobs", "2"]) == 2  # no such option
    ir = tmp_path / "ir.cfg"
    ir.write_text("lam = 1550 nm\n", encoding="utf-8")
    assert main(["--config", str(ir)]) == 0  # the link model has no band limit
    assert main(["--config", str(ir), "--safety"]) == 2  # the exposure limit has one
    for flag in ("--csv", "--svg"):  # an output file with no sweep to write
        assert main([flag, str(tmp_path / "out")]) == 2, flag
    assert not (tmp_path / "out").exists()
    assert main(["--sweep", "l_s:5e-324:1e-323:10"]) == 2  # step underflows to 0
    assert main(["--sweep", "l_s:0.0001:1e300:3"]) == 2  # l_s**2 overflows
    assert main(["--sweep", "d:1:1.0000000000000002:10"]) == 2  # rows repeat a value
    assert main(["--sweep", "d:1:2:100000000000"]) == 2  # more steps than MAX_STEPS
    for extra in (["--sweep", "d:1:2:3"],  # a report and a sweep at once
                  ["--sweep", "d:1:2:3", "--csv", str(tmp_path / "out")],
                  ["--sweep", "d:1:2:3", "--svg", str(tmp_path / "out")]):
        assert main(["--safety", *extra]) == 2, extra
    assert not (tmp_path / "out").exists()
    for extra in (["--config", str(tmp_path / "absent.cfg")],  # defaults and a config
                  ["--config", str(ir)],
                  ["--sweep", "d:1:2:3"],
                  ["--sweep", "d:1:2:3", "--csv", str(tmp_path / "out")],
                  ["--sweep", "d:1:2:3", "--svg", str(tmp_path / "out")],
                  ["--safety"]):
        assert main(["--print-defaults", *extra]) == 2, extra
    assert not (tmp_path / "out").exists()
    assert main(["--no-such-flag"]) == 2  # argparse usage error
    captured = capsys.readouterr()
    assert "lam = " not in captured.out  # no defaults printed beside an error
    err = captured.err
    assert "configuration error" in err
    assert "wavelength 1550.0 nm outside" in err and "need --sweep" in err
    assert "too narrow" in err and "--safety prints a report" in err
    assert "--print-defaults prints the defaults" in err


def test_cli_air_loss_underflow_is_dark(tmp_path, capsys):
    # exp(-alpha_air*d) underflows r2 to 0: an opaque cavity, below any threshold
    cfg = tmp_path / "air.cfg"
    cfg.write_text("alpha_air = 1000\n", encoding="utf-8")
    assert main(["--config", str(cfg)]) == 0
    assert "status            below_threshold" in capsys.readouterr().out
    cfg.write_text("alpha_air = 100\n", encoding="utf-8")  # r2 reaches 0 from d = 8 m
    out = tmp_path / "air.csv"
    assert main(["--config", str(cfg), "--sweep", "d:6:11:6", "--csv", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["6", "7", "8", "9", "10", "11"]
    assert all(row.endswith(",0,0,0,0,0,below_threshold") for row in rows)


_EXTREME_VALUES = ["1e-300", "1e-160", "1e160", "1e300", "1e-320", "5e-324"]
_FIELDS = [f.name for f in dataclasses.fields(SystemParams)]


@pytest.mark.filterwarnings("ignore:doubling efficiency")
@pytest.mark.parametrize("value", _EXTREME_VALUES)
@pytest.mark.parametrize("name", _FIELDS)
def test_cli_extreme_finite_field_exits_cleanly(tmp_path, capsys, name, value):
    # a finite value that a stage squares or divides by to 0 or past the
    # double range is refused at the config boundary, never a traceback,
    # and a report that is printed holds no infinite or undefined number
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(f"{name} = {value}\n", encoding="utf-8")
    code = main(["--config", str(cfg)])
    assert code in (0, 2, 3)
    if code == 0:
        out = capsys.readouterr().out
        assert "inf" not in out and "nan" not in out, out


@pytest.mark.parametrize("value", _EXTREME_VALUES)
@pytest.mark.parametrize("name", _FIELDS)
def test_cli_safety_extreme_finite_field_exits_cleanly(tmp_path, capsys, name, value):
    # the safety report squares d_e and divides by it and by the pump-path
    # efficiencies: a config whose report leaves the double range is refused
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(f"{name} = {value}\n", encoding="utf-8")
    code = main(["--config", str(cfg), "--safety"])
    assert code in (0, 2)
    out = capsys.readouterr().out
    if code == 0:
        assert "inf" not in out and "nan" not in out, out
    else:
        assert out == ""  # nothing of the report is printed before the refusal


def test_cli_safety_extreme_field_pairs_exit_cleanly(tmp_path, capsys):
    # two extremes at once, of the fields the report reads: two efficiencies
    # at 5e-324 or 1e-320 multiply to 0, which the report must not divide by
    cfg = tmp_path / "pair.cfg"
    fields = ("eta_p", "eta_t", "eta_a", "d_e", "a_g", "p_in")
    for k, first in enumerate(fields):
        for second in fields[k + 1:]:
            for a in _EXTREME_VALUES:
                for b in _EXTREME_VALUES:
                    cfg.write_text(f"{first} = {a}\n{second} = {b}\n", encoding="utf-8")
                    code = main(["--config", str(cfg), "--safety"])
                    out = capsys.readouterr().out
                    case = (first, a, second, b)
                    assert code in (0, 2), case
                    if code == 0:
                        assert "inf" not in out and "nan" not in out, (case, out)
                    else:
                        assert out == "", case


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    for flag, target in (("--csv", tmp_path / "no" / "dir" / "out.csv"),  # no such directory
                         ("--svg", tmp_path)):  # a directory
        capsys.readouterr()
        assert main(["--sweep", "d:4:8:3", flag, str(target)]) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("output error:") and str(target) in err, err
        assert "Traceback" not in err
    assert not (tmp_path / "no").exists()


def test_cli_solver_failure_exits_3(monkeypatch, capsys):
    def boom(params):
        raise RuntimeError("intracavity solver: blew up")

    monkeypatch.setattr("rbswipt.cli.evaluate_link", boom)
    assert main([]) == 3
    assert "solver failure" in capsys.readouterr().err
