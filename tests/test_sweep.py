"""Sweep execution, CSV/SVG emission and the command-line front end."""

import dataclasses
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from rbswipt import link
from rbswipt.cli import main
from rbswipt.it_channel import ConcentratorSpec, NoiseSpec
from rbswipt.link import LinkResult, evaluate_link
from rbswipt.optics import CavityGeometry
from rbswipt.params import ConfigError, SystemParams
from rbswipt.pv import PVSpec
from rbswipt.resonator import GainMediumSpec, LossBudget, SHGSpec
from rbswipt.sweep import (
    AXES,
    CSV_HEADER,
    SweepSpec,
    canonical_axis,
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
    assert canonical_axis("R_M2") == "r_m2"
    assert canonical_axis("P_in") == "p_in"
    assert canonical_axis("d") == "d"
    assert canonical_axis("l_s") == "l_s"
    with pytest.raises(ConfigError):
        canonical_axis("wavelength")


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(axis="d", vmin=1.0, vmax=2.0, steps=1, params=PARAMS)
    with pytest.raises(ConfigError):
        SweepSpec(axis="d", vmin=2.0, vmax=1.0, steps=5, params=PARAMS)
    with pytest.raises(ConfigError):
        SweepSpec(axis="q", vmin=1.0, vmax=2.0, steps=5, params=PARAMS)
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ConfigError):
            SweepSpec(axis="p_in", vmin=lo, vmax=hi, steps=3, params=PARAMS)
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
    # numpy is a test dependency only, and only a worker pool needs
    # concurrent.futures (which loads logging)
    child = ("import sys\n"
             "before = set(sys.modules)\n"
             "import rbswipt, rbswipt.cli\n"
             "print(*{m.partition('.')[0] for m in set(sys.modules) - before})\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(out.split())
    assert "rbswipt" in loaded
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


@pytest.mark.parametrize("axis", AXES)
def test_rows_match_points_built_by_replace(axis):
    base = SystemParams(p_in=80.0, l_s=1e-3, d=4.0)  # all three statuses across AXES
    lo, hi = GRIDS[axis]
    rows = run_sweep(SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=9, params=base))
    for value, result in rows:
        point = dataclasses.replace(base, **{axis: value})
        assert repr(result) == repr(evaluate_link(point))


SPEC_CLASSES = (CavityGeometry, GainMediumSpec, SHGSpec, LossBudget, ConcentratorSpec,
                NoiseSpec, PVSpec)


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


def test_parallel_matches_serial():
    spec = SweepSpec(axis="p_in", vmin=20.0, vmax=80.0, steps=7, params=PARAMS)
    serial = run_sweep(spec, max_workers=1)
    parallel = run_sweep(spec, max_workers=3)
    assert serial == parallel  # bit-for-bit identical rows, same order


def _recording_pool(monkeypatch, cpus):
    """Replace the process pool by one that records its size and maps
    in-process, and report `cpus` CPUs; returns the list of pool sizes."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes


@pytest.mark.parametrize("jobs, steps, cpus, pools", [
    (5000, 3, 8, [3]),   # no more workers than rows
    (5000, 40, 8, [8]),  # nor than CPUs
    (4, 40, 8, [4]),
    (2, 40, 1, []),      # one CPU, or an unknown count: serial, no pool
    (2, 40, None, []),
])
def test_pool_has_at_most_one_worker_per_row_and_cpu(monkeypatch, jobs, steps, cpus, pools):
    # a forking pool starts all its workers at once, so an oversized --jobs
    # would start that many interpreters
    spec = SweepSpec(axis="d", vmin=12.2, vmax=42.2, steps=steps, params=PARAMS)
    serial = run_sweep(spec)
    sizes = _recording_pool(monkeypatch, cpus)
    assert run_sweep(spec, max_workers=jobs) == serial
    assert sizes == pools


def test_cli_jobs_beyond_rows_starts_one_worker_per_row(monkeypatch, capsys):
    sizes = _recording_pool(monkeypatch, 8)
    assert main(["--sweep", "d:1:2:3", "--jobs", "5000"]) == 0
    assert sizes == [3]


# lasing, unstable, mostly dark, lasing; the third base's factor is the capture
# of the multimode radius at the receiving pupil, 6 m out, with lens 1 at f
PUMP_BASES = [SystemParams(), SystemParams(d=12.5),
              SystemParams(gamma_diff=0.6321113620724551), SystemParams(gamma_diff=0.9)]


@pytest.mark.parametrize("base", PUMP_BASES, ids=["default", "unstable", "pupil", "0.9"])
@pytest.mark.parametrize("lo, hi, steps", [(0.0, 120.0, 25), (31.0, 33.0, 21)])
def test_pump_sweep_rows_equal_whole_evaluations(base, lo, hi, steps):
    # a pump sweep shares one cavity stage; every row, serial or from worker
    # processes, is still the whole evaluation of the point built by replace
    spec = SweepSpec(axis="p_in", vmin=lo, vmax=hi, steps=steps, params=base)
    expected = [repr(evaluate_link(dataclasses.replace(base, p_in=v))) for v in spec.values()]
    for workers in (1, 2):
        rows = run_sweep(spec, max_workers=workers)
        assert [repr(r) for _, r in rows] == expected, workers


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


def test_pump_sweep_of_lossless_cavity_is_an_error():
    lossless = dataclasses.replace(PARAMS, gamma_g=1.0, gamma_shg=1.0, gamma_l1=1.0,
                                   gamma_l2=1.0, r_m1=1.0, r_m2=1.0, alpha_air=0.0,
                                   gamma_diff=1.0)
    spec = SweepSpec(axis="p_in", vmin=0.0, vmax=60.0, steps=4, params=lossless)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="lossless cavity"):
            run_sweep(spec, max_workers=workers)


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
], ids=["flat", "mixed"])
def test_writers_match_row_at_a_time_reference(tmp_path, results):
    rows = [(31.0 + 0.125 * j, r) for j, r in enumerate(results)]
    emit_csv(rows, str(tmp_path / "out.csv"))
    emit_plot_data(rows, str(tmp_path / "out.svg"), axis="p_in")
    assert (tmp_path / "out.csv").read_bytes() == _reference_csv(rows)
    assert (tmp_path / "out.svg").read_bytes() == _reference_svg(rows, "p_in")


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
    for jobs in ("0", "-2"):  # no worker count below 1 runs
        assert main(["--sweep", "d:4:8:3", "--jobs", jobs]) == 2, jobs
    for extra in ([], ["--safety"], ["--print-defaults"]):  # workers with no sweep to run
        for jobs in ("1", "3"):
            assert main([*extra, "--jobs", jobs]) == 2, (extra, jobs)
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


def test_cli_unwritable_output_exits_2(tmp_path):
    assert main(["--sweep", "d:4:8:3", "--csv",
                 str(tmp_path / "no" / "dir" / "out.csv")]) == 2


def test_cli_solver_failure_exits_3(monkeypatch, capsys):
    def boom(params):
        raise RuntimeError("intracavity solver: blew up")

    monkeypatch.setattr("rbswipt.cli.evaluate_link", boom)
    assert main([]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_parallel_sweep(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["--sweep", "d:4:10:7", "--csv", str(a)]) == 0
    assert main(["--sweep", "d:4:10:7", "--csv", str(b), "--jobs", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
