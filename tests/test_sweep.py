"""Sweep execution, CSV/SVG emission and the command-line front end."""

import math
import xml.etree.ElementTree as ET

import pytest

from rbswipt.cli import main
from rbswipt.params import ConfigError, SystemParams
from rbswipt.sweep import (
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
    spec = SweepSpec(axis="P_in", vmin=0.0, vmax=100.0, steps=11, params=PARAMS)
    assert spec.axis == "p_in"
    assert list(spec.values()) == [10.0 * k for k in range(11)]


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


def test_parallel_matches_serial():
    spec = SweepSpec(axis="p_in", vmin=20.0, vmax=80.0, steps=7, params=PARAMS)
    serial = run_sweep(spec, max_workers=1)
    parallel = run_sweep(spec, max_workers=3)
    assert serial == parallel  # bit-for-bit identical rows, same order


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
    out = capsys.readouterr().out
    assert "P_in,safe" in out and "verdict" in out


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
    for line in ("p_in = nan", "p_in = inf", "i0 = inf", "gamma_diff = model:nearfield"):
        bad.write_text(line + "\n", encoding="utf-8")
        assert main(["--config", str(bad)]) == 2, line
    assert main(["--no-such-flag"]) == 2  # argparse usage error
    err = capsys.readouterr().err
    assert "configuration error" in err


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
