"""End-to-end link evaluation across operating regimes."""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

from rbswipt.cli import main
from rbswipt.link import LinkResult, _cavity_stage, evaluate_link, evaluate_rows
from rbswipt.params import SystemParams

DEFAULT = SystemParams()


def test_reference_operating_point():
    r = evaluate_link(DEFAULT)
    assert r.status == "ok"
    assert math.isclose(r.p_recv_pt, 5.412365641415347, rel_tol=1e-12)
    assert math.isclose(r.p_recv_it, 0.02256776376597084, rel_tol=1e-12)
    assert math.isclose(r.p_hat_charge, 1.2175157294309042, rel_tol=1e-12)
    assert math.isclose(r.r_b, 10.164405008973883, rel_tol=1e-12)
    assert math.isclose(r.v_mpp, 0.4214061927082952, rel_tol=1e-9)
    assert math.isclose(r.eta_shg, 0.003365677413573774, rel_tol=1e-12)


def test_unstable_geometry_is_dark():
    for d in (12.0, 12.5, 13.0):  # boundary and beyond
        r = evaluate_link(dataclasses.replace(DEFAULT, d=d))
        assert r.status == "unstable"
        assert r.p_recv_pt == r.p_recv_it == r.p_hat_charge == 0.0
        assert r.r_b == 0.0 and r.v_mpp == 0.0 and r.eta_shg == 0.0


def test_below_threshold_is_dark():
    r = evaluate_link(dataclasses.replace(DEFAULT, p_in=1.0))
    assert r.status == "below_threshold"
    assert r.p_recv_pt == r.p_recv_it == r.p_hat_charge == r.r_b == 0.0


LOSSLESS = dict(gamma_g=1.0, gamma_shg=1.0, gamma_l1=1.0, gamma_l2=1.0, r_m1=1.0,
                r_m2=1.0, alpha_air=0.0, gamma_diff=1.0)


def test_lossless_cavity_is_an_error_not_dark(tmp_path, capsys):
    # r1*r2 = 1 has no threshold: no pump, not even 0 W, is below it, so the
    # record is refused when it is built, stable (6 m) or not (13 m)
    for change in ({"p_in": 0.0}, {"p_in": 60.0}, {"d": 13.0}):
        with pytest.raises(ValueError, match="lossless cavity"):
            SystemParams(**LOSSLESS, **change)
    cfg = tmp_path / "lossless.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in LOSSLESS.items()), encoding="utf-8")
    assert main(["--config", str(cfg)]) == 2
    assert "configuration error: lossless cavity" in capsys.readouterr().err


def test_opaque_cavity_is_dark():
    # air loss that underflows exp(-alpha_air*d) to 0 leaves r2 = 0
    for alpha_air, d in ((1000.0, 6.0), (100.0, 8.0), (100.0, 11.0)):
        r = evaluate_link(dataclasses.replace(DEFAULT, alpha_air=alpha_air, d=d, p_in=1e6))
        assert r.status == "below_threshold", (alpha_air, d)


def test_non_ok_status_implies_all_zero():
    for params in (dataclasses.replace(DEFAULT, p_in=20.0),
                   dataclasses.replace(DEFAULT, d=12.2),
                   dataclasses.replace(DEFAULT, p_in=0.0)):
        r = evaluate_link(params)
        if r.status != "ok":
            assert (r.p_recv_pt, r.p_recv_it, r.p_hat_charge, r.r_b) == \
                (0.0, 0.0, 0.0, 0.0)


def test_constant_detector_capture_override():
    auto = evaluate_link(DEFAULT)
    fixed = evaluate_link(dataclasses.replace(DEFAULT, gamma_pd=1.0))
    # power branch untouched, information branch scales by the capture ratio
    assert fixed.p_recv_pt == auto.p_recv_pt
    assert math.isclose(auto.p_recv_it / fixed.p_recv_it, 0.057007875436445726,
                        rel_tol=1e-12)
    assert fixed.r_b > auto.r_b


def test_constant_diffraction_override():
    lossier = evaluate_link(dataclasses.replace(DEFAULT, gamma_diff=0.99))
    reference = evaluate_link(DEFAULT)
    ideal = evaluate_link(dataclasses.replace(DEFAULT, gamma_diff=1.0))
    assert lossier.p_recv_pt < reference.p_recv_pt < ideal.p_recv_pt
    assert lossier.r_b < reference.r_b < ideal.r_b


# bases on which a string-valued field's default is a number
NUMERIC_BASES = {"gamma_diff": SystemParams(gamma_diff=0.8),
                 "gamma_pd": SystemParams(gamma_pd=0.5)}


def test_rows_of_every_field_equal_whole_evaluations():
    # A row's stages read the sweep's one mapping, updated with the row's
    # rebuilt specs; a row that read a base spec in place of its own would
    # show here.
    # Every numeric field but n_s, at 0.5, 0.9, 1 and 1.1 times its value on
    # the base where that is valid; the default point lases.
    rows = 0
    for field in dataclasses.fields(SystemParams):
        name = field.name
        if name == "n_s":
            continue
        base = NUMERIC_BASES.get(name, DEFAULT)
        points = []
        for k in (0.5, 0.9, 1.0, 1.1):
            try:
                points.append(dataclasses.replace(base, **{name: getattr(base, name) * k}))
            except ValueError:
                pass
        got = evaluate_rows(base, name, [getattr(p, name) for p in points])
        assert [repr(r) for r in got] == [repr(evaluate_link(p)) for p in points], name
        rows += len(points)
    assert rows == 170


@pytest.mark.parametrize("name, stages", [("l_s", 1), ("d_eff", 1), ("n0", 1), ("gamma_shg", 4)])
def test_rows_share_the_cavity_stage_unless_it_reads_the_field(monkeypatch, name, stages):
    # At eta = 0 the cavity stage reads of the crystal only gamma_shg, so a
    # sweep of l_s, d_eff or n0 runs it once, for the base
    from rbswipt import link

    calls = []

    def counting(*specs):
        calls.append(specs)
        return _cavity_stage(*specs)

    monkeypatch.setattr(link, "_cavity_stage", counting)
    evaluate_rows(DEFAULT, name, [getattr(DEFAULT, name) * k for k in (0.5, 0.8, 0.9, 1.0)])
    assert len(calls) == stages


def test_result_is_frozen_record():
    r = evaluate_link(DEFAULT)
    assert isinstance(r, LinkResult)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.r_b = 0.0


def count_calls(monkeypatch, names, params):
    """evaluate_link(params) and how often it calls each 'module.function'.

    Each function is replaced by a counting wrapper in its module and in every
    module that imports it by name, so the calls other stages and the module
    itself make through that name are seen."""
    from rbswipt import optics, pv, resonator

    seen = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = {"optics": optics, "resonator": resonator, "pv": pv}
    with monkeypatch.context() as patch:
        for name in names:
            module, attr = name.split(".")
            fn = getattr(modules[module], attr)
            wrapper = counting(name, fn)
            for binder in modules.values():
                if getattr(binder, attr, None) is fn:
                    patch.setattr(binder, attr, wrapper)
        result = evaluate_link(params)
    return result, seen


# rigrod_p4: one call at eta = 0, then the safeguarded Illinois steps;
# MPPT: 2 + ceil(ln 1e9 / ln(1/phi)) = 46 circuit solves, compared by power,
# of which only the winner becomes an OperatingPoint;
# _diode_current: 2 ends and the bisection midpoints per solve (50 to 55 calls
# each), plus open_circuit_voltage (54)
@pytest.mark.parametrize("d, counts", [
    (6.0, {"resonator.rigrod_p4": 11, "pv._solve_circuit": 46,
           "pv._diode_current": 2534}),
    (11.0, {"resonator.rigrod_p4": 15, "pv._solve_circuit": 46,
            "pv._diode_current": 2578}),
])
def test_solver_call_counts(monkeypatch, d, counts):
    # Solver cost as machine-independent counts.  A change of solver moves these.
    result, seen = count_calls(monkeypatch, counts, dataclasses.replace(DEFAULT, d=d))
    assert result.status == "ok"
    assert seen == counts


@pytest.mark.parametrize("change, counts", [
    ({}, {"optics.single_pass_abcd": 2, "optics.cavity_mode": 1}),
    ({"d": 0.5, "p_in": 120.0}, {"optics.single_pass_abcd": 2, "optics.cavity_mode": 1}),
])
def test_cavity_mode_is_solved_once_per_lasing_point(monkeypatch, change, counts):
    # The stability test builds the single pass once; the lasing stage solves the
    # mode once and reads both w0 and the detector spot from it.
    result, seen = count_calls(monkeypatch, counts, dataclasses.replace(DEFAULT, **change))
    assert result.status == "ok"
    assert seen == counts


def test_mppt_just_above_threshold(monkeypatch):
    # v_oc is about 2e-7 V here: the MPPT costs what it costs at 60 W and finds
    # the maximum an independent v_d-parametrised search finds
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import oracle
    finally:
        sys.path.pop(0)
    _, _, threshold = _cavity_stage(vars(DEFAULT))
    near = dataclasses.replace(DEFAULT, p_in=threshold * (1.0 + 1e-9))
    names = ["pv._diode_current"]
    r, seen = count_calls(monkeypatch, names, near)
    _, at_60w = count_calls(monkeypatch, names, DEFAULT)
    assert DEFAULT.p_in == 60.0 and r.status == "ok"
    assert seen["pv._diode_current"] <= 2 * at_60w["pv._diode_current"]
    p_max, _ = oracle.mppt(near, near.rho * r.p_recv_pt)
    assert math.isclose(r.p_hat_charge, p_max, rel_tol=1e-12)


@pytest.mark.parametrize("change, status", [
    ({"p_in": 1.0}, "below_threshold"),
    ({"d": 12.5}, "unstable"),
])
def test_dark_point_builds_no_mode_and_solves_nothing(monkeypatch, change, status):
    # A dark point pays only for the tests that make it dark: the threshold at
    # eta = 0 does not depend on the mode radius, so neither is computed.
    from rbswipt import optics, resonator

    seen = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in ((optics, "cavity_mode"), (optics, "beam_radius"),
                         (resonator, "rigrod_p4"), (resonator, "solve_intracavity")):
        monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
    assert DEFAULT.gamma_diff == "model:farfield"
    assert evaluate_link(dataclasses.replace(DEFAULT, **change)).status == status
    assert seen == []
