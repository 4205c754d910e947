"""Invariants of `evaluate_link` over random draws from the design box.

The box spans gaps d in [0, 13] m (past the stability edge near 12 m), pump
power p_in in [0, 200] W, output-coupler reflectivity r_m2 in [0.5, 1),
crystal length l_s in [0.05, 6] mm and d_eff in {0} or [0.1, 50] pm/V, so it
holds unstable, dark and lasing cavities, with weak and strong conversion.
The nonzero d_eff starts at 0.1 pm/V, below every practical doubling crystal,
so that d_eff**2 cannot underflow.

Small crystals near threshold give carriers whose SNR is under the
double-precision epsilon; `achievable_rate` evaluates log1p(snr), so their
rate stays positive, and `test_weak_carrier_rate_stays_positive` pins that.

`test_charging_power_is_concave_in_voltage` checks, over random cells and
photocurrents, the concavity of P(v) that `pv.mppt` relies on.

`test_link_matches_the_end_to_end_oracle` checks `evaluate_link` against the
independent model of the whole chain in `bench/oracle.py`, over the doubling
box widened with the loss factors.

`test_sweep_grid_is_the_numpy_grid` checks the sweep grid against
`numpy.linspace` over random valid specs on every axis.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rbswipt import optics, resonator  # noqa: E402
from rbswipt.link import evaluate_link  # noqa: E402
from rbswipt.params import ConfigError, SystemParams  # noqa: E402
from rbswipt.pv import (PVSpec, open_circuit_voltage, photo_current,  # noqa: E402
                        solve_operating_point)
from rbswipt.sweep import SweepSpec  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:doubling efficiency")

BASE = SystemParams()
DARK = ("unstable", "below_threshold")
NUMERIC = ("p_recv_pt", "p_recv_it", "p_hat_charge", "r_b", "v_mpp", "eta_shg")


def box(d_eff, **wider):
    fields = {"d": st.floats(0.0, 13.0), "p_in": st.floats(0.0, 200.0),
              "r_m2": st.floats(0.5, 1.0, exclude_max=True),
              "l_s": st.floats(0.05e-3, 6e-3), "d_eff": d_eff, **wider}
    return st.builds(lambda **o: dataclasses.replace(BASE, **o), **fields)


doubling = st.floats(0.1e-12, 50e-12)
design_box = box(st.one_of(st.just(0.0), doubling))

checked = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@checked
@given(design_box)
def test_dark_status_zeroes_every_output(params):
    r = evaluate_link(params)
    assume(r.status in DARK)
    assert all(getattr(r, name) == 0.0 for name in NUMERIC)


@checked
@given(design_box)
def test_lasing_link_charges_below_open_circuit(params):
    r = evaluate_link(params)
    assume(r.status == "ok")
    assert r.p_recv_pt > 0.0 and r.p_hat_charge > 0.0
    v_oc = open_circuit_voltage(params.pv, photo_current(params.pv, r.p_recv_pt))
    assert 0.0 < r.v_mpp < v_oc


@checked
@given(box(doubling))
def test_lasing_link_with_doubling_carries_data(params):
    r = evaluate_link(params)
    assume(r.status == "ok")
    assert r.p_recv_it > 0.0 and r.r_b > 0.0


@checked
@given(design_box)
def test_charge_does_not_fall_with_more_pump(params):
    low = evaluate_link(params)
    high = evaluate_link(dataclasses.replace(params, p_in=1.05 * params.p_in))
    assert high.p_hat_charge >= low.p_hat_charge


@checked
@given(design_box)
def test_stable_cavity_lases_exactly_above_its_threshold(params):
    # the margin a dark result is decided by: the pump against the eta = 0
    # threshold of the same cavity
    geom, gain = params.geometry, params.gain
    assume(optics.stability_check(geom) == "stable")
    gamma_diff = resonator.resolve_gamma_diff(params.loss, geom, gain.a_g, gain.lam)
    r1, r2 = resonator.equivalent_reflectances(params.loss, params.shg, gain, 0.0,
                                               geom.d, gamma_diff)
    threshold = resonator.lasing_threshold(gain, r1, r2)
    assert (evaluate_link(params).status == "ok") == (params.p_in > threshold)


def _bench_oracle():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import oracle
    finally:
        sys.path.pop(0)
    return oracle


unit = st.floats(0.0, 1.0, exclude_min=True)
# The doubling box with the loss factors free too: air loss, the transmitter
# mirror, and both captures as a model or a constant.  Two edges of the design
# box are left out because bench/oracle.py misjudges them: gaps under 1 nm,
# where the cavity is marginal below about 3e-12 m (g1*g2 within
# STABILITY_BOUNDARY_TOL of 1) but the oracle calls only d >= 4*f_rr
# unstable, and d_eff = 0, where its tolerance slope is 0/0 at eta = 0.
oracle_box = box(doubling, d=st.floats(1e-9, 13.0), alpha_air=st.floats(0.0, 0.05),
                 r_m1=st.floats(0.95, 1.0),
                 gamma_diff=st.one_of(st.just("model:farfield"), unit),
                 gamma_pd=st.one_of(st.just("auto"), unit))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(oracle_box)
def test_link_matches_the_end_to_end_oracle(params):
    # bench/oracle.py models the whole chain apart from rbswipt, with a
    # tolerance per output that follows each solver's stopping rule
    oracle = _bench_oracle()
    try:
        want = oracle.link(params)
    except ZeroDivisionError:
        # the oracle's own fault: its tolerance takes dln(P4)/d(eta) from a
        # step 1e-6*eta that rounds away when eta is below about 1e-10, and
        # its threshold divides by r1*r2 when r2 underflows to 0
        reject()
    assert oracle.mismatch(evaluate_link(params), want) is None


def test_weak_carrier_rate_stays_positive():
    r = evaluate_link(dataclasses.replace(BASE, d_eff=1e-17))
    assert r.status == "ok" and r.p_recv_it > 0.0
    assert r.r_b > 0.0


# PV cells drawn like test_acceptance's, with photocurrents from 1 nA to 30 A
pv_cell = st.builds(PVSpec, rho=st.just(0.6),
                    i0=st.floats(-8.0, -5.0).map(lambda e: 10.0 ** e),
                    r_sh=st.floats(30.0, 300.0), r_s=st.floats(0.01, 0.08),
                    n=st.floats(1.3, 1.9), n_s=st.integers(1, 2),
                    t=st.floats(280.0, 320.0))
photocurrent = st.floats(-9.0, math.log10(30.0)).map(lambda e: 10.0 ** e)


@checked
@given(pv_cell, photocurrent)
def test_charging_power_is_concave_in_voltage(spec, i_ph):
    # what licenses a bare golden-section MPPT: second differences of P(v) on
    # a uniform grid over [0, v_oc] are never positive beyond rounding.  One
    # p_charge = v*(v_d - v)/r_s is good to about 2*eps*v_oc*(v_oc/r_s + i_ph)
    # (v_d to its last ulp and the current balance to eps*i_ph), and a second
    # difference adds four such errors
    v_oc = open_circuit_voltage(spec, i_ph)
    p = [solve_operating_point(spec, i_ph, v_oc * k / 128).p_charge for k in range(129)]
    floor = 8.0 * sys.float_info.epsilon * v_oc * (v_oc / spec.r_s + i_ph)
    assert max(a - 2.0 * b + c for a, b, c in zip(p, p[1:], p[2:])) <= floor


# each axis's valid range; d and p_in are unbounded above, and l_s ends where
# l_s**2 leaves the double range
AXIS_RANGE = {"d": st.floats(0.0, allow_infinity=False),
              "p_in": st.floats(0.0, allow_infinity=False),
              "r_m2": st.floats(0.0, 1.0, exclude_min=True),
              "l_s": st.floats(0.0, math.sqrt(sys.float_info.max), exclude_min=True)}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(AXIS_RANGE)).flatmap(
    lambda axis: st.tuples(st.just(axis), AXIS_RANGE[axis], AXIS_RANGE[axis])),
    st.integers(2, 700))
def test_sweep_grid_is_the_numpy_grid(ends, steps):
    axis, lo, hi = ends
    assume(lo < hi)
    with np.errstate(over="ignore"):  # numpy also scales the end point it then drops
        expected = np.linspace(lo, hi, steps).tolist()
    try:
        spec = SweepSpec(axis=axis, vmin=lo, vmax=hi, steps=steps, params=BASE)
    except ConfigError:  # refused exactly when the grid repeats a value
        assert len(set(expected)) < steps
        return
    assert len(set(expected)) == steps
    assert [v.hex() for v in spec.values()] == [v.hex() for v in expected]
