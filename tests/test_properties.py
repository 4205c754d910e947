"""Invariants of `evaluate_link` over random draws from the design box.

The box spans gaps d in [0, 13] m (past the stability edge near 12 m), pump
power p_in in [0, 200] W, output-coupler reflectivity r_m2 in [0.5, 1),
crystal length l_s in [0.05, 6] mm and d_eff in {0} or [0.1, 50] pm/V, so it
holds unstable, dark and lasing cavities, with weak and strong conversion.
The nonzero d_eff starts at 0.1 pm/V, below every practical doubling crystal,
so that d_eff**2 cannot underflow.

`achievable_rate` evaluates 0.5*log2(1 + snr), so a weak carrier whose SNR
is under the double-precision epsilon gets a rate of exactly 0 although
P_recv_IT is positive.  Small crystals near threshold reach that inside the
box; the rate property allows a zero rate only there, and
`test_weak_carrier_rate_rounds_to_zero` pins the fault.
"""

import dataclasses
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rbswipt.it_channel import noise_variance  # noqa: E402
from rbswipt.link import evaluate_link  # noqa: E402
from rbswipt.params import SystemParams  # noqa: E402
from rbswipt.pv import open_circuit_voltage, photo_current  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:doubling efficiency")

BASE = SystemParams()
DARK = ("unstable", "below_threshold")
NUMERIC = ("p_recv_pt", "p_recv_it", "p_hat_charge", "r_b", "v_mpp", "eta_shg")


def box(d_eff):
    return st.builds(lambda **o: dataclasses.replace(BASE, **o),
                     d=st.floats(0.0, 13.0), p_in=st.floats(0.0, 200.0),
                     r_m2=st.floats(0.5, 1.0, exclude_max=True),
                     l_s=st.floats(0.05e-3, 6e-3), d_eff=d_eff)


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
    assert r.p_recv_it > 0.0
    signal = params.gamma * r.p_recv_it
    snr = signal * signal / (2.0 * math.pi * math.e * noise_variance(params.noise, r.p_recv_it))
    assert r.r_b > 0.0 or 1.0 + snr == 1.0


@checked
@given(design_box)
def test_charge_does_not_fall_with_more_pump(params):
    low = evaluate_link(params)
    high = evaluate_link(dataclasses.replace(params, p_in=1.05 * params.p_in))
    assert high.p_hat_charge >= low.p_hat_charge


@pytest.mark.xfail(strict=True, reason="0.5*log2(1 + snr) rounds to 0 for snr < 2**-53")
def test_weak_carrier_rate_rounds_to_zero():
    r = evaluate_link(dataclasses.replace(BASE, d_eff=1e-17))
    assert r.status == "ok" and r.p_recv_it > 0.0
    assert r.r_b > 0.0
