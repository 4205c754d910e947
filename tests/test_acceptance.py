"""Acceptance gate: one test per release criterion, one verdict line each.

Shape criteria are property-based (monotonicity, unimodality, curvature)
because they describe curves rather than single numbers; solver criteria are
checked against independent brute-force oracles.
"""

import dataclasses
import math
import time

import numpy as np

from rbswipt.link import evaluate_link
from rbswipt.optics import (CavityGeometry, rr_focal_length, single_pass_abcd,
                            stability_check)
from rbswipt.params import SystemParams
from rbswipt.pv import (PVSpec, kirchhoff_residuals, mppt,
                        open_circuit_voltage, solve_operating_point)
from rbswipt.resonator import (GainMediumSpec, LossBudget, SHGSpec,
                               equivalent_reflectances, rigrod_p4,
                               shg_conversion_coefficient, solve_intracavity)
from rbswipt.sweep import SweepSpec, emit_csv, run_sweep

DEFAULT = SystemParams()


def at(**overrides) -> SystemParams:
    return dataclasses.replace(DEFAULT, **overrides)


def golden_max(func, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Argmax of a unimodal function by golden-section search."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = func(x1), func(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = func(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = func(x1)
    return 0.5 * (lo + hi)


def bisect_root(func, lo: float, hi: float, tol: float = 1e-9) -> float:
    f_lo = func(lo)
    assert f_lo * func(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if func(mid) * f_lo <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_1_headline_operating_point():
    t0 = time.perf_counter()
    r = evaluate_link(DEFAULT)
    elapsed = time.perf_counter() - t0
    assert r.status == "ok"
    assert abs(r.p_hat_charge - 1.05) <= 0.20 * 1.05
    assert abs(r.r_b - 11.03) <= 1.0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS — P_charge = {r.p_hat_charge:.4f} W "
          f"(target 1.05 ± 20%), R_b = {r.r_b:.4f} bit/s/Hz "
          f"(target 11.03 ± 1.0), runtime {elapsed * 1e3:.1f} ms")


def test_criterion_2_geometry():
    f_rr = rr_focal_length(0.03, 0.03015)
    assert abs(f_rr - 3.0) <= 1e-12

    def stable(d: float) -> bool:
        return stability_check(CavityGeometry(0.03, 0.03015, d)) == "stable"

    lo, hi = 11.5, 12.5
    assert stable(lo) and not stable(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    boundary = 0.5 * (lo + hi)
    assert abs(boundary - 12.0) <= 1e-6
    print(f"ACCEPTANCE 2: PASS — f_RR = {f_rr!r} m (3 m within 1e-12), "
          f"stability boundary at d = {boundary:.9f} m (12 m ± 1e-6)")


def test_criterion_3_safety_arithmetic():
    from rbswipt.safety import exposure

    p_a, irradiance, _, _, p_a_safe, p_in_safe = exposure(DEFAULT)  # at 60 W
    checks = {
        "P_a": (p_a, 40.5),
        "irradiance": (irradiance, 0.0645 * 1e4),
        "P_a_safe": (p_a_safe, 84.77),
        "P_in_safe": (p_in_safe, 125.46),
    }
    for name, (got, target) in checks.items():
        assert abs(got - target) <= 0.01 * target, (name, got, target)
    summary = ", ".join(f"{k} {got:.4g}/{tgt:.4g}"
                        for k, (got, tgt) in checks.items())
    print(f"ACCEPTANCE 3: PASS — all within 1%: {summary}")


def test_criterion_4_trend_reproduction():
    # (a) output-coupler reflectivity: charging power peaks inside the range,
    # rate keeps rising but with shrinking increments
    r_m2_grid = np.linspace(0.82, 0.995, 36)
    rows = [evaluate_link(at(r_m2=float(v))) for v in r_m2_grid]
    p_charge = np.array([r.p_hat_charge for r in rows])
    rate = np.array([r.r_b for r in rows])
    k = int(np.argmax(p_charge))
    assert 0 < k < len(r_m2_grid) - 1
    assert np.all(np.diff(p_charge)[:k] > 0) and np.all(np.diff(p_charge)[k:] < 0)
    r_m2_peak = float(r_m2_grid[k])
    d_rate = np.diff(rate)
    assert np.all(d_rate > 0)
    assert d_rate[-1] < 0.5 * d_rate.max()  # saturating

    # (b) crystal length: rate rises and saturates, charging power falls
    l_s_grid = np.linspace(1e-4, 1.2e-3, 23)
    rows = [evaluate_link(at(l_s=float(v))) for v in l_s_grid]
    p_charge = np.array([r.p_hat_charge for r in rows])
    rate = np.array([r.r_b for r in rows])
    assert np.all(np.diff(p_charge) < 0)
    d_rate = np.diff(rate)
    assert np.all(d_rate > 0)
    assert d_rate[-1] < 0.2 * d_rate[0]

    # (c) gap distance at 60 W: the power branch only loses with distance; the
    # carrier power rises then falls; the rate holds above 10 bit/s/Hz over a
    # span of at least 5 m.  The carrier peak sits in the 3-8 m band at 40-50 W
    # drive; at 60 W the stronger circulating power pushes it slightly past 8 m.
    d_grid = np.linspace(1.0, 11.9, 110)
    rows = [evaluate_link(at(d=float(v))) for v in d_grid]
    p_pt = np.array([r.p_recv_pt for r in rows])
    p_it = np.array([r.p_recv_it for r in rows])
    assert np.all(np.diff(p_pt) <= 0)
    k = int(np.argmax(p_it))
    assert 0 < k < len(d_grid) - 1
    assert np.all(np.diff(p_it)[:k] > 0) and np.all(np.diff(p_it)[k:] < 0)
    peaks = {}
    for p_in in (40.0, 50.0):
        peak = golden_max(
            lambda d, p=p_in: evaluate_link(at(d=d, p_in=p)).p_recv_it, 1.5, 11.5)
        assert 3.0 <= peak <= 8.0, (p_in, peak)
        peaks[p_in] = peak

    def excess_rate(d: float) -> float:
        return evaluate_link(at(d=d)).r_b - 10.0

    lo = bisect_root(excess_rate, 1.0, 8.0)
    hi = bisect_root(excess_rate, 8.0, 11.9)
    span = hi - lo
    assert span >= 5.0

    # (d) pump power: dark below a threshold in [20, 45] W, the power branch
    # affine above it, the carrier power convex increasing
    p_grid = np.linspace(0.0, 100.0, 101)
    rows = [evaluate_link(at(p_in=float(v))) for v in p_grid]
    lit = [v for v, r in zip(p_grid, rows) if r.p_hat_charge > 0]
    threshold = lit[0]
    assert 20.0 <= threshold <= 45.0
    for v, r in zip(p_grid, rows):
        if v < threshold:
            assert r.status == "below_threshold"
            assert r.p_recv_pt == r.p_recv_it == r.p_hat_charge == r.r_b == 0.0
    x = np.array([v for v in p_grid if v >= 40.0])
    y = np.array([r.p_recv_pt for v, r in zip(p_grid, rows) if v >= 40.0])
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    r_squared = 1.0 - float(np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2))
    assert r_squared > 0.999
    p_it_fit = np.array([r.p_recv_it for v, r in zip(p_grid, rows) if v >= 40.0])
    assert np.all(np.diff(p_it_fit) > 0)
    assert np.all(np.diff(p_it_fit, 2) > -1e-12)  # convex

    print(f"ACCEPTANCE 4: PASS — (a) charge peak interior at R_M2 = "
          f"{r_m2_peak:.3f}; "
          f"(b) rate saturates, charge falls in l_s; "
          f"(c) carrier peaks {peaks[40.0]:.2f} m @40 W / {peaks[50.0]:.2f} m @50 W, "
          f"rate > 10 over {span:.2f} m @60 W; "
          f"(d) threshold {threshold:.0f} W, fit R^2 = {r_squared:.5f}")


def test_criterion_5_solver_oracles():
    # (a) intracavity fixed point vs a 2000 x 2000 brute-force residual grid
    rng = np.random.default_rng(20260823)
    for trial in range(5):
        p_in = rng.uniform(45.0, 90.0)
        i_s = rng.uniform(0.9e7, 1.5e7)
        eta_c = rng.uniform(0.35, 0.50)
        r_m2 = rng.uniform(0.88, 0.95)
        l_s = rng.uniform(2e-4, 8e-4)
        d = rng.uniform(4.0, 8.0)
        w0 = rng.uniform(0.8e-5, 1.3e-5)
        gd = rng.uniform(0.995, 1.0)
        gain = GainMediumSpec(i_s=i_s, a_g=2e-3, l_g=1e-3, eta_c=eta_c,
                              gamma_g=0.9851, lam=1064e-9)
        shg = SHGSpec(d_eff=4.7e-12, l_s=l_s, n0=2.23, gamma_shg=0.99)
        loss = LossBudget(gamma_l1=0.99, gamma_l2=0.99, r_m1=0.995, r_m2=r_m2,
                          alpha_air=1e-4, gamma_diff=gd)
        sol = solve_intracavity(gain, shg, loss, p_in, w0, gd, d)
        assert sol.p4 > 0.0

        r1_scale = shg.gamma_shg * math.sqrt(loss.gamma_l1**2 * loss.r_m1)
        r2 = (gain.gamma_g * math.exp(-loss.alpha_air * d)
              * math.sqrt(loss.gamma_l2**2 * loss.r_m2 * gd))
        vol = math.pi * gain.a_g**2 * gain.l_g

        def p4_of_eta(eta: np.ndarray) -> np.ndarray:
            r1 = (1.0 - eta) * r1_scale
            rr = r1 * r2
            bracket = (gain.l_g * gain.eta_c * p_in / (gain.i_s * vol)
                       - np.log(1.0 / rr))
            pre = math.pi * gain.a_g**2 * gain.i_s / ((1.0 + r1 / r2) * (1.0 - rr))
            return np.where(bracket > 0.0, pre * bracket, 0.0)

        k_shg = shg_conversion_coefficient(shg, gain.lam)
        p4_top = 1.15 * rigrod_p4(
            gain, *equivalent_reflectances(loss, shg, gain, 0.0, d, gd), p_in)
        p4_axis = np.linspace(0.0, p4_top, 2000)
        eta_axis = np.linspace(0.0, 0.1, 2000)
        res_p4 = (p4_axis[:, None] - p4_of_eta(eta_axis)[None, :]) / p4_top
        res_eta = (eta_axis[None, :]
                   - k_shg * 2.0 * p4_axis[:, None] / (math.pi * w0 * w0)) / 0.1
        residual = res_p4 * res_p4 + res_eta * res_eta
        i, j = np.unravel_index(int(np.argmin(residual)), residual.shape)
        assert abs(p4_axis[i] - sol.p4) <= p4_top / 1999, trial
        assert abs(eta_axis[j] - sol.eta_shg) <= 0.1 / 1999, trial

    # (b) mppt vs dense scans; (c) Kirchhoff residuals along the way
    rng = np.random.default_rng(987654321)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(20):
        spec = PVSpec(rho=0.6, lam=1064e-9,
                      i0=10.0 ** rng.uniform(-8, -5),
                      r_sh=rng.uniform(30.0, 300.0),
                      r_s=rng.uniform(0.01, 0.08),
                      n=rng.uniform(1.3, 1.9),
                      n_s=int(rng.integers(1, 3)),
                      t=rng.uniform(280.0, 320.0))
        i_ph = rng.uniform(0.05, 0.8)
        op = mppt(spec, i_ph)
        worst_residual = max(worst_residual, *kirchhoff_residuals(spec, i_ph, op))
        v_oc = open_circuit_voltage(spec, i_ph)
        v = np.linspace(0.0, v_oc, 100000)
        nnvt = spec.n_s * spec.n * spec.thermal_voltage
        lo, hi = np.zeros_like(v), v + i_ph * spec.r_s

        def balance(v_d: np.ndarray) -> np.ndarray:
            return (i_ph - spec.i0 * np.expm1(v_d / nnvt) - v_d / spec.r_sh
                    - (v_d - v) / spec.r_s)

        f_lo = balance(lo)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            f_mid = balance(mid)
            take_lo = (f_mid > 0) == (f_lo > 0)
            lo = np.where(take_lo, mid, lo)
            f_lo = np.where(take_lo, f_mid, f_lo)
            hi = np.where(take_lo, hi, mid)
        v_d = 0.5 * (lo + hi)
        scan_best = float((v * (v_d - v) / spec.r_s).max())
        gap = abs(op.p_charge - scan_best)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9

        sample = solve_operating_point(spec, i_ph, rng.uniform(0.0, v_oc))
        worst_residual = max(worst_residual,
                             *kirchhoff_residuals(spec, i_ph, sample))
    assert worst_residual < 1e-9

    # (d) the balance lases at every gap of a distance scan
    for d in np.linspace(1.0, 11.5, 22):
        params = at(d=float(d))
        geom = params.geometry
        from rbswipt import optics, resonator
        w0 = optics.beam_radius(optics.cavity_mode(geom, params.a_g, params.lam), 0.0)
        gd = resonator.resolve_gamma_diff(params.loss, geom, params.a_g, params.lam)
        sol = solve_intracavity(params.gain, params.shg, params.loss,
                                params.p_in, w0, gd, geom.d)
        assert sol.p4 > 0.0

    print(f"ACCEPTANCE 5: PASS — grid minima coincide (5 sets), "
          f"mppt vs 1e5-point scans worst gap {worst_gap:.2e} W (<= 1e-9), "
          f"worst Kirchhoff residual {worst_residual:.2e} (< 1e-9), "
          f"all 22 gaps lase")


def test_criterion_6_numerical_hygiene():
    from rbswipt.optics import beam_radius, cavity_mode, fundamental_radius, q_at

    rng = np.random.default_rng(42)
    worst_det = 0.0
    for _ in range(100):
        f = rng.uniform(0.01, 0.1)
        l = f * (1.0 + rng.uniform(1e-4, 1e-2))
        d_max = 2.0 * f * f / (l - f)
        geom = CavityGeometry(f, l, rng.uniform(0.05, 0.95) * d_max)
        a, b, c = single_pass_abcd(geom)
        worst_det = max(worst_det, abs(a * a - b * c - 1.0))
    assert worst_det <= 1e-12

    geom = DEFAULT.geometry
    mode = cavity_mode(geom, DEFAULT.a_g, DEFAULT.lam)
    worst_ratio = 0.0
    for z in rng.uniform(0.0, geom.z_pv, size=10):
        w00 = fundamental_radius(q_at(mode, float(z)), DEFAULT.lam)
        ratio = beam_radius(mode, float(z)) / w00
        worst_ratio = max(worst_ratio, abs(ratio - mode.m) / mode.m)
    assert worst_ratio <= 1e-9

    worst_jump = 0.0
    boundaries = [0.0, geom.z_l1, geom.z_l2, geom.z_l3]
    for prev, z_lens in zip(boundaries, boundaries[1:]):
        q_pre = q_at(mode, prev) + (z_lens - prev)
        q_post = q_at(mode, z_lens)
        jump = 1.0 / q_post - 1.0 / q_pre
        worst_jump = max(worst_jump, abs(jump + 1.0 / geom.f) * geom.f)
    assert worst_jump <= 1e-12

    print(f"ACCEPTANCE 6: PASS — worst |det - 1| = {worst_det:.2e} (<= 1e-12), "
          f"w/w00 drift {worst_ratio:.2e} (<= 1e-9), "
          f"lens jump error {worst_jump:.2e} relative (<= 1e-12)")


def test_criterion_7_determinism(tmp_path):
    spec = SweepSpec(axis="d", vmin=3.0, vmax=9.0, steps=7, params=DEFAULT)
    first = run_sweep(spec)
    second = run_sweep(spec)
    assert first == second
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(first, str(path_a))
    emit_csv(second, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    print("ACCEPTANCE 7: PASS — repeated runs byte-identical")
