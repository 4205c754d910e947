"""Parameter sweeps over the link chain, with CSV and SVG emitters.

A sweep varies one configuration field over a uniform grid and evaluates the
full link at each point.  Rows keep grid order.  The CSV layout is fixed:

    axis,P_recv_PT_W,P_recv_IT_W,P_charge_W,R_b_bits,eta_SHG,status

with floats written at full double precision (%.17g), LF line endings, UTF-8.
The SVG emitter draws the two headline curves (charging power, rate) as
labelled polylines on a shared abscissa.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass

import numpy as np

from .link import LinkResult, evaluate_link
from .params import ConfigError, SystemParams

AXES = ("d", "p_in", "r_m2", "l_s")

_AXIS_UNIT = {"d": "m", "p_in": "W", "r_m2": "", "l_s": "m"}

CSV_HEADER = "axis,P_recv_PT_W,P_recv_IT_W,P_charge_W,R_b_bits,eta_SHG,status"


def canonical_axis(name: str) -> str:
    """Map an axis name (case-insensitive) to its config field."""
    axis = name.strip().lower()
    if axis not in AXES:
        raise ConfigError(f"unknown sweep axis {name!r}; choose from {', '.join(AXES)}")
    return axis


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep: `axis` varied over [vmin, vmax] in `steps` points."""

    axis: str
    vmin: float
    vmax: float
    steps: int
    params: SystemParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", canonical_axis(self.axis))
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if not -np.inf < self.vmin < self.vmax < np.inf:
            raise ConfigError("sweep range must be finite with min < max, "
                              f"got [{self.vmin}, {self.vmax}]")
        # every range check on a swept field is an interval, so valid end
        # points make the whole grid valid
        for value in (self.vmin, self.vmax):
            try:
                dataclasses.replace(self.params, **{self.axis: value})
            except ValueError as exc:
                raise ConfigError(f"sweep end point {self.axis} = {value!r}: {exc}") from None

    def values(self) -> np.ndarray:
        return np.linspace(self.vmin, self.vmax, self.steps)


def _eval_one(job: tuple[SystemParams, str, float]) -> LinkResult:
    base, axis, value = job
    return evaluate_link(dataclasses.replace(base, **{axis: value}))


def run_sweep(spec: SweepSpec, max_workers: int = 1) -> list[tuple[float, LinkResult]]:
    """Evaluate the sweep; `max_workers > 1` fans out over processes.

    Row order always follows the grid, independent of worker count.
    """
    jobs = [(spec.params, spec.axis, float(v)) for v in spec.values()]
    if max_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_eval_one, jobs))
    else:
        results = [_eval_one(job) for job in jobs]
    return [(job[2], res) for job, res in zip(jobs, results)]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_csv(rows: list[tuple[float, LinkResult]], path: str) -> None:
    """Write sweep rows as CSV.  Refuses to create a file for an empty sweep."""
    if not rows:
        raise ValueError("no sweep rows to write")
    lines = [CSV_HEADER]
    for value, r in rows:
        lines.append(",".join((_fmt(value), _fmt(r.p_recv_pt), _fmt(r.p_recv_it),
                               _fmt(r.p_hat_charge), _fmt(r.r_b), _fmt(r.eta_shg),
                               r.status)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_SVG_W, _SVG_H = 800, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80, 80, 40, 60


def _scale(values: list[float], lo_px: float, hi_px: float):
    vmin, vmax = min(values), max(values)
    if vmax == vmin:  # flat series: center it
        vmin, vmax = vmin - 1.0, vmax + 1.0
    span = vmax - vmin

    def to_px(v: float) -> float:
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px, vmin, vmax


def _polyline(xs_px: list[float], ys_px: list[float], color: str) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs_px, ys_px))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{pts}"/>')


def emit_plot_data(rows: list[tuple[float, LinkResult]], path: str,
                   axis: str = "axis") -> None:
    """Write the charging-power and rate curves as a two-series SVG chart."""
    if not rows:
        raise ValueError("no sweep rows to plot")
    xs = [v for v, _ in rows]
    y_pow = [r.p_hat_charge for _, r in rows]
    y_rate = [r.r_b for _, r in rows]

    x_lo, x_hi = _MARGIN_L, _SVG_W - _MARGIN_R
    y_lo, y_hi = _SVG_H - _MARGIN_B, _MARGIN_T  # SVG y grows downward
    x_px, x_min, x_max = _scale(xs, x_lo, x_hi)
    p_px, p_min, p_max = _scale(y_pow, y_lo, y_hi)
    r_px, r_min, r_max = _scale(y_rate, y_lo, y_hi)

    unit = _AXIS_UNIT.get(axis, "")
    x_label = f"{axis} [{unit}]" if unit else axis

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{x_lo}" y1="{y_lo}" x2="{x_hi}" y2="{y_lo}" stroke="black"/>',
        f'<line x1="{x_lo}" y1="{y_lo}" x2="{x_lo}" y2="{y_hi}" stroke="black"/>',
        f'<line x1="{x_hi}" y1="{y_lo}" x2="{x_hi}" y2="{y_hi}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        px = x_px(xv)
        parts.append(f'<line x1="{px:.2f}" y1="{y_lo}" x2="{px:.2f}" '
                     f'y2="{y_lo + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{y_lo + 20}" font-size="12" '
                     f'text-anchor="middle">{xv:.4g}</text>')
        pv_v = p_min + frac * (p_max - p_min)
        parts.append(f'<text x="{x_lo - 8}" y="{p_px(pv_v):.2f}" font-size="12" '
                     f'text-anchor="end" fill="#1f77b4">{pv_v:.4g}</text>')
        rv = r_min + frac * (r_max - r_min)
        parts.append(f'<text x="{x_hi + 8}" y="{r_px(rv):.2f}" font-size="12" '
                     f'text-anchor="start" fill="#d62728">{rv:.4g}</text>')
    parts.append(_polyline([x_px(v) for v in xs], [p_px(v) for v in y_pow], "#1f77b4"))
    parts.append(_polyline([x_px(v) for v in xs], [r_px(v) for v in y_rate], "#d62728"))
    parts.append(f'<text x="{(x_lo + x_hi) / 2}" y="{_SVG_H - 15}" font-size="14" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="{x_lo}" y="{_MARGIN_T - 12}" font-size="14" '
                 f'fill="#1f77b4">P_charge [W]</text>')
    parts.append(f'<text x="{x_hi}" y="{_MARGIN_T - 12}" font-size="14" '
                 f'text-anchor="end" fill="#d62728">R_b [bit/s/Hz]</text>')
    parts.append('</svg>')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
