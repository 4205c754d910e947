"""Parameter sweeps over the link chain, with CSV and SVG emitters.

A sweep varies one configuration field over a uniform grid and evaluates the
full link at each point, in grid order (`link.evaluate_rows`).  The fields it
may vary, `params.AXES`, are the pump `p_in` and every field a link stage
reads, except the integer `n_s` and `gamma_diff` and `gamma_pd`, which may
hold a model name.  The safety fields reach no stage, so a sweep of one would
draw a flat line.  `SystemParams` checks the end points:
every spec check is an interval in any one field (a field's own range is one
interval of `constants.DOMAINS`), and r1*r2 at zero conversion is monotone in
each, so valid ends bound every row.  The CSV
layout is fixed:

    axis,P_recv_PT_W,P_recv_IT_W,P_charge_W,R_b_bits,eta_SHG,status

with floats written at full double precision (%.17g), LF line endings, UTF-8.
The SVG emitter draws the two headline curves (charging power, rate) as
labelled polylines on a shared abscissa.  Both write their file in place.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os
import stat

from .link import LinkResult, evaluate_rows
from .params import _UNIT_HINT, AXES, AXIS_RULE, ConfigError, SystemParams

MAX_STEPS = 1_000_000  # validation builds the whole grid, about 50 bytes a step

CSV_HEADER = "axis,P_recv_PT_W,P_recv_IT_W,P_charge_W,R_b_bits,eta_SHG,status"


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep: `axis`, a name in `AXES` in any case, varied over
    [vmin, vmax] in `steps` distinct points.  Any other axis, a string or not, a
    range too narrow for that, whose grid would repeat a value, or an end point
    that `SystemParams` refuses, such as one outside the axis's interval in
    `constants.DOMAINS`, is a ConfigError."""

    axis: str
    vmin: float
    vmax: float
    steps: int
    params: SystemParams

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "steps", operator.index(self.steps))
        except TypeError:
            raise ConfigError(f"sweep steps must be an integer, got {self.steps!r}") from None
        if isinstance(self.axis, str):
            object.__setattr__(self, "axis", self.axis.strip().lower())
        if self.axis not in AXES:
            raise ConfigError(f"cannot sweep {self.axis!r}: a sweep axis is {AXIS_RULE}")
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if self.steps > MAX_STEPS:
            raise ConfigError(f"sweep needs at most {MAX_STEPS} steps, got {self.steps}")
        try:  # + 0.0 refuses an end that does not mix with floats: a str, None or Decimal
            ordered = -math.inf < self.vmin + 0.0 < self.vmax + 0.0 < math.inf
        except (TypeError, OverflowError):  # OverflowError: an int past the float range
            ordered = False
        if not ordered:
            raise ConfigError("sweep range must be finite numbers with min < max, "
                              f"got [{self.vmin!r}, {self.vmax!r}]")
        values = self.values()
        if any(a >= b for a, b in zip(values, values[1:])):  # rows would repeat a point
            raise ConfigError(f"sweep range [{self.vmin!r}, {self.vmax!r}] is too narrow "
                              f"for {self.steps} distinct steps")
        # each end is checked as its row's record.  Every spec check is an
        # interval in any one field: each field's own range is one interval of
        # constants.DOMAINS, and ((l - f)/f)**2, not monotone in f, still peaks
        # at an end of any f or l interval.  r1*r2 at zero conversion and
        # gamma_diff are monotone in each field.  So valid ends make the grid valid
        for value in (self.vmin, self.vmax):
            try:
                dataclasses.replace(self.params, **{self.axis: value})
            except ValueError as exc:
                raise ConfigError(f"sweep end point {self.axis} = {value!r}: {exc}") from None

    def values(self) -> list[float]:
        """The grid, bit for bit as `numpy.linspace(vmin, vmax, steps)` builds it."""
        step = (self.vmax - self.vmin) / (self.steps - 1)
        return [j * step + self.vmin for j in range(self.steps - 1)] + [self.vmax]


def run_sweep(spec: SweepSpec) -> list[tuple[float, LinkResult]]:
    """Evaluate the sweep, one row per grid value, in grid order."""
    values = spec.values()
    return list(zip(values, evaluate_rows(spec.params, spec.axis, values)))


def _write(path: str, text: str) -> None:
    """Write `text` over the file's old bytes, then cut a regular file (not a FIFO
    or a device) to length: an O_TRUNC open forces a writeback on close on ext4."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666),
              "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def emit_csv(rows: list[tuple[float, LinkResult]], path: str) -> None:
    """Write sweep rows as CSV, in place.  Refuses to create a file for an empty sweep."""
    if not rows:
        raise ValueError("no sweep rows to write")
    lines = [CSV_HEADER]
    # a result's fields, formatted once per result object: dark rows share one
    tails: dict[int, str] = {}
    for value, r in rows:
        tail = tails.get(id(r))
        if tail is None:
            tail = tails[id(r)] = (f",{r.p_recv_pt:.17g},{r.p_recv_it:.17g},"
                                   f"{r.p_hat_charge:.17g},{r.r_b:.17g},"
                                   f"{r.eta_shg:.17g},{r.status}")
        lines.append(f"{value:.17g}{tail}")
    _write(path, "\n".join(lines) + "\n")


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


def _polyline(xs_px: list[str], ys: list[float], to_px, color: str) -> str:
    """`xs_px` are formatted pixel abscissae; each distinct ordinate of `ys`
    is mapped and formatted once."""
    y_px = {y: f"{to_px(y):.2f}" for y in set(ys)}
    pts = " ".join([f"{x},{y_px[y]}" for x, y in zip(xs_px, ys)])
    return (f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{pts}"/>')


def emit_plot_data(rows: list[tuple[float, LinkResult]], path: str,
                   axis: str = "axis") -> None:
    """Write the charging-power and rate curves as a two-series SVG chart, in place."""
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

    unit = _UNIT_HINT.get(axis)
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
    xs_px = [f"{x_px(v):.2f}" for v in xs]
    parts.append(_polyline(xs_px, y_pow, p_px, "#1f77b4"))
    parts.append(_polyline(xs_px, y_rate, r_px, "#d62728"))
    parts.append(f'<text x="{(x_lo + x_hi) / 2}" y="{_SVG_H - 15}" font-size="14" '
                 f'text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="{x_lo}" y="{_MARGIN_T - 12}" font-size="14" '
                 f'fill="#1f77b4">P_charge [W]</text>')
    parts.append(f'<text x="{x_hi}" y="{_MARGIN_T - 12}" font-size="14" '
                 f'text-anchor="end" fill="#d62728">R_b [bit/s/Hz]</text>')
    parts.append('</svg>')
    _write(path, "\n".join(parts) + "\n")
