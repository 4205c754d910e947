"""Spans around the functions each rbswipt layer exposes, recorded from outside.

`Tracer.install` replaces each function in `EXPOSED`, in every rbswipt
namespace that binds it, by a wrapper that records one span: the function's
name, start, end and the span that was open when it was called.  Spans are
kept in flat arrays in memory and written out once, when the run ends.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# Per layer: the functions other layers call, and those whose calls a metric
# counts (rigrod_p4, solve_operating_point).  Small helpers inside a layer
# (q_at, equivalent_reflectances, ...) are left unwrapped, which keeps a 30 s
# traced run to a few million spans.  A name the program no longer has is
# skipped, and the metrics built on it read 0.
EXPOSED = {
    "params": ("load_params",),
    "optics": ("stability_check", "beam_radius"),
    "resonator": ("resolve_gamma_diff", "solve_intracavity", "rigrod_p4"),
    "pv": ("received_pt_power", "photo_current", "mppt", "open_circuit_voltage",
           "solve_operating_point"),
    "it_channel": ("effective_area", "pd_capture_ratio", "received_it_power",
                   "achievable_rate"),
    "link": ("evaluate_link",),
    "sweep": ("run_sweep", "emit_csv", "emit_plot_data"),
    "cli": ("main",),
}
LAYERS = tuple(EXPOSED)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # "<layer>.<function>", indexed by name id
        self.name_id = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        package = importlib.import_module("rbswipt")
        layers = {name: importlib.import_module(f"rbswipt.{name}") for name in LAYERS}
        namespaces = [package, *layers.values()]
        for layer, module in layers.items():
            for fname in EXPOSED[layer]:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                traced = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.uint8),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer times, counts and shares; 0 where the layer did not run."""
        name = np.frombuffer(self.name_id, dtype=np.uint8).astype(np.int16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(name))
        self_time = dur - child_time
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] + [-1],
                            dtype=np.int8)
        span_layer = layer_of[name]
        parent_layer = layer_of[parent_name]  # index -1 picks the -1 entry
        ids = {n: i for i, n in enumerate(self.names)}

        def is_(qualname):  # a function the program no longer has matches no span
            return name == ids.get(qualname, -2)

        def under(qualname, parent_qualname):
            return is_(qualname) & (parent_name == ids.get(parent_qualname, -2))

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        def per_call(qualname, scale, times=dur):
            mask = is_(qualname)
            return ratio(times[mask].sum() * scale, mask.sum())

        n_link = is_("link.evaluate_link").sum()
        t_link = dur[is_("link.evaluate_link")].sum()
        from_link = parent_name == ids.get("link.evaluate_link", -2)
        lasing = under("it_channel.achievable_rate", "link.evaluate_link").sum()
        it = LAYERS.index("it_channel")
        top_it = (span_layer == it) & (parent_layer != it)
        sweep_points = under("link.evaluate_link", "sweep.run_sweep").sum()

        m = {
            "pv.mppt.us": (per_call("pv.mppt", 1e6), "us/call"),
            "pv.open_circuit_voltage.us": (per_call("pv.open_circuit_voltage", 1e6), "us/call"),
            "pv.mppt.operating_point_solves": (
                ratio(under("pv.solve_operating_point", "pv.mppt").sum(), is_("pv.mppt").sum()),
                "count"),
            "resonator.solve_intracavity.us": (per_call("resonator.solve_intracavity", 1e6),
                                               "us/call"),
            "resonator.resolve_gamma_diff.us": (per_call("resonator.resolve_gamma_diff", 1e6),
                                                "us/call"),
            "resonator.solve_intracavity.iterations": (
                ratio(under("resonator.rigrod_p4", "resonator.solve_intracavity").sum(),
                      is_("resonator.solve_intracavity").sum()),
                "count"),
            "optics.stability_check.us": (per_call("optics.stability_check", 1e6), "us/call"),
            "optics.beam_radius.us": (per_call("optics.beam_radius", 1e6), "us/call"),
            "optics.beam_radius.calls_per_point": (ratio(is_("optics.beam_radius").sum(), n_link),
                                                   "count"),
            "it_channel.us": (ratio(dur[top_it].sum() * 1e6, lasing), "us/point"),
            "link.evaluate_link.us": (per_call("link.evaluate_link", 1e6), "us/call"),
            "link.evaluate_link.self_us": (per_call("link.evaluate_link", 1e6, self_time),
                                           "us/call"),
        }
        for layer in ("optics", "resonator", "pv", "it_channel"):
            m[f"link.share.{layer}"] = (
                ratio(dur[from_link & (span_layer == LAYERS.index(layer))].sum(), t_link),
                "ratio")
        m["sweep.run_sweep.self_us_per_point"] = (
            ratio(self_time[is_("sweep.run_sweep")].sum() * 1e6, sweep_points), "us/point")
        m["sweep.emit_csv.ms"] = (per_call("sweep.emit_csv", 1e3), "ms")
        m["sweep.emit_plot_data.ms"] = (per_call("sweep.emit_plot_data", 1e3), "ms")
        m["params.load_params.ms"] = (per_call("params.load_params", 1e3), "ms")
        m["cli.main.self_ms"] = (per_call("cli.main", 1e3, self_time), "ms")
        return m
