"""Desk-scale resonant-beam simulator: simultaneous optical charging and
communication over a self-aligning cavity formed between a transmitter and a
retroreflecting receiver.

The package root exports the configuration, the link evaluation and the
sweep; the stage models stay importable from their modules (`rbswipt.optics`,
`rbswipt.resonator`, `rbswipt.pv`, `rbswipt.it_channel`, `rbswipt.safety`).
"""

from .link import LinkResult, evaluate_link
from .params import ConfigError, SystemParams, load_params
from .sweep import SweepSpec, emit_csv, emit_plot_data, run_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError", "SystemParams", "load_params",
    "LinkResult", "evaluate_link",
    "SweepSpec", "emit_csv", "emit_plot_data", "run_sweep",
]
