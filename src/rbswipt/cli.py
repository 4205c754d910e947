"""Command-line front end.

    simulate                          evaluate the default configuration
    simulate --config sys.cfg         evaluate a configuration file
    simulate --sweep d:1:12:56 --csv out.csv --svg out.svg
    simulate --safety                 exposure-limit report for the configuration
    simulate --print-defaults         dump the default configuration

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .link import LinkResult, evaluate_link
from .params import ConfigError, format_defaults, load_params
from .safety import exposure
from .sweep import AXIS_RULE, SweepSpec, emit_csv, emit_plot_data, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# built once: parse_args leaves a parser as it found it, and help and usage
# read the terminal width when they are printed
_PARSER = argparse.ArgumentParser(
    prog="simulate",
    description="Resonant-beam charging and communication link simulator.")
_PARSER.add_argument("--config", metavar="PATH",
                     help="configuration file (key = value lines)")
_PARSER.add_argument("--sweep", metavar="AXIS:MIN:MAX:STEPS",
                     help=f"sweep one parameter; AXIS is {AXIS_RULE}")
_PARSER.add_argument("--csv", metavar="PATH", help="write sweep rows as CSV")
_PARSER.add_argument("--svg", metavar="PATH", help="write sweep chart as SVG")
_PARSER.add_argument("--safety", action="store_true",
                     help="print the exposure-limit report and exit")
_PARSER.add_argument("--print-defaults", action="store_true",
                     help="print the default configuration and exit")


def _parse_sweep_token(token: str, params) -> SweepSpec:
    parts = token.split(":")
    if len(parts) != 4:
        raise ConfigError(f"--sweep expects AXIS:MIN:MAX:STEPS, got {token!r}")
    axis, lo, hi, steps = parts
    try:
        vmin, vmax, nsteps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ConfigError(f"--sweep expects numeric MIN:MAX:STEPS, got {token!r}") from None
    return SweepSpec(axis=axis, vmin=vmin, vmax=vmax, steps=nsteps, params=params)


def _print_link(result: LinkResult) -> None:
    print(f"status            {result.status}")
    print(f"P_recv_PT         {result.p_recv_pt:.6g} W")
    print(f"P_recv_IT         {result.p_recv_it:.6g} W")
    print(f"P_charge          {result.p_hat_charge:.6g} W")
    print(f"V_mpp             {result.v_mpp:.6g} V")
    print(f"R_b               {result.r_b:.6g} bit/s/Hz")
    print(f"eta_SHG           {result.eta_shg:.6g}")


def _print_safety(params) -> None:
    try:
        p_a, irr, alpha, mpe, p_a_safe, p_in_safe = exposure(params)
    except ValueError as exc:  # outside the MPE's band, or past the double range
        raise ConfigError(str(exc)) from None
    verdict = "SAFE" if params.p_in <= p_in_safe else "EXCEEDS LIMIT"
    print(f"electrical pump power       P_in      = {params.p_in:.6g} W")
    print(f"absorbed pump power         P_a       = {p_a:.6g} W")
    print(f"worst-case irradiance       E         = {irr:.6g} W/m2 at {params.d_e:.6g} m")
    print(f"apparent source subtense    alpha     = {alpha * 1e3:.6g} mrad")
    print(f"permissible exposure        MPE       = {mpe:.6g} W/m2")
    print(f"max absorbed pump power     P_a,safe  = {p_a_safe:.6g} W")
    print(f"max electrical pump power   P_in,safe = {p_in_safe:.6g} W")
    print(f"verdict: {verdict}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse reports bad usage with code 2
        return int(exc.code or 0)

    try:
        if (args.csv or args.svg) and not args.sweep:
            raise ConfigError("--csv and --svg apply to sweep rows and need --sweep")
        if args.safety and (args.sweep or args.csv or args.svg):
            raise ConfigError("--safety prints a report and takes no --sweep, --csv or --svg")
        if args.print_defaults:
            if args.config or args.sweep or args.csv or args.svg or args.safety:
                raise ConfigError("--print-defaults prints the defaults and takes no "
                                  "--config, --sweep, --csv, --svg or --safety")
            sys.stdout.write(format_defaults())
            return EXIT_OK
        params = load_params(args.config)
        if args.safety:
            _print_safety(params)
            return EXIT_OK
        if args.sweep:
            spec = _parse_sweep_token(args.sweep, params)
            rows = run_sweep(spec)
            if args.csv:
                emit_csv(rows, args.csv)
                print(f"wrote {args.csv}", file=sys.stderr)
            if args.svg:
                emit_plot_data(rows, args.svg, axis=spec.axis)
                print(f"wrote {args.svg}", file=sys.stderr)
            if not args.csv and not args.svg:
                print(f"{'axis':>12}  {'P_charge_W':>12}  {'R_b_bits':>10}  status")
                for value, r in rows:
                    print(f"{value:>12.6g}  {r.p_hat_charge:>12.6g}  "
                          f"{r.r_b:>10.6g}  {r.status}")
        else:
            _print_link(evaluate_link(params))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
