"""Command-line front end.

Subcommands: certify, simulate, burnin, shift, prior, sweep.
Exit codes: 0 success, 1 usage or I/O error, 2 domain error. Results go
to stdout, diagnostics to stderr. A flat ``key = value`` config file
(``--config``) supplies defaults for the subcommand's own single-value
flags (key ``b_mu`` for ``--b-mu``); explicit flags override it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import certificates as cert
from . import burnin as bi
from . import shift as sh
from . import sweep as sw
from .prior import DEFAULT_PRIOR_STRENGTH, JointDistribution, solve_prior_for_r_mech

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

LN2 = math.log(2.0)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        raise UsageError(message)


def _comma_list(convert, what: str):
    """An argparse type for a comma-separated list: a bad entry is a usage error."""

    def parse(text: str) -> list:
        try:
            return [convert(x) for x in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None

    return parse


def _read_config(path: str) -> dict:
    """Flat key = value lines, # comments; values stay strings."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _load_config(command: argparse.ArgumentParser, path: str) -> None:
    """Make the file's values the defaults of the subcommand's flags.

    Keys are the dests of the subcommand's single-value flags, a value must
    be among its flag's choices, and argparse converts it with its type.
    """
    actions = {a.dest: a for a in command._actions
               if a.option_strings and a.nargs is None and a.dest != "config"}
    values = _read_config(path)
    for key, value in values.items():
        if key not in actions:
            raise UsageError(f"unknown config key {key!r}")
        choices = actions[key].choices
        if choices is not None and value not in map(str, choices):
            raise UsageError(f"config {key} = {value}: choose from {', '.join(map(str, choices))}")
    command.set_defaults(**values)


def _info(args, x: float) -> str:
    """An entropy or information value in the unit that --bits selects."""
    return f"{x / LN2:.6g} bits" if args.bits else f"{x:.6g} nats"


def _build_params(args, **extra) -> cert.CalibrationParams:
    return cert.CalibrationParams(**{name: getattr(args, name) for name in (
        "k", "n", "sigma", "kappa_mu", "d_f", "b_mu")}, **extra)


def _outdir(args) -> Path:
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {args.out}: {exc}") from exc
    return path


def cmd_certify(args) -> None:
    params = _build_params(args, sigma_f2=args.sigma_f2)
    report = cert.certificate_report(params, args.target)
    if report.critical_bias is None:
        raise ValueError(f"target unreachable: target {report.target:.6g} nats exceeds "
                         f"zero-bias capacity {cert.channel_capacity(0.0, params):.6g} nats")
    lines = [
        f"sigma_f2 = {params.sigma_f2:.6g}",
        f"capacity = {_info(args, report.capacity_at_bias)}",
        f"h_mech_floor = {_info(args, report.residual_entropy_floor)}",
        f"critical_bias = {report.critical_bias:.6g}",
        f"bias_ratio_crit_over_b = {report.bias_ratio:.6g}",
        f"regime = {report.regime.value}",
        f"sample_ratio = {report.sample_ratio:.6g}",
        f"lb_envelope = {report.lb_envelope:.6g}",
        f"ub_envelope = {report.ub_envelope:.6g}",
    ]
    if report.capacity_exceeds_entropy:
        lines.append("warning = capacity exceeds prior entropy (non-canonical sigma_f2)")
    if report.lb_envelope > report.ub_envelope:
        lines.append("warning = lb_envelope exceeds ub_envelope "
                     "(constant-free envelopes cross when ln k < 1)")
    print("\n".join(lines))
    if args.out is not None:
        (_outdir(args) / "certify.txt").write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> None:
    from . import sim  # the only command that needs numpy

    config = sim.ExperimentConfig(trials=args.trials, seed=args.seed,
                                  workers=args.workers, prior_strength=args.strength)
    experiment, write = {1: (sim.table1_experiment, sim.write_table1_csv),
                         2: (sim.table2_experiment, sim.write_table2_csv)}[args.table]
    path = _outdir(args) / f"table{args.table}.csv"
    sys.stdout.write(write(experiment(config), path))


def cmd_burnin(args) -> None:
    params = bi.BurnInParams(epsilon=args.eps, delta=args.delta, gap=args.gap, k=args.k)
    result = bi.burn_in_lower_bound(params)
    print(f"effective_prior_weight = {result.effective_prior_weight:.6g}")
    if result.binary_kl is not None:
        print(f"binary_kl = {_info(args, result.binary_kl)}")
    print(f"burn_in_cycles = {result.cycles:.6g}")
    if result.binary_kl is None:
        print("flag = degenerate regime (delta >= 1 - epsilon); bound is 0")
    if params.assumption_violated:
        print("flag = assumption epsilon <= delta violated; bound is exploratory")


def cmd_shift(args) -> None:
    if args.joint is not None:
        joint = JointDistribution.from_csv(args.joint)
        subset = args.subset if args.subset is not None else range(joint.k // 2)
        report = sh.verify_impossibility(joint, subset)
        print(f"cond_entropy_residual = {report.cond_entropy_residual:.6g}")
        print(f"kl_residual = {report.kl_residual:.6g}")
        print(f"mi_excess = {report.mi_excess:.6g}")
        print(f"shift_divergence = {_info(args, report.shift_divergence)}")
        print(f"mutual_information_test = {_info(args, report.mutual_information_test)}")
        return
    if args.r_train is None or args.delta_pi is None:
        raise UsageError("shift requires --r-train and --delta-pi (or --joint)")
    report = sh.check_retention(args.r_train, args.k, args.delta_pi)
    print(f"threshold = {_info(args, report.threshold)}")
    print(f"retained = {report.retained.value}")


def cmd_prior(args) -> None:
    prior = solve_prior_for_r_mech(args.k, args.r_mech)
    print(f"beta = {prior.beta:.6g}")
    print(f"alpha = {prior.alpha:.6g}")


def cmd_sweep(args) -> None:
    base = _build_params(args)
    out = _outdir(args)
    if args.grid:
        steps = sw.GRID_STEPS if args.steps is None else args.steps
        rows = sw.sweep_2d(*(sw.grid_axis(param, base, steps) for param in args.grid))
        name, write = "sweep2d.csv", sw.write_sweep2d_csv
    elif args.param:
        if args.values is not None:
            values = args.values
        elif args.min is None or args.max is None:
            raise UsageError("sweep needs --values or --min/--max")
        else:
            steps = sw.PARAM_STEPS if args.steps is None else args.steps
            values = sw.linear_grid(args.min, args.max, steps)
        rows = sw.sweep_1d(sw.SweepSpec(parameter=args.param, values=values, base=base))
        name, write = "sweep1d.csv", sw.write_sweep1d_csv
    else:
        raise UsageError("sweep requires --param or --grid")
    write(rows, out / name)
    print(f"wrote {out / name} ({len(rows)} rows)")


def _add_bits(p: _Parser) -> None:
    p.add_argument("--bits", action="store_true",
                   help="display entropies and information in bits")


def _add_calibration_flags(p: _Parser) -> None:
    # the 5-FU working values
    p.add_argument("--k", type=int, default=8, help="number of arms")
    p.add_argument("--n", type=int, default=12, help="horizon in cycles")
    p.add_argument("--sigma", type=float, default=0.40, help="reward-noise std")
    p.add_argument("--kappa-mu", type=float, default=1.8, help="occupancy sensitivity")
    p.add_argument("--d-f", type=float, default=3.0, help="effective residual dimension")
    p.add_argument("--b-mu", type=float, default=0.22, help="occupancy-weighted bias")


def build_parser() -> _Parser:
    parser = _Parser(prog="mechcert",
                     description="Mechanistic-information certificates and "
                                 "calibrated dosing-bandit simulations.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> _Parser:
        p = subs.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key = value file of flag defaults")
        p.set_defaults(func=func)
        return p

    p = command("certify", cmd_certify, "composite certificate")
    _add_calibration_flags(p)
    p.add_argument("--sigma-f2", type=float, default=None,
                   help="residual variance (overrides the canonical value)")
    p.add_argument("--target", type=float, default=None,
                   help="working-point information target in nats (default h_mu/n)")
    _add_bits(p)
    p.add_argument("--out", default=None, help="also write certify.txt here")

    p = command("simulate", cmd_simulate, "Monte Carlo regret tables")
    p.add_argument("--table", type=int, choices=(1, 2), required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strength", type=float, default=DEFAULT_PRIOR_STRENGTH,
                   help="hybrid prior pseudo-count scale")
    p.add_argument("--out", default=".", help="output directory")

    p = command("burnin", cmd_burnin, "burn-in lower bound")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gap", type=float, required=True)
    p.add_argument("--k", type=int, default=8)
    _add_bits(p)

    p = command("shift", cmd_shift, "distribution-shift retention and impossibility")
    p.add_argument("--r-train", type=float, default=None)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--delta-pi", type=float, default=None)
    p.add_argument("--joint", default=None, help="joint-distribution CSV file")
    p.add_argument("--subset", type=_comma_list(int, "integers"), default=None,
                   help="comma-separated kept arm indices")
    _add_bits(p)

    p = command("prior", cmd_prior, "two-level prior for an information level")
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--r-mech", type=float, required=True)

    p = command("sweep", cmd_sweep, "sensitivity sweeps to CSV")
    _add_calibration_flags(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--param", choices=sw.SWEEP_PARAMETERS, default=None)
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None,
                   help="grid points per axis (default 60 with --grid, 50 with --param)")
    p.add_argument("--values", type=_comma_list(float, "numbers"), default=None,
                   help="explicit comma-separated values")
    mode.add_argument("--grid", nargs=2, metavar=("X", "Y"),
                      choices=sw.SWEEP_PARAMETERS, default=None,
                      help="two parameters for a 2-D ratio grid")
    p.add_argument("--out", default=".", help="output directory")

    parser.commands = subs.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _load_config(parser.commands[args.command], args.config)
            args = parser.parse_args(argv)
        args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ArithmeticError as exc:
        print(f"error: a parameter is out of numeric range ({type(exc).__name__})",
              file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
