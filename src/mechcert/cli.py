"""Command-line front end.

Subcommands: certify, simulate, burnin, shift, prior, sweep.
Exit codes: 0 success, 1 usage or I/O error, 2 domain error. Results go
to stdout, diagnostics to stderr. A flat ``key = value`` config file
(``--config``) supplies defaults for the subcommand's own single-value
flags (key ``b_mu`` for ``--b-mu``); explicit flags override it.

A call builds only its own command's parser (all six for help, no
arguments or an unknown command) and loads the standard library plus
`certificates`, `prior` and the modules its command runs: `sweep` in
`sweep` and `simulate`, and `burnin`, `shift` or `sim` in their own.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import certificates as cert
from .prior import DEFAULT_PRIOR_STRENGTH, solve_prior_for_r_mech

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

LN2 = math.log(2.0)
# the 5-FU working values of the calibration flags, used where a flag is not given
WORKING_VALUES = {"k": 8, "n": 12, "sigma": 0.40, "kappa_mu": 1.8, "d_f": 3.0, "b_mu": 0.22}


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
    except (OSError, UnicodeDecodeError) as exc:
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
    return cert.CalibrationParams(**{
        name: working if getattr(args, name) is None else getattr(args, name)
        for name, working in WORKING_VALUES.items()}, **extra)


def _reject_given(args, flags, reason: str) -> None:
    """A flag the chosen mode never reads is a usage error; a config value counts as given."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"argument {flag}: {reason}")


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
    if args.out is not None:
        (_outdir(args) / "certify.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def cmd_simulate(args) -> None:
    from . import sim  # the only command that needs numpy
    from .sweep import write_csv

    config = sim.ExperimentConfig(trials=args.trials, seed=args.seed,
                                  workers=args.workers, prior_strength=args.strength)
    experiment, header = {1: (sim.table1_experiment, sim.TABLE1_HEADER),
                          2: (sim.table2_experiment, sim.TABLE2_HEADER)}[args.table]
    path = _outdir(args) / f"table{args.table}.csv"
    sys.stdout.write(write_csv(path, header, experiment(config)))


def cmd_burnin(args) -> None:
    from . import burnin as bi

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
    from . import shift as sh
    from .prior import JointDistribution

    if args.joint is not None:
        _reject_given(args, ("--r-train", "--delta-pi", "--k"),
                      "not allowed with argument --joint")
        joint = JointDistribution.from_csv(args.joint)
        subset = args.subset if args.subset is not None else range(joint.k // 2)
        report = sh.verify_impossibility(joint, subset)
        print(f"cond_entropy_residual = {report.cond_entropy_residual:.6g}")
        print(f"kl_residual = {report.kl_residual:.6g}")
        print(f"mi_excess = {report.mi_excess:.6g}")
        print(f"shift_divergence = {_info(args, report.shift_divergence)}")
        print(f"mutual_information_test = {_info(args, report.mutual_information_test)}")
        return
    _reject_given(args, ("--subset",), "not allowed without argument --joint")
    if args.r_train is None or args.delta_pi is None:
        raise UsageError("shift requires --r-train and --delta-pi (or --joint)")
    report = sh.check_retention(args.r_train, 8 if args.k is None else args.k, args.delta_pi)
    print(f"threshold = {_info(args, report.threshold)}")
    print(f"retained = {report.retained.value}")


def cmd_prior(args) -> None:
    prior = solve_prior_for_r_mech(args.k, args.r_mech)
    print(f"beta = {prior.beta:.6g}")
    print(f"alpha = {prior.alpha:.6g}")


def cmd_sweep(args) -> None:
    from . import sweep as sw

    # a swept parameter's own flag is never read; p_opt sets sigma
    for param in args.grid or filter(None, [args.param]):
        flag = "--sigma" if param == "p_opt" else "--" + param.replace("_", "-")
        _reject_given(args, (flag,), f"not allowed with a sweep over {param}")
    base = _build_params(args)
    if args.grid:
        _reject_given(args, ("--values", "--min", "--max"), "not allowed with argument --grid")
        steps = sw.GRID_STEPS if args.steps is None else args.steps
        rows = sw.sweep_2d(*(sw.grid_axis(param, base, steps) for param in args.grid))
        name, header = "sweep2d.csv", sw.SWEEP2D_HEADER
    elif args.param:
        if args.values is not None:
            _reject_given(args, ("--min", "--max", "--steps"), "not allowed with argument --values")
            values = args.values
        elif args.min is None or args.max is None:
            raise UsageError("sweep needs --values or --min/--max")
        else:
            steps = sw.PARAM_STEPS if args.steps is None else args.steps
            values = sw.linear_grid(args.min, args.max, steps)
        rows = sw.sweep_1d(sw.SweepSpec(parameter=args.param, values=values, base=base))
        name, header = "sweep1d.csv", sw.SWEEP1D_HEADER
    else:
        raise UsageError("sweep requires --param or --grid")
    path = _outdir(args) / name
    sw.write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows)")


def _add_bits(p: _Parser) -> None:
    p.add_argument("--bits", action="store_true",
                   help="display entropies and information in bits")


def _add_calibration_flags(p: _Parser) -> None:
    # None: not given, so _build_params takes the working value
    p.add_argument("--k", type=int, default=None, help="number of arms")
    p.add_argument("--n", type=int, default=None, help="horizon in cycles")
    p.add_argument("--sigma", type=float, default=None, help="reward-noise std")
    p.add_argument("--kappa-mu", type=float, default=None, help="occupancy sensitivity")
    p.add_argument("--d-f", type=float, default=None, help="effective residual dimension")
    p.add_argument("--b-mu", type=float, default=None, help="occupancy-weighted bias")


def _certify_flags(p: _Parser) -> None:
    _add_calibration_flags(p)
    p.add_argument("--sigma-f2", type=float, default=None,
                   help="residual variance (overrides the canonical value)")
    p.add_argument("--target", type=float, default=None,
                   help="working-point information target in nats (default h_mu/n)")
    _add_bits(p)
    p.add_argument("--out", default=None, help="also write certify.txt here")


def _simulate_flags(p: _Parser) -> None:
    p.add_argument("--table", type=int, choices=(1, 2), required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strength", type=float, default=DEFAULT_PRIOR_STRENGTH,
                   help="hybrid prior pseudo-count scale")
    p.add_argument("--out", default=".", help="output directory")


def _burnin_flags(p: _Parser) -> None:
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gap", type=float, required=True)
    p.add_argument("--k", type=int, default=8)
    _add_bits(p)


def _shift_flags(p: _Parser) -> None:
    p.add_argument("--r-train", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta-pi", type=float, default=None)
    p.add_argument("--joint", default=None, help="joint-distribution CSV file")
    p.add_argument("--subset", type=_comma_list(int, "integers"), default=None,
                   help="comma-separated kept arm indices")
    _add_bits(p)


def _prior_flags(p: _Parser) -> None:
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--r-mech", type=float, required=True)


def _sweep_flags(p: _Parser) -> None:
    from . import sweep as sw

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


COMMANDS = {  # name: (command, summary, flags), in the order the help lists them
    "certify": (cmd_certify, "composite certificate", _certify_flags),
    "simulate": (cmd_simulate, "Monte Carlo regret tables", _simulate_flags),
    "burnin": (cmd_burnin, "burn-in lower bound", _burnin_flags),
    "shift": (cmd_shift, "distribution-shift retention and impossibility", _shift_flags),
    "prior": (cmd_prior, "two-level prior for an information level", _prior_flags),
    "sweep": (cmd_sweep, "sensitivity sweeps to CSV", _sweep_flags),
}


def build_parser(names=tuple(COMMANDS)) -> _Parser:
    """The parser with the subcommands `names` of COMMANDS, by default all six."""
    parser = _Parser(prog="mechcert",
                     description="Mechanistic-information certificates and "
                                 "calibrated dosing-bandit simulations.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        func, summary, add_flags = COMMANDS[name]
        p = subs.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key = value file of flag defaults")
        p.set_defaults(func=func)
        add_flags(p)
    parser.commands = subs.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser([argv[0]] if argv and argv[0] in COMMANDS else COMMANDS)
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
