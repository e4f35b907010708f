"""Command-line front end.

Subcommands: certify, simulate, burnin, shift, prior, sweep; `COMMANDS`
declares each one's function, summary and flags.
Exit codes: 0 success, 1 usage or I/O error, 2 domain error; a reader
that closes stdout early is not an error. Results go to stdout,
diagnostics to stderr. A flat ``key = value`` config file (``--config``)
supplies defaults for the subcommand's own optional single-value flags
(key ``b_mu`` for ``--b-mu``); explicit flags override it. `main` then
parses again: argparse converts a string default by its flag's type only
during a parse.

A call builds only its own command's parser (all six for help, no arguments
or an unknown command), since the other five are a measurable share of a
short `simulate` call. A call also loads only the modules its command runs:
this module imports `certificates` alone, which holds the constants the
parsers read, and each command imports the rest in its own body (`prior`
for burnin, shift and prior; `sweep` for sweep; `sim`, with `prior` and
numpy, for simulate, and its process pool only with workers > 1). A fresh
process compiles every module it loads unless a `__pycache__` is valid, so
a module that a call does not run is start-up time it pays for nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import certificates as cert

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2

LN2 = math.log(2.0)
# dest: (type, 5-FU working value, help); a calibration flag not given takes its working value
CALIBRATION = {"k": (int, cert.K, "number of arms"),
               "n": (int, cert.HORIZON, "horizon in cycles"),
               "sigma": (float, 0.40, "reward-noise std"),
               "kappa_mu": (float, 1.8, "occupancy sensitivity"),
               "d_f": (float, 3.0, "effective residual dimension"),
               "b_mu": (float, 0.22, "occupancy-weighted bias")}


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


def _load_config(command: argparse.ArgumentParser, path: str) -> None:
    """Make a file of flat key = value lines (# comments) the defaults of the subcommand's flags.

    Keys are the dests of its optional single-value flags, each set once, a value must
    be among its flag's choices, and argparse converts it with its type.
    """
    actions = {a.dest: a for a in command._actions
               if a.option_strings and a.nargs is None and not a.required and a.dest != "config"}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not a key
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in first:
            raise UsageError(f"{path}:{lineno}: duplicate config key {key!r} "
                             f"(first set on line {first[key]})")
        if key not in actions:
            raise UsageError(f"unknown config key {key!r}")
        choices = actions[key].choices
        if choices is not None and value not in map(str, choices):
            raise UsageError(f"config {key} = {value}: choose from {', '.join(map(str, choices))}")
        values[key], first[key] = value, lineno
    command.set_defaults(**values)


def _info(args, x: float) -> str:
    """An entropy or information value in the unit that --bits selects."""
    return f"{x / LN2:.6g} bits" if args.bits else f"{x:.6g} nats"


def _calibration(args) -> dict:
    """The command's calibration flags, each at its working value when not given."""
    return {name: working if getattr(args, name) is None else getattr(args, name)
            for name, (_, working, _) in CALIBRATION.items() if hasattr(args, name)}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _reject_given(args, dests, reason: str) -> None:
    """A flag the chosen mode never reads is a usage error; a config value counts as given."""
    for dest in dests:
        if getattr(args, dest) is not None:
            raise UsageError(f"argument {_flag(dest)}: {reason}")


def _outdir(args) -> Path:
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {args.out}: {exc}") from exc
    return path


def cmd_certify(args) -> None:
    params = cert.CalibrationParams(**_calibration(args))
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
    if report.lb_envelope > report.ub_envelope:
        lines.append("warning = lb_envelope exceeds ub_envelope "
                     "(constant-free envelopes cross when ln k < 1)")
    if args.out is not None:
        (_outdir(args) / "certify.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def cmd_simulate(args) -> None:
    from . import sim  # the only command that needs numpy

    config = sim.ExperimentConfig(trials=args.trials, seed=args.seed,
                                  workers=args.workers, prior_strength=args.strength)
    experiment = {1: sim.table1_experiment, 2: sim.table2_experiment}[args.table]
    path = _outdir(args) / f"table{args.table}.csv"
    sys.stdout.write(cert.write_csv(path, experiment(config)))


def cmd_burnin(args) -> None:
    from .prior import BurnInParams, burn_in_lower_bound

    params = BurnInParams(args.eps, args.delta, args.gap, _calibration(args)["k"])
    result = burn_in_lower_bound(params)
    print(f"effective_prior_weight = {result.effective_prior_weight:.6g}")
    if result.binary_kl is not None:
        print(f"binary_kl = {_info(args, result.binary_kl)}")
    print(f"burn_in_cycles = {result.cycles:.6g}")
    if result.binary_kl is None:
        print("flag = degenerate regime (delta >= 1 - epsilon); bound is 0")
    if params.assumption_violated:
        print("flag = assumption epsilon <= delta violated; bound is exploratory")


def cmd_shift(args) -> None:
    from .prior import JointDistribution, check_retention, verify_impossibility

    if args.joint is not None:
        _reject_given(args, ("r_train", "delta_pi", "k"), "not allowed with argument --joint")
        joint = JointDistribution.from_csv(args.joint)
        subset = args.subset if args.subset is not None else range(joint.k // 2)
        report = verify_impossibility(joint, subset)
        print(f"cond_entropy_residual = {report.cond_entropy_residual:.6g}")
        print(f"kl_residual = {report.kl_residual:.6g}")
        print(f"mi_excess = {report.mi_excess:.6g}")
        print(f"shift_divergence = {_info(args, report.shift_divergence)}")
        print(f"mutual_information_test = {_info(args, report.mutual_information_test)}")
        return
    _reject_given(args, ("subset",), "not allowed without argument --joint")
    if args.r_train is None or args.delta_pi is None:
        raise UsageError("shift requires --r-train and --delta-pi (or --joint)")
    report = check_retention(args.r_train, _calibration(args)["k"], args.delta_pi)
    print(f"threshold = {_info(args, report.threshold)}")
    print(f"retained = {report.retained.value}")


def cmd_prior(args) -> None:
    from .prior import solve_prior_for_r_mech

    prior = solve_prior_for_r_mech(_calibration(args)["k"], args.r_mech)
    print(f"beta = {prior.beta:.6g}")
    print(f"alpha = {prior.alpha:.6g}")


def cmd_sweep(args) -> None:
    from . import sweep as sw

    # the flag of the field a swept parameter sets is never read
    for param in args.grid or filter(None, [args.param]):
        _reject_given(args, (sw.SETS[param][0],), f"not allowed with a sweep over {param}")
    base = cert.CalibrationParams(**_calibration(args))
    if args.grid:
        _reject_given(args, ("values", "min", "max"), "not allowed with argument --grid")
        steps = cert.GRID_STEPS if args.steps is None else args.steps
        rows = sw.sweep_2d(*(sw.grid_axis(param, base, steps) for param in args.grid))
        name = "sweep2d.csv"
    elif args.param:
        if args.values is not None:
            _reject_given(args, ("min", "max", "steps"), "not allowed with argument --values")
            values = args.values
        elif args.min is None or args.max is None:
            raise UsageError("sweep needs --values or --min/--max")
        else:
            steps = cert.PARAM_STEPS if args.steps is None else args.steps
            values = sw.linear_grid(args.min, args.max, steps)
        rows = sw.sweep_1d(sw.SweepSpec(parameter=args.param, values=values, base=base))
        name = "sweep1d.csv"
    else:
        raise UsageError("sweep requires --param or --grid")
    path = _outdir(args) / name
    cert.write_csv(path, rows)
    print(f"wrote {path} ({len(rows)} rows)")


# flag specs: (dest, add_argument keywords[, "exclusive"]); argparse's own default is None
BITS = ("bits", dict(action="store_true", help="display entropies and information in bits"))
OUT = ("out", dict(default=".", help="output directory"))
CALIBRATION_FLAGS = tuple((dest, dict(type=type_, help=help_))
                          for dest, (type_, _, help_) in CALIBRATION.items())
ARMS = CALIBRATION_FLAGS[0]  # burnin, shift and prior take certify's --k

COMMANDS = {  # name: (command, summary, flags), in the order the help lists them
    "certify": (cmd_certify, "composite certificate", (
        *CALIBRATION_FLAGS,
        ("target", dict(type=float,
                        help="working-point information target in nats (default h_mu/n)")),
        BITS, ("out", dict(help="also write certify.txt here")))),
    "simulate": (cmd_simulate, "Monte Carlo regret tables", (
        ("table", dict(type=int, choices=(1, 2), required=True)),
        ("trials", dict(type=int, default=10_000)),
        ("seed", dict(type=int, default=0, help="master RNG seed")),
        ("workers", dict(type=int, default=1)),
        ("strength", dict(type=float, default=cert.DEFAULT_PRIOR_STRENGTH,
                          help="hybrid prior pseudo-count scale")),
        OUT)),
    "burnin": (cmd_burnin, "burn-in lower bound", (
        *((dest, dict(type=float, required=True)) for dest in ("eps", "delta", "gap")),
        ARMS, BITS)),
    "shift": (cmd_shift, "distribution-shift retention and impossibility", (
        ("r_train", dict(type=float)), ARMS, ("delta_pi", dict(type=float)),
        ("joint", dict(help="joint-distribution CSV file")),
        ("subset", dict(type=_comma_list(int, "integers"),
                        help="comma-separated kept arm indices")),
        BITS)),
    "prior": (cmd_prior, "two-level prior for an information level", (
        ARMS, ("r_mech", dict(type=float, required=True)))),
    "sweep": (cmd_sweep, "sensitivity sweeps to CSV", (
        *CALIBRATION_FLAGS,
        ("param", dict(choices=cert.SWEEP_PARAMETERS), "exclusive"),
        ("min", dict(type=float)), ("max", dict(type=float)),
        ("steps", dict(type=int, help=f"grid points per axis (default {cert.GRID_STEPS} with "
                                      f"--grid, {cert.PARAM_STEPS} with --param)")),
        ("values", dict(type=_comma_list(float, "numbers"),
                        help="explicit comma-separated values")),
        ("grid", dict(nargs=2, metavar=("X", "Y"), choices=cert.SWEEP_PARAMETERS,
                      help="two parameters for a 2-D ratio grid"), "exclusive"),
        OUT)),
}


def __getattr__(name: str):
    """`cli.solve_prior_for_r_mech`, which loads `prior` on first access (PEP 562).

    `mechbench`'s tracer wraps that attribute by name, so it must resolve,
    although `cmd_prior` imports the function itself. It goes with ROADMAP
    item 9's benchmark refit.
    """
    if name == "solve_prior_for_r_mech":
        from .prior import solve_prior_for_r_mech
        return solve_prior_for_r_mech
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser(names=tuple(COMMANDS)) -> _Parser:
    """The parser with the subcommands `names` of COMMANDS, by default all six."""
    parser = _Parser(prog="mechcert",
                     description="Mechanistic-information certificates and "
                                 "calibrated dosing-bandit simulations.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        func, summary, flags = COMMANDS[name]
        p = subs.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key = value file of flag defaults")
        p.set_defaults(func=func)
        mode = None  # made with the first "exclusive" flag: argparse rejects an empty group
        for dest, kwargs, *exclusive in flags:
            if exclusive:
                mode = mode or p.add_mutually_exclusive_group()
            (mode if exclusive else p).add_argument(_flag(dest), **kwargs)
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
        sys.stdout.flush()  # so a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout early, as `grep -q` and `head` do: not an error.
        # Point stdout at devnull, as Python's signal docs advise, so that the
        # exit-time flush of what is left unwritten cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
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
