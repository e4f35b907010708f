"""Benchmark of the mechcert package: Monte Carlo tables and closed-form CLI calls.

Usage, from the repository root:

    python3 mechbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one call after another, one process plus at most
two pool workers; sizes and reasons are in mechbench/plan.json):

  table1           `simulate --table 1` through mechcert.cli.main, in-process
  table2           `simulate --table 2` through mechcert.cli.main, in-process
  cli_closed_form  fresh-process calls of certify, prior, burnin, shift and
                   a 60 x 60 sweep grid, with inputs drawn from the seed

`--trace 0` times the workload untraced for `--seconds` and reports the
end-to-end metrics. `--trace 1` runs the per-layer measurements, then
alternates untraced and traced iterations of the workload for `--seconds`
and reports the per-layer metrics, the self time of every traced span
and the tracing overhead. Every output is checked (see bench_checks.py);
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Scratch files go to .bench_build/mechbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "mechbench"
PLAN = json.loads((HERE / "plan.json").read_text())

sys.path.insert(0, str(HERE))
import bench_checks as checks  # noqa: E402
from bench_clock import Scaler, pinned  # noqa: E402
from bench_trace import Tracer  # noqa: E402

WORKLOADS = tuple(PLAN["workloads"])
SIM_WORKLOADS = ("table1", "table2")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "trials_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.mechcert_s": "s", "import.scipy_optimize_s": "s",
    "cli.certify_ms": "ms", "cli.prior_ms": "ms", "cli.burnin_ms": "ms",
    "cli.shift_ms": "ms", "cli.sweep_grid_ms": "ms", "cli.simulate_overhead_ms": "ms",
    "certificates.report_us": "us", "prior.solve_us": "us", "prior.solve_cached_us": "us",
    "sweep.grid2d_s": "s", "sim.trial_setup_us": "us", "sim.round_us": "us",
    "sim.cell_s.hybrid": "s", "sim.cell_s.uninformed": "s", "sim.cell_s.bsa": "s",
    "sim.bsa_share": "fraction", "sim.setup_share": "fraction",
    "sim.pool_start_s": "s", "sim.parallel_efficiency": "fraction",
    "sim.time_to_ci_s": "s", "trace.overhead_frac": "fraction",
}
CLI_ENTRY = "import sys; from mechcert.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_PROBE = (
    "import sys\n"
    "import mechcert\n"
    "from mechcert import cli, sim\n"
    "args = cli.build_parser().parse_args(sys.argv[1:])\n"
    "if args.command == 'simulate':\n"
    "    sim.ExperimentConfig(trials=args.trials, seed=args.seed, workers=args.workers)\n"
)
CALL_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (no package, or it cannot start)."""


def sub_seed(seed: int, i: int) -> int:
    """Master seed of iteration i; iteration 0 repeats the warm-up call."""
    return seed * 1_000_000 + i


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def import_package() -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"mechcert.{name}")
            for name in ("cli", "sim", "prior", "certificates", "sweep")}


class Tally:
    """Operations attempted and failed: table cells, or single calls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int, reasons=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)


# ---------------------------------------------------------------------------
# Simulation tables


class SimCall:
    """One `simulate` call through cli.main, timed around the call only."""

    def __init__(self, cli, table: int, trials: int, seed: int, workers: int, outdir: Path):
        csv_path = outdir / f"table{table}.csv"
        csv_path.unlink(missing_ok=True)
        argv = ["simulate", "--table", str(table), "--trials", str(trials),
                "--seed", str(seed), "--workers", str(workers), "--out", str(outdir)]
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                self.rc = cli.main(argv)
        except Exception:  # a crashing call is a counted failure, not the end of the run
            traceback.print_exc()
            self.rc = None
        self.wall = perf_counter() - start
        self.table = table
        self.stdout = buf.getvalue()
        self.csv = csv_path.read_text() if csv_path.exists() else ""

    def check(self) -> checks.TableCheck:
        fn = checks.check_table1 if self.table == 1 else checks.check_table2
        result = fn(self.csv, self.stdout)
        if self.rc != 0:
            result.fail(f"simulate exited with {self.rc}")
        return result

    def same_bytes(self, other: "SimCall") -> bool:
        return (self.csv, self.stdout) == (other.csv, other.stdout)


def tally_table(tally: Tally, result: checks.TableCheck) -> None:
    tally.add(len(result.cells), result.failed, result.reasons)


def timed_sim(name: str, seed: int, seconds: float, spec: dict, outdir: Path,
              clock: Scaler) -> tuple:
    m = import_package()
    table, trials = spec["table"], spec["trials"]
    tally = Tally()
    warm = SimCall(m["cli"], table, trials, sub_seed(seed, 0), 1, outdir)
    warm_result = warm.check()
    tally_table(tally, warm_result)
    cells = len(warm_result.cells)
    calls, results, walls = [], [], []
    deadline = perf_counter() + seconds
    while not calls or perf_counter() < deadline:
        call, factor = clock.call(lambda: SimCall(m["cli"], table, trials,
                                                  sub_seed(seed, len(calls)), 1, outdir))
        calls.append(call)
        results.append(call.check())
        walls.append(call.wall * factor)
    if not calls[0].same_bytes(warm):
        results[0].fail("a repeated run is not byte-identical")
    if table == 1:
        pooled = SimCall(m["cli"], table, trials, sub_seed(seed, 0), 2, outdir)
        pooled_result = pooled.check()
        if not pooled.same_bytes(calls[0]):
            pooled_result.fail("--workers 2 output differs from --workers 1")
        tally_table(tally, pooled_result)
    for result in results:
        tally_table(tally, result)

    wall = statistics.median(walls)
    metrics = {"wall_s": wall, "trials_per_s": cells * trials / wall}
    notes = {"iterations": len(calls), "cells_per_iteration": cells,
             "raw_wall_s": statistics.median(c.wall for c in calls)}
    return metrics, [w * 1e3 for w in walls], tally, notes


# ---------------------------------------------------------------------------
# Closed-form CLI calls


def run_fresh(argv: list) -> tuple:
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, perf_counter() - start, "", f"killed after {CALL_TIMEOUT_S} s"
    return proc.returncode, perf_counter() - start, proc.stdout, proc.stderr


def run_inprocess(cli, argv: list) -> tuple:
    buf = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crashing call is a counted failure, not the end of the run
        rc, err = None, traceback.format_exc()
    else:
        err = ""
    return rc, perf_counter() - start, buf.getvalue(), err


def cli_round(rng: random.Random, outdir: Path, tally: Tally, runner) -> list:
    """Run the five closed-form commands once; returns their latencies."""
    latencies = []
    for name, argv, check in checks.cli_round(rng, str(outdir)):
        csv_path = outdir / "sweep2d.csv"
        csv_path.unlink(missing_ok=True)
        rc, wall, out, err = runner(argv)
        latencies.append(wall)
        if rc != 0:
            problems = [f"exit {rc}: {err.strip()[-300:]}"]
        else:
            problems = check(out, csv_path.read_text() if csv_path.exists() else "")
        tally.add(1, bool(problems), [f"{name} {' '.join(argv)}: {p}" for p in problems])
    return latencies


def timed_cli(seed: int, seconds: float, outdir: Path, clock: Scaler) -> tuple:
    def scaled_fresh(argv):
        (rc, wall, out, err), factor = clock.call(lambda: run_fresh(argv))
        raw.append(wall)
        return rc, wall * factor, out, err

    rng = random.Random(seed)
    tally = Tally()
    rounds, latencies, raw = [], [], []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        lat = cli_round(rng, outdir, tally, scaled_fresh)
        rounds.append(sum(lat))
        latencies.extend(lat)
    wall = statistics.median(rounds)
    calls_per_round = len(latencies) // len(rounds)
    # No trial runs here: each closed-form call counts as one item.
    metrics = {"wall_s": wall, "trials_per_s": calls_per_round / wall}
    notes = {"iterations": len(rounds), "calls_per_iteration": calls_per_round,
             "raw_latency_p50_ms": statistics.median(raw) * 1e3}
    return metrics, [x * 1e3 for x in latencies], tally, notes


# ---------------------------------------------------------------------------
# Shared measurements


def measure_setup(argv: list, repeats: int, clock: Scaler) -> float:
    """Median time of a fresh interpreter that imports mechcert and builds the config."""
    def probe():
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, *argv], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        return perf_counter() - start

    times = []
    for _ in range(repeats):
        seconds, factor = clock.call(probe)
        times.append(seconds * factor)
    return statistics.median(times)


def tail(samples: list) -> tuple:
    """(value, percentile, count): the highest percentile with ten samples beyond it.

    Below 21 samples that percentile is at or under the median, and the
    upper median is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(n - 11, n // 2)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def workload_argv(name: str, seed: int) -> list:
    spec = PLAN["workloads"][name]
    if name in SIM_WORKLOADS:
        return ["simulate", "--table", str(spec["table"]), "--trials", str(spec["trials"]),
                "--seed", str(sub_seed(seed, 0)), "--workers", "1"]
    return ["certify"]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def dist_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def manifest(name: str, seed: int, seconds: float, trace: int, notes: dict) -> dict:
    spec = PLAN["workloads"][name]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "trials": spec.get("trials"), **notes,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": dist_version("numpy"), "scipy": dist_version("scipy"),
        "platform": platform.platform(), "git_revision": git_revision(),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def per_call_s(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time of one call."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return statistics.median(times)


def import_times(repeats: int = 3) -> dict:
    """Cumulative import time of mechcert and scipy.optimize from -X importtime."""
    found: dict = {"mechcert": [], "scipy.optimize": []}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mechcert"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import mechcert failed:\n{proc.stderr[-2000:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    # Absent once scipy is no longer imported.
    return {"import.mechcert_s": statistics.median(found["mechcert"]),
            "import.scipy_optimize_s": statistics.median(found["scipy.optimize"] or [0.0])}


def cli_layers(m: dict, seed: int, outdir: Path, tally: Tally) -> dict:
    """In-process cli.main time per command, after import."""
    out = {}
    commands = checks.cli_round(random.Random(seed), str(outdir))
    for name, argv, _check in commands:
        calls = 5 if name == "sweep_grid" else 20
        times = []
        for _ in range(calls):
            rc, wall, _out, err = run_inprocess(m["cli"], argv)
            times.append(wall)
            tally.add(1, rc != 0, [f"{name}: exit {rc} {err[-300:]}"] if rc != 0 else [])
        out[f"cli.{name}_ms"] = statistics.median(times) * 1e3
    return out


def simulate_overhead_ms(m: dict, seed: int, outdir: Path, tally: Tally) -> float:
    """cmd_simulate time outside table1_experiment: parsing, CSV and stdout."""
    sim = m["sim"]
    original = sim.table1_experiment
    inner: list = []

    def timed(config):
        start = perf_counter()
        try:
            return original(config)
        finally:
            inner.append(perf_counter() - start)

    overheads = []
    sim.table1_experiment = timed
    try:
        for i in range(5):
            call = SimCall(m["cli"], 1, 20, sub_seed(seed, i), 1, outdir)
            tally.add(1, call.rc != 0, [f"simulate exited with {call.rc}"] if call.rc else [])
            overheads.append(call.wall - inner[-1])
    finally:
        sim.table1_experiment = original
    return statistics.median(overheads) * 1e3


def sim_layers(m: dict, seed: int) -> dict:
    """Trial setup and round cost from run_monte_carlo times over the Table 2 horizons.

    Least squares of per-trial time against n: the intercept is the
    per-trial setup and the slope the cost of one Thompson round. A fit
    turns drift between its points into a large intercept error, so the
    horizons are visited in turn and every time is scaled (bench_clock).
    """
    sim = m["sim"]
    trials = PLAN["layer_fit_trials"]
    config = sim.ExperimentConfig(trials=trials, seed=sub_seed(seed, 0))
    clock = Scaler(PLAN["calibration_reference_s"])

    def cell(n: int) -> float:
        start = perf_counter()
        for alg in checks.TABLE2_ALGS:
            sim.run_monte_carlo(config, alg, 1.9, n=n)
        return (perf_counter() - start) / (trials * len(checks.TABLE2_ALGS))

    samples: dict = {n: [] for n in checks.N_GRID}
    with pinned():
        for _ in range(5):
            for n in checks.N_GRID:
                seconds, factor = clock.call(lambda: cell(n))
                samples[n].append(seconds * factor)
    per_trial = [statistics.median(samples[n]) for n in checks.N_GRID]
    ns = checks.N_GRID
    n_mean, t_mean = statistics.fmean(ns), statistics.fmean(per_trial)
    slope = (sum((n - n_mean) * (t - t_mean) for n, t in zip(ns, per_trial))
             / sum((n - n_mean) ** 2 for n in ns))
    pooled = sim.ExperimentConfig(trials=2, seed=sub_seed(seed, 0), workers=2)
    serial = sim.ExperimentConfig(trials=2, seed=sub_seed(seed, 0), workers=1)
    t_pool = per_call_s(lambda: sim.run_monte_carlo(pooled, "hybrid", 1.9), 1)
    t_serial = per_call_s(lambda: sim.run_monte_carlo(serial, "hybrid", 1.9), 1)
    return {"sim.trial_setup_us": (t_mean - slope * n_mean) * 1e6,
            "sim.round_us": slope * 1e6,
            "sim.pool_start_s": t_pool - t_serial}


def table1_layers(m: dict, seed: int, outdir: Path, tally: Tally) -> dict:
    """Per-cell times and shares from one traced serial Table 1 call, and
    parallel efficiency and time to the CI target from untraced calls.

    time_to_ci_s = wall x (widest Thompson-cell CI96 half-width / target)^2,
    the time to reach the target accuracy at the measured cost and variance.
    """
    trials = PLAN["workloads"]["table1"]["trials"]
    tracer = Tracer()
    with tracer.installed(m):
        call = SimCall(m["cli"], 1, trials, sub_seed(seed, 0), 1, outdir)
    tally_table(tally, call.check())
    wall = tracer.total("cli.main")
    by_alg: dict = {}
    for alg, seconds in tracer.cell_times():
        by_alg.setdefault(alg, []).append(seconds)
    setup = tracer.total("sim.run_monte_carlo") - tracer.total("sim.run_trial")
    widest = max(checks.thompson_halfwidths(call.csv, 1).values(), default=0.0)
    serial, pooled = [], []
    for _ in range(2):
        for workers, walls in ((1, serial), (2, pooled)):
            run = SimCall(m["cli"], 1, trials, sub_seed(seed, 0), workers, outdir)
            result = run.check()
            if not run.same_bytes(call):
                result.fail(f"--workers {workers} output differs from the traced serial call")
            tally_table(tally, result)
            walls.append(run.wall)
    out = {f"sim.cell_s.{alg}": statistics.median(by_alg.get(alg, [0.0]))
           for alg in checks.TABLE1_ALGS}
    out.update({
        "sim.bsa_share": sum(by_alg.get("bsa", [])) / wall,
        "sim.setup_share": setup / wall,
        "sim.parallel_efficiency": statistics.median(serial) / (2 * statistics.median(pooled)),
        "sim.time_to_ci_s": statistics.median(serial) * (widest / PLAN["time_to_ci_target"]) ** 2,
    })
    return out


def micro_layers(m: dict, seed: int) -> dict:
    cert, prior, sweep = m["certificates"], m["prior"], m["sweep"]
    params = cert.CalibrationParams.canonical(k=checks.K, n=checks.HORIZON, sigma=checks.SIGMA,
                                              kappa_mu=checks.KAPPA_MU, d_f=checks.D_F,
                                              b_mu=0.22)
    rng = random.Random(seed)
    fresh = iter([rng.uniform(0.05, 2.0) for _ in range(5 * 200)])
    x = sweep.SweepSpec("kappa_mu", sweep.linear_grid(0.6, 3.0, 60), params)
    y = sweep.SweepSpec("b_mu", sweep.linear_grid(0.10, 0.40, 60), params)
    return {
        "certificates.report_us": per_call_s(lambda: cert.certificate_report(params), 2000) * 1e6,
        # Distinct random levels, so every call misses the solver's cache.
        "prior.solve_us": per_call_s(lambda: prior.solve_prior_for_r_mech(8, next(fresh)),
                                     200) * 1e6,
        "prior.solve_cached_us": per_call_s(lambda: prior.solve_prior_for_r_mech(8, 1.9),
                                            2000) * 1e6,
        "sweep.grid2d_s": per_call_s(lambda: sweep.sweep_2d(x, y), 1, repeats=3),
    }


def traced_run(name: str, seed: int, seconds: float, outdir: Path) -> tuple:
    m = import_package()
    tally = Tally()
    metrics = import_times()
    metrics.update(cli_layers(m, seed, outdir, tally))
    metrics["cli.simulate_overhead_ms"] = simulate_overhead_ms(m, seed, outdir, tally)
    metrics.update(micro_layers(m, seed))
    metrics.update(sim_layers(m, seed))
    metrics.update(table1_layers(m, seed, outdir, tally))

    # Alternate untraced and traced iterations of the workload itself,
    # with scaled times so that drift does not pass for tracing overhead.
    spec = PLAN["workloads"][name]
    rng = random.Random(seed)
    clock = Scaler(PLAN["calibration_reference_s"])
    walls: dict = {False: [], True: []}
    totals: dict = {}
    last = Tracer()
    i = 0
    deadline = perf_counter() + seconds
    while not walls[True] or perf_counter() < deadline:
        traced = i % 2 == 1
        tracer = Tracer()
        if name not in SIM_WORKLOADS:
            if i % 2 == 0:
                round_rng_state = rng.getstate()
            else:
                rng.setstate(round_rng_state)  # the traced round repeats the untraced inputs

        def iteration():
            with tracer.installed(m) if traced else contextlib.nullcontext():
                if name in SIM_WORKLOADS:
                    return SimCall(m["cli"], spec["table"], spec["trials"],
                                   sub_seed(seed, i // 2), 1, outdir)
                return cli_round(rng, outdir, tally, lambda a: run_inprocess(m["cli"], a))

        with pinned():
            result, factor = clock.call(iteration)
        if name in SIM_WORKLOADS:
            tally_table(tally, result.check())
            walls[traced].append(result.wall * factor)
        else:
            walls[traced].append(sum(result) * factor)
        if traced:
            for span, (calls, total, own) in tracer.self_times().items():
                c0, t0, s0 = totals.get(span, (0, 0.0, 0.0))
                totals[span] = (c0 + calls, t0 + total, s0 + own)
            last = tracer
        i += 1
    metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                      / statistics.median(walls[False]) - 1.0)
    spans_path = outdir.parent / f"spans-{name}-seed{seed}.json"
    last.write(spans_path)

    print(f"traced iterations: {len(walls[True])} traced, {len(walls[False])} untraced, serial "
          f"only: spans from pool workers are not collected, so no traced run uses --workers 2")
    print(f"tracing overhead: traced median {statistics.median(walls[True]):.6g} s vs untraced "
          f"{statistics.median(walls[False]):.6g} s, scaled ({metrics['trace.overhead_frac']:+.2%})")
    print("self time per span over all traced iterations (calls, total s, self s, self share):")
    grand = sum(own for _c, _t, own in totals.values()) or 1.0
    for span, (calls, total, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print(f"  {span:34s} {calls:9d} {total:11.6f} {own:11.6f} {own / grand:7.2%}")
    print(f"spans of the last traced iteration written to {spans_path.relative_to(ROOT)}")
    notes = {"traced_iterations": len(walls[True]), "untraced_iterations": len(walls[False])}
    return metrics, tally, notes


# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    if not (SRC / "mechcert" / "__init__.py").is_file():
        raise BenchError(f"no mechcert package under {SRC}; run from a repository checkout")
    outdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        if trace:
            metrics, tally, notes = traced_run(name, seed, seconds, outdir)
            units = PER_LAYER_UNITS
        else:
            clock = Scaler(PLAN["calibration_reference_s"])
            with pinned():
                setup = measure_setup(workload_argv(name, seed), PLAN["setup_repeats"], clock)
                if name in SIM_WORKLOADS:
                    metrics, latencies, tally, notes = timed_sim(
                        name, seed, seconds, PLAN["workloads"][name], outdir, clock)
                else:
                    metrics, latencies, tally, notes = timed_cli(seed, seconds, outdir, clock)
            notes["speed_factor_median"] = statistics.median(clock.factors)
            tail_ms, pct, count = tail(latencies)
            metrics.update({"setup_s": setup,
                            "latency_p50_ms": statistics.median(latencies),
                            "latency_tail_ms": tail_ms,
                            "peak_rss_mb": peak_rss_mb()})
            notes.update({"latency_samples": count, "latency_tail_percentile": pct})
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    info = manifest(name, seed, seconds, trace, notes)
    for key in units:
        extra = ""
        if key == "latency_tail_ms":
            extra = (f"  (p{notes['latency_tail_percentile']:.1f} of "
                     f"{notes['latency_samples']} calls: the highest percentile with ten "
                     f"calls beyond it, and at least the upper median)")
        print(f"{key} = {metrics[key]:.6g} {units[key]}{extra}")
    if "speed_factor_median" in notes:
        raw = {k: v for k, v in notes.items() if k.startswith("raw_")}
        print(f"times are scaled to the reference machine speed (see bench_clock.py): median "
              f"factor {notes['speed_factor_median']:.4g}; unscaled {raw}")
    print(f"failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print("manifest " + json.dumps(info, sort_keys=True))
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    (WORK / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"manifest": info, "result": result}, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PLAN["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
