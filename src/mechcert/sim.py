"""Seeded Monte Carlo bandit engine for the calibrated dosing experiments.

Compares Thompson sampling with a hybrid (two-level) prior against
uninformed Thompson sampling and a fixed off-grid baseline dose, on an
environment with one arm at the optimal attainment probability and the
rest at the baseline attainment. Regret is pseudo-regret on means. The
baseline dose's regret is a constant and is computed in closed form.

Reproducibility contract. This is its one statement; README
"Reproducibility" lists the tests that pin each promise.

Blocks. Trials run in blocks of BLOCK_SIZE, a frozen constant: trial t is
row t % BLOCK_SIZE of block t // BLOCK_SIZE. Block b draws from two
streams, the environment and policy children of a SeedSequence with
entropy the master seed and spawn key (b,).

Environment. The environment stream (SFC64) draws the optimal arm of every
one of the block's BLOCK_SIZE trials, uniformly, then one uniform per
trial that places its recommended arm at an offset from the optimum drawn
from each level's prior (centred on arm 0): the same joint law of
(recommended, optimal) arms, and so the same mutual information, as
drawing the recommendation first. Every level of the block shares these
draws. A trial's recommended arm starts at its prior's recommended
pseudo-counts, every other arm at the rest's.

Rounds. Round t of block b is seeded as numpy's SFC64 seeds itself from
three words, here words 3(t-1) .. 3t - 1 of the policy child's
`generate_state(3n, uint64)`: the state [w0, w1, w2, 1] advanced twelve
steps. One `random` call then draws BLOCK_SIZE reward uniforms and
BLOCK_SIZE * k arm uniforms U, fixed amounts, of which a partial block's
rows use the first of each, and every level ranks its arms with the same
U. Each level then restarts from the state that call leaves and makes one
`standard_gamma` draw over the (alpha, beta) of its rows' arms whose two
shapes both exceed 1, row by row, giving G_a and G_b. Each arm's sample
is an exact Beta(a, b) draw, ranked by its log: log(U) / a when b = 1
(U^(1/a)), log(-expm1(log(U) / b)) when a = 1 (1 - U^(1/b)), else
-log1p(G_b / G_a) (G_a / (G_a + G_b)). The pulled arm has the largest
key, ties going to the lowest arm; its reward is a success when the row's
reward uniform is below its mean. The hybrid encoding starts every arm at
Beta(A, 1) or Beta(1, B), so most arms need no gamma draw.

What follows. A row's draws never depend on the rows after it, so the
last block simulates only the trials asked for. A trial's regret depends
only on (seed, trial index, prior strength, r_mech): never on the trial
count, the worker count, how blocks are grouped into kernel passes, the
execution order or the other levels of the table. A round makes the same
draws whatever the horizon, so a shorter horizon's regret is the longer
run's prefix. The environment draws the optimum before the
recommendation, so the path of a flat policy (every pseudo-count 1)
depends on neither the strength nor r_mech: uninformed Thompson sampling
is the level r_mech = 0, and at strength 0 every level is that level.
"""

from __future__ import annotations

import math
import os
import sys
from functools import partial
from typing import NamedTuple

import numpy as np

from .certificates import (DEFAULT_PRIOR_STRENGTH, HORIZON, K, checked_record, ratio, real,
                           residual_entropy, sample_complexity_ratio, whole)
from .prior import solve_prior_for_r_mech

# Two-sided normal quantile for a 96% confidence interval.
Z_96 = 2.0537

# Trials per random-stream block. Part of the reproducibility contract:
# changing it changes every simulated table.
BLOCK_SIZE = 256

# Most consecutive blocks that one kernel pass simulates. Not part of the
# reproducibility contract, since each block draws from its own streams in
# whatever pass it runs: it changes only the time and the memory.
PASS_BLOCKS = 4

# The calibrated 5-FU experiment (K arms, Table 1 HORIZON): attainment
# probability of the optimal arm and of the others, and the information
# levels of Table 1; Table 2 sweeps the horizon at one information level.
P_OPT = 0.85
P_BSA = 0.20
R_MECH_GRID = (0.0, 0.3, 0.8, 1.4, 1.9)
TABLE2_R_MECH = 1.9
TABLE2_HORIZONS = (5, 10, 20, 50, 200)


def build_environment(k: int, optimal: int, p_opt: float, p_bsa: float) -> np.ndarray:
    """The arm means of one environment: p_opt at `optimal`, p_bsa elsewhere.

    No table calls it; `mechbench/bench_trace.TRACED` wraps it by name, so it
    goes with ROADMAP item 9's benchmark refit.
    """
    k = whole("k", k, 2)
    if not 0.0 <= p_bsa < p_opt <= 1.0:
        raise ValueError(f"require 0 <= p_bsa < p_opt <= 1, got p_bsa={p_bsa}, p_opt={p_opt}")
    if whole("optimal", optimal, 0) >= k:
        raise ValueError(f"optimal arm {optimal} outside [0, {k})")
    return np.where(np.arange(k) == optimal, p_opt, p_bsa)


def _thompson_rounds(seqs, counts: np.ndarray, means: np.ndarray, horizons) -> np.ndarray:
    """Run Thompson sampling on every row of every level at once; the kernel of one pass.

    seqs holds one policy SeedSequence per block of the pass. counts is the
    C-contiguous (levels, rows, k, 2) array of initial pseudo-counts (alpha,
    beta), updated in place, whose rows are the blocks' rows in order, every
    block but the last full; means is the (rows, k) arm means, which every
    level shares. Arms rank by the log of their Beta sample, which keeps
    samples within 1e-16 of 1 apart. Returns the (levels, rows,
    len(horizons)) cumulative pseudo-regrets.
    """
    levels, rows, k, _ = counts.shape
    rng = np.random.Generator(np.random.SFC64(seqs[0]))
    gaps = (means.max(axis=1, keepdims=True) - means).ravel()
    means = means.ravel()
    # one flat index over (levels, rows, k), which wraps round the shared means
    arms = np.arange(levels * rows).reshape(levels, rows) * k
    # where each (level, block) segment of that index starts, in index order
    starts = arms[:, ::BLOCK_SIZE].ravel()
    alpha, beta = counts[..., 0], counts[..., 1]  # a success adds to alpha, a failure to beta
    n = max(horizons)
    words = np.ones((n, len(seqs), 4), np.uint64)
    for block, seq in enumerate(seqs):
        words[:, block, :3] = seq.generate_state(3 * n, np.uint64).reshape(n, 3)
    seed = {"bit_generator": "SFC64", "has_uint32": 0, "uinteger": 0}
    # per block the reward uniforms, then the arm uniforms
    uniforms = np.empty((len(seqs), BLOCK_SIZE * (1 + k)))
    # every round reuses the (levels, rows, k) scaled logs and keys
    scaled, keys = np.empty((2, levels, rows, k))
    regret = np.zeros((levels, rows))
    reached = {}
    # U = 0 samples Beta(a, 1) as 0, Beta(1, b) as 1; an overflowing gamma draw samples 1
    with np.errstate(over="ignore", divide="ignore"):
        for t, states in enumerate(words, 1):
            np.minimum(alpha, beta, out=keys)
            gamma_arms = np.flatnonzero(keys > 1)
            pairs = counts.reshape(-1, 2).take(gamma_arms, 0)
            g = np.empty_like(pairs)
            bounds = [*gamma_arms.searchsorted(starts).tolist(), len(pairs)]
            for block, state in enumerate(states):
                rng.bit_generator.state = {**seed, "state": {"state": state}}
                rng.bit_generator.random_raw(12)
                rng.random(out=uniforms[block])
                start = rng.bit_generator.state
                for segment in range(block, len(starts), len(seqs)):
                    if segment > block:
                        rng.bit_generator.state = start
                    lo, hi = bounds[segment], bounds[segment + 1]
                    rng.standard_gamma(pairs[lo:hi], out=g[lo:hi])
            # views when the pass is one block, copies otherwise
            drawn = uniforms[:, :BLOCK_SIZE].reshape(-1)[:rows]
            arm_drawn = uniforms[:, BLOCK_SIZE:].reshape(-1, k)[:rows]
            np.maximum(alpha, beta, out=scaled)  # the shape that is not 1
            np.divide(np.log(arm_drawn), scaled, out=scaled)
            np.negative(np.expm1(scaled, out=keys), out=keys)
            np.log(keys, out=keys)
            np.copyto(keys, scaled, where=beta == 1)
            np.put(keys, gamma_arms, -np.log1p(g[:, 1] / g[:, 0]))
            pulled = arms + keys.argmax(axis=2)  # ties go to the lowest arm
            regret += gaps.take(pulled, mode="wrap")
            counts.reshape(-1)[2 * pulled + (drawn >= means.take(pulled, mode="wrap"))] += 1
            if t in horizons:
                reached[t] = regret.copy()
    return np.stack([reached[t] for t in horizons], axis=-1)


def run_trial(policy: tuple, means: np.ndarray, n: int, rng: np.random.Generator) -> float:
    """Cumulative pseudo-regret of one trial of n rounds: the kernel on one
    level of one row, its rounds seeded from a seed drawn from rng.

    No table calls it; `mechbench/bench_trace.TRACED` wraps it by name, so it
    goes with ROADMAP item 9's benchmark refit.
    """
    n = whole("horizon", n, 1)
    counts = np.stack(policy, axis=-1)[None, None].astype(float)
    seq = np.random.SeedSequence(rng.integers(2**63))
    return float(_thompson_rounds((seq,), counts, means[None, :], (n,))[0, 0, 0])


class ExperimentConfig(checked_record("ExperimentConfig", "trials seed prior_strength workers")):
    __slots__ = ()

    def __new__(cls, trials: int = 10_000, seed: int = 0,
                prior_strength: float = DEFAULT_PRIOR_STRENGTH, workers: int = 1):
        # the pseudo-counts scale with strength * K, so its bound keeps that product finite
        return super().__new__(cls, whole("trials", trials, 1), whole("seed", seed, 0),
                               real("prior_strength", prior_strength, 0, sys.float_info.max / K),
                               whole("workers", workers, 1))


class RegretSummary(NamedTuple):
    mean: float
    ci: float  # 96% CI half-width


def _summarize(regrets: np.ndarray) -> RegretSummary:
    """Mean and 96% CI half-width; one trial bounds nothing, so its half-width is inf."""
    m = regrets.size
    half = Z_96 * float(np.std(regrets, ddof=1)) / math.sqrt(m) if m > 1 else math.inf
    return RegretSummary(mean=float(np.mean(regrets)), ci=half)


def _block_regrets(seed: int, strength: float, priors, horizons, first: int,
                   rows: int = BLOCK_SIZE) -> np.ndarray:
    """Regrets of the first `rows` trials from block `first` on under each
    prior, shape (len(priors), rows, len(horizons)): one kernel pass over the
    run of consecutive blocks those rows fill.
    """
    optimal, uniforms, policy_seqs = [], [], []
    for block in range(first, first - (-rows // BLOCK_SIZE)):
        env_seq, policy_seq = np.random.SeedSequence(entropy=seed, spawn_key=(block,)).spawn(2)
        env_rng = np.random.Generator(np.random.SFC64(env_seq))
        optimal.append(env_rng.integers(K, size=BLOCK_SIZE))
        uniforms.append(env_rng.random(BLOCK_SIZE))
        policy_seqs.append(policy_seq)
    optimal, uniforms = np.concatenate(optimal)[:rows], np.concatenate(uniforms)[:rows]
    arms = np.arange(K)
    means = np.where(arms == optimal[:, None], P_OPT, P_BSA)
    counts = np.empty((len(priors), rows, K, 2))
    for prior, cell in zip(priors, counts):
        offset = np.searchsorted(np.cumsum(prior.weights()), uniforms, side="right")
        recommended = (optimal - np.minimum(offset, K - 1)) % K
        rec, rest = prior.pseudo_counts(strength)
        is_recommended = (arms == recommended[:, None]).astype(np.intp)
        np.array((rest, rec)).take(is_recommended, axis=0, out=cell)
    return _thompson_rounds(policy_seqs, counts, means, horizons)


def regret_curves(config: ExperimentConfig, levels, horizons) -> np.ndarray:
    """Cumulative pseudo-regret of each trial of each level at each horizon.

    A level r_mech is Thompson sampling from the hybrid prior at scale
    config.prior_strength. Returns a (len(levels), config.trials,
    len(horizons)) array. Each level's prior is solved once and each distinct
    level simulated once; at strength 0 every level is one. The blocks are
    split into max(workers, blocks / PASS_BLOCKS rounded up) near-equal
    contiguous runs, one kernel pass each, mapped with workers > 1 over one
    process pool of at most the CPU count.
    """
    levels, horizons = tuple(levels), tuple(whole("horizon", n, 1) for n in horizons)
    if not (levels and horizons):
        raise ValueError(f"regret_curves needs at least one level and one horizon, "
                         f"got {len(levels)} and {len(horizons)}")
    blocks = -(-config.trials // BLOCK_SIZE)
    # one solve per level; it also rejects a bad level keyed to 0 at strength 0
    priors = {r: solve_prior_for_r_mech(K, r) for r in {0.0, *levels}}
    keys = [r if config.prior_strength else 0.0 for r in levels]
    distinct = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    job = partial(_block_regrets, config.seed, config.prior_strength,
                  tuple(priors[r] for r in distinct), horizons)
    workers = min(config.workers, blocks, os.cpu_count() or 1)
    runs = max(workers, -(-blocks // PASS_BLOCKS))
    # the first trial of each run, then the end of the last
    starts = [i * blocks // runs * BLOCK_SIZE for i in range(runs)] + [config.trials]
    firsts = [start // BLOCK_SIZE for start in starts[:-1]]
    rows = [end - start for start, end in zip(starts, starts[1:])]
    if workers == 1:
        parts = list(map(job, firsts, rows))
    else:
        # imported here so that the serial and closed-form paths skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, firsts, rows, chunksize=-(-runs // workers)))
    return np.concatenate(parts, axis=1)[[distinct[key] for key in keys]]


def run_monte_carlo(config: ExperimentConfig, algorithm: str, r_mech: float,
                    n: int = HORIZON) -> RegretSummary:
    """Mean cumulative pseudo-regret with a 96% CI over config.trials trials.

    `algorithm` is "hybrid" or "uninformed" (the hybrid encoding at
    strength 0, which still rejects an r_mech outside [0, ln K]). No table
    calls it; `mechbench/run.py` times it and `mechbench/bench_trace.TRACED`
    wraps it by name, so it goes with ROADMAP item 9's benchmark refit.
    """
    strengths = {"hybrid": config.prior_strength, "uninformed": 0.0}
    if algorithm not in strengths:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    config = config._replace(prior_strength=strengths[algorithm])
    return _summarize(regret_curves(config, [r_mech], (n,))[0, :, 0])


class Table1Row(NamedTuple):
    r_mech: float
    h_mech: float
    hyb: RegretSummary
    uninf: RegretSummary
    bsa: RegretSummary
    ratio_uninf_hyb: float
    lb_prediction: float
    ratio_bsa_hyb: float


class Table2Row(NamedTuple):
    n: int
    hyb: RegretSummary
    uninf: RegretSummary
    ratio: float


def table1_experiment(config: ExperimentConfig) -> list[Table1Row]:
    """Fixed horizon, sweep the information level of the hybrid prior."""
    hybs = list(map(_summarize, regret_curves(config, R_MECH_GRID, (HORIZON,))[:, :, 0]))
    uninf = hybs[R_MECH_GRID.index(0.0)]  # uninformed Thompson sampling is the level 0
    # the baseline dose has the regret HORIZON*(P_OPT - P_BSA) in every trial
    bsa = RegretSummary(HORIZON * (P_OPT - P_BSA), 0.0)
    h_mu = math.log(K)
    rows = []
    for r_mech, hyb in zip(R_MECH_GRID, hybs):
        h_mech = residual_entropy(h_mu, r_mech)
        rows.append(Table1Row(
            r_mech=r_mech, h_mech=h_mech, hyb=hyb, uninf=uninf, bsa=bsa,
            ratio_uninf_hyb=ratio(uninf.mean, hyb.mean),
            lb_prediction=math.sqrt(sample_complexity_ratio(h_mu, h_mech)),
            ratio_bsa_hyb=ratio(bsa.mean, hyb.mean),
        ))
    return rows


def table2_experiment(config: ExperimentConfig) -> list[Table2Row]:
    """Fixed information level, sweep the horizon.

    Every horizon is read off one run to the longest horizon, and both
    algorithms face the same optimal-arm draws within each trial index
    (shared environment streams).
    """
    hyb, uninf = regret_curves(config, (TABLE2_R_MECH, 0.0), TABLE2_HORIZONS)
    rows = []
    for col, n in enumerate(TABLE2_HORIZONS):
        h, u = _summarize(hyb[:, col]), _summarize(uninf[:, col])
        rows.append(Table2Row(n=n, hyb=h, uninf=u, ratio=ratio(u.mean, h.mean)))
    return rows
