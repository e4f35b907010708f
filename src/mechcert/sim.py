"""Seeded Monte Carlo bandit engine for the calibrated dosing experiments.

Compares Thompson sampling with a hybrid (two-level) prior against
uninformed Thompson sampling and a fixed off-grid baseline dose, on an
environment with one arm at the optimal attainment probability and the
rest at the baseline attainment. Regret is pseudo-regret on means.

Reproducibility contract: trials run in blocks of BLOCK_SIZE, a frozen
constant. Block b holds trials b*BLOCK_SIZE .. (b+1)*BLOCK_SIZE - 1 and
draws from its own counter-based Philox environment and policy streams,
keyed by (master seed, b). Whole blocks are always simulated and the
surplus rows dropped, so a trial's regret depends only on (seed, trial
index, prior strength, r_mech): never on the trial count, the worker
count or the execution order. Each Thompson round makes the same draws
whatever the horizon, so the regret at a shorter horizon is the prefix
of the longer run. The environment stream draws each trial's optimal arm
first and its recommended arm second, so the optimum, and with it the
path of a flat policy (every pseudo-count 1: strength 0, which is
uninformed Thompson sampling, or r_mech = 0), depends on neither the
strength nor r_mech. Every flat cell is therefore one cell, and each
distinct cell is simulated once: Table 1's uninformed column is one
estimate, and its hybrid cell at r_mech = 0 is that estimate bit for bit.
`regret_curves` solves each distinct information level's prior once.
The baseline dose is a constant and is computed in closed form.

This is the only module that imports numpy: the closed-form calculator
and the CLI's other commands run on the standard library alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .certificates import residual_entropy, sample_complexity_ratio
from .prior import DEFAULT_PRIOR_STRENGTH, TwoLevelPrior, solve_prior_for_r_mech
from .sweep import write_csv

# Two-sided normal quantile for a 96% confidence interval.
Z_96 = 2.0537

# Trials per random-stream block. Part of the reproducibility contract:
# changing it changes every simulated table.
BLOCK_SIZE = 256

# The calibrated 5-FU experiment: arms, Table 1 horizon, attainment
# probability of the optimal arm and of the others, and the information
# levels of Table 1; Table 2 sweeps the horizon at one information level.
K = 8
HORIZON = 12
P_OPT = 0.85
P_BSA = 0.20
R_MECH_GRID = (0.0, 0.3, 0.8, 1.4, 1.9)
TABLE2_R_MECH = 1.9
TABLE2_HORIZONS = (5, 10, 20, 50, 200)


def _arm_means(k: int, optimal, p_opt: float, p_bsa: float) -> np.ndarray:
    """Arm means with p_opt at `optimal` (an int or an array of rows), p_bsa elsewhere."""
    return np.where(np.arange(k) == np.asarray(optimal)[..., None], p_opt, p_bsa)


def build_environment(k: int, optimal: int, p_opt: float, p_bsa: float) -> np.ndarray:
    """The arm means of one environment: p_opt at `optimal`, p_bsa elsewhere."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 0.0 <= p_bsa < p_opt <= 1.0:
        raise ValueError(f"require 0 <= p_bsa < p_opt <= 1, got p_bsa={p_bsa}, p_opt={p_opt}")
    if not 0 <= optimal < k:
        raise ValueError(f"optimal arm {optimal} outside [0, {k})")
    return _arm_means(k, optimal, p_opt, p_bsa)


def hybrid_policy(prior: TwoLevelPrior, strength: float = DEFAULT_PRIOR_STRENGTH) -> tuple:
    """Encode the two-level prior as Beta pseudo-counts (alpha0, beta0).

    Arm j starts at Beta(1 + s*k*max(w_j - 1/k, 0), 1 + s*k*max(1/k - w_j, 0)),
    which is exactly Beta(1, 1) everywhere for the uniform prior or s = 0:
    uninformed Thompson sampling is this encoding at strength 0.
    """
    w = np.asarray(prior.weights())
    k = prior.k
    excess = np.maximum(w - 1.0 / k, 0.0)
    deficit = np.maximum(1.0 / k - w, 0.0)
    return 1.0 + strength * k * excess, 1.0 + strength * k * deficit


def _thompson_rounds(alpha: np.ndarray, beta: np.ndarray, means: np.ndarray, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Run n rounds of Thompson sampling on every row at once; the block kernel.

    alpha, beta and means are (rows, k) arrays; alpha and beta are the
    initial pseudo-counts. Each round makes one `beta` draw over all rows
    and one uniform draw per row. Returns the cumulative pseudo-regret of
    every row after each round t = 0..n, shape (rows, n + 1).
    """
    rows, k = means.shape
    gaps = (means.max(axis=1, keepdims=True) - means).ravel()
    means = means.ravel()
    alpha = np.array(alpha, dtype=float)
    beta = np.array(beta, dtype=float)
    alpha_flat = alpha.reshape(-1)  # views: updates reach the arrays `beta` draws from
    beta_flat = beta.reshape(-1)
    base = np.arange(rows) * k
    path = np.zeros((rows, n + 1))
    for t in range(1, n + 1):
        pulled = base + rng.beta(alpha, beta).argmax(axis=1)  # ties go to the lowest arm
        path[:, t] = path[:, t - 1] + gaps[pulled]
        success = rng.random(rows) < means[pulled]
        alpha_flat[pulled] += success
        beta_flat[pulled] += ~success
    return path


def run_trial(policy: tuple, means: np.ndarray, n: int, rng: np.random.Generator) -> float:
    """Cumulative pseudo-regret of one trial of n rounds: the block kernel on one row."""
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    alpha0, beta0 = policy
    return float(_thompson_rounds(alpha0[None, :], beta0[None, :], means[None, :], n, rng)[0, n])


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 10_000
    seed: int = 0
    prior_strength: float = DEFAULT_PRIOR_STRENGTH
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the pseudo-counts scale with strength * K, which must stay finite too
        if not (math.isfinite(self.prior_strength * K) and self.prior_strength >= 0):
            raise ValueError(f"prior_strength must be finite and non-negative, "
                             f"got {self.prior_strength}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class RegretSummary:
    mean: float
    ci96_halfwidth: float


def _summarize(regrets: np.ndarray) -> RegretSummary:
    """Mean and 96% CI half-width; one trial bounds nothing, so its half-width is inf."""
    m = regrets.size
    half = Z_96 * float(np.std(regrets, ddof=1)) / math.sqrt(m) if m > 1 else math.inf
    return RegretSummary(mean=float(np.mean(regrets)), ci96_halfwidth=half)


def _block_regrets(seed: int, strength: float, prior: TwoLevelPrior, horizons,
                   block: int) -> np.ndarray:
    """Regrets of the BLOCK_SIZE trials of one block, shape (BLOCK_SIZE, len(horizons)).

    The environment stream draws each trial's optimal arm uniformly, then
    its recommended arm at an offset drawn from `prior` (centred on arm 0),
    which gives the same joint law as drawing the recommendation first.
    The policy stream drives the Thompson rounds. Both are keyed by (seed,
    block) only, so every cell of a block faces the same optimal arms.
    """
    env_seq, policy_seq = np.random.SeedSequence(entropy=seed, spawn_key=(block,)).spawn(2)
    env_rng = np.random.Generator(np.random.Philox(env_seq))
    optimal = env_rng.integers(K, size=BLOCK_SIZE)
    offset = np.searchsorted(np.cumsum(prior.weights()), env_rng.random(BLOCK_SIZE),
                             side="right")
    recommended = (optimal - np.minimum(offset, K - 1)) % K
    alpha0, beta0 = hybrid_policy(prior, strength)
    # row i takes the arm-0-centred pseudo-counts rotated to its recommended arm
    rotation = (np.arange(K) - recommended[:, None]) % K
    policy_rng = np.random.Generator(np.random.Philox(policy_seq))
    return _thompson_rounds(alpha0[rotation], beta0[rotation], _arm_means(K, optimal, P_OPT, P_BSA),
                            max(horizons), policy_rng)[:, list(horizons)]


def regret_curves(config: ExperimentConfig, cells, horizons) -> np.ndarray:
    """Cumulative pseudo-regret of each trial of each cell at each horizon.

    A cell is a (strength, r_mech) pair: Thompson sampling from the hybrid
    prior at pseudo-count scale `strength` (0 is uninformed) on information
    level r_mech. Returns a (len(cells), config.trials, len(horizons))
    array. Trial t is row t % BLOCK_SIZE of block t // BLOCK_SIZE. A flat
    policy (strength 0 or r_mech 0) follows the same path at every r_mech,
    so all flat cells are keyed (0, 0), and each distinct key is simulated
    once and copied to its cells. Every (key, block) pair is one job; with
    workers > 1 the jobs are split into contiguous chunks over one process
    pool of at most the CPU count, which changes nothing but the wall time.
    """
    blocks = -(-config.trials // BLOCK_SIZE)
    horizons = tuple(horizons)
    if min(horizons) < 1:
        raise ValueError(f"horizon must be >= 1, got {min(horizons)}")
    # one solve per level; it also rejects a bad r_mech in a merged flat cell
    priors = {r: solve_prior_for_r_mech(K, r) for r in {0.0, *(r for _, r in cells)}}
    keys = [(0.0, 0.0) if strength == 0 or r_mech == 0 else (strength, r_mech)
            for strength, r_mech in cells]
    distinct = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    jobs = [(config.seed, strength, priors[r_mech], horizons, b)
            for strength, r_mech in distinct for b in range(blocks)]
    workers = min(config.workers, len(jobs), os.cpu_count() or 1)
    if workers == 1:
        parts = list(map(_block_regrets, *zip(*jobs)))
    else:
        # imported here so that the serial and closed-form paths skip multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_block_regrets, *zip(*jobs),
                                  chunksize=-(-len(jobs) // workers)))
    curves = np.stack(parts).reshape(len(distinct), blocks * BLOCK_SIZE, len(horizons))
    return curves[[distinct[key] for key in keys], :config.trials]


def run_monte_carlo(config: ExperimentConfig, algorithm: str, r_mech: float,
                    n: int = HORIZON) -> RegretSummary:
    """Mean cumulative pseudo-regret with a 96% CI over config.trials trials.

    `algorithm` is "hybrid" or "uninformed" (the hybrid encoding at
    strength 0).
    """
    strengths = {"hybrid": config.prior_strength, "uninformed": 0.0}
    if algorithm not in strengths:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return _summarize(regret_curves(config, [(strengths[algorithm], r_mech)], (n,))[0, :, 0])


TABLE1_HEADER = ("r_mech,h_mech,hyb_mean,hyb_ci,uninf_mean,uninf_ci,"
                 "bsa_mean,bsa_ci,ratio_uninf_hyb,lb_prediction,ratio_bsa_hyb")
TABLE2_HEADER = "n,hyb_mean,hyb_ci,uninf_mean,uninf_ci,ratio"


@dataclass(frozen=True)
class Table1Row:
    r_mech: float
    h_mech: float
    hyb: RegretSummary
    uninf: RegretSummary
    bsa: RegretSummary
    ratio_uninf_hyb: float
    lb_prediction: float
    ratio_bsa_hyb: float


@dataclass(frozen=True)
class Table2Row:
    n: int
    hyb: RegretSummary
    uninf: RegretSummary
    ratio: float


def table1_experiment(config: ExperimentConfig) -> list[Table1Row]:
    """Fixed horizon, sweep the information level of the hybrid prior."""
    cells = [(strength, r_mech) for r_mech in R_MECH_GRID
             for strength in (config.prior_strength, 0.0)]
    curves = regret_curves(config, cells, (HORIZON,)).reshape(len(R_MECH_GRID), 2, -1)
    # the baseline dose has the regret HORIZON*(P_OPT - P_BSA) in every trial
    bsa = RegretSummary(HORIZON * (P_OPT - P_BSA), 0.0)
    h_mu = math.log(K)
    rows = []
    for r_mech, (hyb_regrets, uninf_regrets) in zip(R_MECH_GRID, curves):
        h_mech = residual_entropy(h_mu, r_mech)
        hyb, uninf = _summarize(hyb_regrets), _summarize(uninf_regrets)
        rows.append(Table1Row(
            r_mech=r_mech, h_mech=h_mech, hyb=hyb, uninf=uninf, bsa=bsa,
            ratio_uninf_hyb=uninf.mean / hyb.mean if hyb.mean > 0 else math.inf,
            lb_prediction=math.sqrt(sample_complexity_ratio(h_mu, h_mech)),
            ratio_bsa_hyb=bsa.mean / hyb.mean if hyb.mean > 0 else math.inf,
        ))
    return rows


def table2_experiment(config: ExperimentConfig) -> list[Table2Row]:
    """Fixed information level, sweep the horizon.

    Every horizon is read off one run to the longest horizon, and both
    algorithms face the same optimal-arm draws within each trial index
    (shared environment streams).
    """
    hyb, uninf = regret_curves(config, [(config.prior_strength, TABLE2_R_MECH),
                                        (0.0, TABLE2_R_MECH)], TABLE2_HORIZONS)
    rows = []
    for col, n in enumerate(TABLE2_HORIZONS):
        h, u = _summarize(hyb[:, col]), _summarize(uninf[:, col])
        rows.append(Table2Row(n=n, hyb=h, uninf=u,
                              ratio=u.mean / h.mean if h.mean > 0 else math.inf))
    return rows


def write_table1_csv(rows: list[Table1Row], path) -> str:
    return write_csv(path, TABLE1_HEADER, (
        (r.r_mech, r.h_mech, r.hyb.mean, r.hyb.ci96_halfwidth, r.uninf.mean,
         r.uninf.ci96_halfwidth, r.bsa.mean, r.bsa.ci96_halfwidth,
         r.ratio_uninf_hyb, r.lb_prediction, r.ratio_bsa_hyb) for r in rows))


def write_table2_csv(rows: list[Table2Row], path) -> str:
    return write_csv(path, TABLE2_HEADER, ((r.n, r.hyb.mean, r.hyb.ci96_halfwidth, r.uninf.mean,
                                            r.uninf.ci96_halfwidth, r.ratio) for r in rows))
