"""Two-level hybrid priors and discrete information measures.

The hybrid prior places mass beta on the model-recommended arm and
equal mass alpha on every other arm. Its entropy is strictly
decreasing and concave in beta on [1/k, 1], with the closed-form
derivative ln((1 - beta) / ((k - 1) * beta)), so the prior matching a
requested information level is found by Newton steps kept inside a
shrinking bisection bracket rather than a black-box search. Joint
distributions over (optimal arm, recommended arm) are plain k x k
probability tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "TwoLevelPrior",
    "JointDistribution",
    "two_level_entropy",
    "solve_prior_for_r_mech",
    "two_level_channel",
    "joint_from_channel",
    "mutual_information",
    "conditional_entropy",
    "kl_divergence",
]


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0*ln(0) = 0 convention."""
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


@dataclass(frozen=True)
class TwoLevelPrior:
    """Mass beta on the recommended arm, alpha on each of the others.

    The recommended arm is arm 0; the simulation rotates the weights to
    each trial's recommended arm.
    """

    k: int
    beta: float

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not 1.0 / self.k - 1e-12 <= self.beta <= 1.0 + 1e-12:
            raise ValueError(f"beta must lie in [1/k, 1], got {self.beta}")

    @property
    def alpha(self) -> float:
        return (1.0 - self.beta) / (self.k - 1)

    def weights(self) -> np.ndarray:
        w = np.full(self.k, self.alpha)
        w[0] = self.beta
        return w

    def entropy(self) -> float:
        return two_level_entropy(self.k, self.beta)


def two_level_entropy(k: int, beta: float) -> float:
    """Entropy of the two-level prior, in nats; 0 at beta = 1."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 1.0 / k - 1e-12 <= beta <= 1.0 + 1e-12:
        raise ValueError(f"beta must lie in [1/k, 1], got {beta}")
    if beta >= 1.0:
        return 0.0
    rest = 1.0 - beta
    return -beta * math.log(beta) - rest * math.log(rest / (k - 1))


def solve_prior_for_r_mech(k: int, r_mech: float) -> TwoLevelPrior:
    """Two-level prior whose entropy equals ln k - r_mech.

    Exploits strict monotone decrease of the entropy in beta; the
    endpoints r_mech = 0 and r_mech = ln k short-circuit to the exact
    uniform and point-mass priors.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    h_max = math.log(k)
    if not 0.0 <= r_mech <= h_max + 1e-12:
        raise ValueError(f"r_mech must lie in [0, ln k] = [0, {h_max:.6g}], got {r_mech}")
    if r_mech <= 0.0:
        return TwoLevelPrior(k=k, beta=1.0 / k)
    if r_mech >= h_max - 1e-15:
        return TwoLevelPrior(k=k, beta=1.0)
    return TwoLevelPrior(k=k, beta=_solve_beta(k, r_mech))


@lru_cache(maxsize=1024)
def _solve_beta(k: int, r_mech: float) -> float:
    """Root of two_level_entropy(k, b) = ln k - r_mech for b in [1/k, 1 - 1e-15].

    Safeguarded Newton: every iterate stays inside a bracket [lo, hi] around
    the root that shrinks with each evaluation, and a step that would leave
    it, or a zero slope, falls back to bisection.
    """
    target = math.log(k) - r_mech
    lo, hi = 1.0 / k, 1.0 - 1e-15
    b = 0.5 * (lo + hi)
    for _ in range(100):  # bisection alone reaches one ulp in about 55 steps
        g = two_level_entropy(k, b) - target
        if g > 0.0:
            lo = b
        elif g < 0.0:
            hi = b
        else:
            return b
        slope = math.log((1.0 - b) / ((k - 1) * b))  # 0 only where b rounds to 1/k
        nxt = b - g / slope if slope < 0.0 else lo
        if abs(nxt - b) <= 2.0 * math.ulp(b):
            return nxt
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        b = nxt
    return b


@dataclass(frozen=True)
class JointDistribution:
    """k x k probability table, entry (i, j) = P(optimal=i, recommended=j)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"probs must be a square matrix, got shape {p.shape}")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {p.sum()}")
        object.__setattr__(self, "probs", p)

    @property
    def k(self) -> int:
        return self.probs.shape[0]

    def row_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    @classmethod
    def from_csv(cls, path) -> "JointDistribution":
        """k on the first line, then k rows of k probabilities."""
        with open(path) as fh:
            k = int(fh.readline().strip())
            rows = [
                [float(x) for x in line.strip().split(",")]
                for line in fh
                if line.strip()
            ]
        probs = np.array(rows, dtype=float)
        if probs.shape != (k, k):
            raise ValueError(f"expected a {k}x{k} table, got shape {probs.shape}")
        return cls(probs=probs)


def two_level_channel(k: int, beta: float) -> np.ndarray:
    """Symmetric conditional P(recommended=j | optimal=i): beta on the diagonal."""
    alpha = (1.0 - beta) / (k - 1)
    cond = np.full((k, k), alpha)
    np.fill_diagonal(cond, beta)
    return cond


def joint_from_channel(marginal: np.ndarray, conditional: np.ndarray) -> JointDistribution:
    """Joint table from a row marginal and a row-stochastic conditional."""
    marginal = np.asarray(marginal, dtype=float)
    return JointDistribution(probs=marginal[:, None] * conditional)


def mutual_information(j: JointDistribution) -> float:
    """I(row; col) in nats, always >= 0."""
    p = j.probs
    outer = np.outer(j.row_marginal(), j.col_marginal())
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / outer[mask])))


def conditional_entropy(j: JointDistribution) -> float:
    """H(col | row) = H(joint) - H(row marginal), in nats."""
    return _entropy(j.probs.ravel()) - _entropy(j.row_marginal())


def kl_divergence(p: JointDistribution, q: JointDistribution) -> float:
    """D_KL(p || q) in nats; math.inf on a support violation."""
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    pp, qq = p.probs, q.probs
    if np.any((qq == 0) & (pp > 0)):
        return math.inf
    mask = pp > 0
    return float(np.sum(pp[mask] * np.log(pp[mask] / qq[mask])))
