"""Burn-in lower bound for confident-but-wrong priors.

The bound prices the forced exploration an algorithm must spend to
overturn a prior that concentrates mass 1 - epsilon on the wrong arm,
via a sequential-testing argument. Pure arithmetic only; no simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BurnInParams:
    """epsilon: prior mass on the true optimum; delta: allowed failure
    probability of identification; gap: per-cycle sub-optimality cost."""

    epsilon: float
    delta: float
    gap: float
    k: int

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {self.delta}")
        if not (math.isfinite(self.gap) and self.gap >= 0):
            raise ValueError(f"gap must be finite and non-negative, got {self.gap}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")

    @property
    def assumption_violated(self) -> bool:
        """The bound's derivation assumes epsilon <= delta."""
        return self.epsilon > self.delta


@dataclass(frozen=True)
class BurnInResult:
    cycles: float
    effective_prior_weight: float  # eps_k, the prior weight spread over k arms
    binary_kl: float | None     # kl(eps_k, 1 - eps_k) in nats; None when degenerate


def binary_kl(p: float, q: float) -> float:
    """Binary KL divergence p*ln(p/q) + (1-p)*ln((1-p)/(1-q)), in nats."""
    if not 0 < p < 1 or not 0 < q < 1:
        raise ValueError("binary_kl arguments must lie strictly in (0, 1)")
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def effective_prior_weight(epsilon: float, k: int) -> float:
    """Prior weight on the optimum once spread across all k arms."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return epsilon / (1.0 - epsilon + epsilon * k)


def burn_in_lower_bound(p: BurnInParams) -> BurnInResult:
    """Minimum expected cycles wasted before overturning the wrong prior.

    (1-delta)(1-epsilon) * gap * ln((1-epsilon)/delta) / kl(eps_k, 1-eps_k).
    When delta >= 1 - epsilon the log term is non-positive and the bound
    degenerates to zero. Raises OverflowError when 1 - eps_k rounds to 1 or the bound is inf.
    """
    eps_k = effective_prior_weight(p.epsilon, p.k)
    log_term = math.log((1.0 - p.epsilon) / p.delta)
    if log_term <= 0:
        return BurnInResult(cycles=0.0, effective_prior_weight=eps_k, binary_kl=None)
    if 1.0 - eps_k == 1.0:
        raise OverflowError(f"1 - eps_k rounds to 1 at eps_k = {eps_k}")
    kl = binary_kl(eps_k, 1.0 - eps_k)
    cycles = (1.0 - p.delta) * (1.0 - p.epsilon) * p.gap * log_term / kl
    if not math.isfinite(cycles):
        raise OverflowError(f"burn-in bound is not finite: {cycles}")
    return BurnInResult(cycles=cycles, effective_prior_weight=eps_k, binary_kl=kl)
