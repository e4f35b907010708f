"""Misspecified priors: confidently wrong from the start, or right in training and then shifted.

The burn-in bound prices the forced exploration an algorithm must spend
to overturn a prior that concentrates mass 1 - epsilon on the wrong arm,
via a sequential-testing argument. The shift analysis covers the
retention guarantee (small shifts keep at least half the training-time
information, for large enough arm counts) and the adversarial
half-scrambling construction showing that a bounded shift can destroy
half the information. The constructed test joint keeps the training
conditional on a chosen half of the optimal-arm indices and replaces it
by the uniform conditional on the rest. Pure arithmetic only; no simulator.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .certificates import checked_record, whole
from .prior import (JointDistribution, conditional_entropy, kl_divergence, mutual_information,
                    relative_entropy)

_MIN_ARMS = 12  # the retention guarantee is proved for k >= 12 only


class BurnInParams(checked_record("BurnInParams", "epsilon delta gap k")):
    """epsilon: prior mass on the true optimum; delta: allowed failure
    probability of identification; gap: per-cycle sub-optimality cost."""

    __slots__ = ()

    def __new__(cls, epsilon: float, delta: float, gap: float, k: int):
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        if not 0 < delta < 0.5:
            raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
        if not (math.isfinite(gap) and gap >= 0):
            raise ValueError(f"gap must be finite and non-negative, got {gap}")
        return super().__new__(cls, epsilon, delta, gap, whole("k", k, 2))

    @property
    def assumption_violated(self) -> bool:
        """The bound's derivation assumes epsilon <= delta."""
        return self.epsilon > self.delta


class BurnInResult(NamedTuple):
    cycles: float
    effective_prior_weight: float  # eps_k, the prior weight spread over k arms
    binary_kl: float | None     # kl(eps_k, 1 - eps_k) in nats; None when degenerate


def binary_kl(p: float, q: float) -> float:
    """Binary KL divergence p*ln(p/q) + (1-p)*ln((1-p)/(1-q)), in nats."""
    if not 0 < p < 1 or not 0 < q < 1:
        raise ValueError("binary_kl arguments must lie strictly in (0, 1)")
    return relative_entropy(((p, q), (1.0 - p, 1.0 - q)))


def effective_prior_weight(epsilon: float, k: int) -> float:
    """Prior weight on the optimum once spread across all k arms."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    k = whole("k", k, 2)
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


class Retention(Enum):
    GUARANTEED = "Guaranteed"
    NOT_GUARANTEED = "NotGuaranteed"
    OUT_OF_SCOPE = "OutOfScope"


class ShiftReport(NamedTuple):
    threshold: float
    retained: Retention


def retention_threshold(r_train: float, k: int) -> float:
    """Largest KL shift under which half the information survives."""
    if not (math.isfinite(r_train) and r_train >= 0):
        raise ValueError(f"r_train must be finite and non-negative, got {r_train}")
    k = whole("k", k, 2)
    return r_train**2 / (2.0 * k**2 * math.log(k) ** 2)


def r_min(k: int) -> float:
    """Minimum training information for the retention guarantee: 2*k^(4-k/2)*ln k."""
    k = whole("k", k, 2)
    if k < _MIN_ARMS:
        raise ValueError(f"retention guarantee requires k >= {_MIN_ARMS}, got {k}")
    return 2.0 * k ** (4.0 - k / 2.0) * math.log(k)


def check_retention(r_train: float, k: int, delta_pi: float) -> ShiftReport:
    """Does at least half of r_train survive a KL shift of delta_pi?

    Guaranteed requires k >= 12, r_train >= r_min(k), and the shift
    within retention_threshold; the proof's worst case sits exactly at
    r_min, so the floor is part of the guarantee's premise.
    """
    if not (math.isfinite(delta_pi) and delta_pi >= 0):
        raise ValueError(f"delta_pi must be finite and non-negative, got {delta_pi}")
    threshold = retention_threshold(r_train, k)
    if k < _MIN_ARMS:
        retained = Retention.OUT_OF_SCOPE
    elif r_train >= r_min(k) and delta_pi <= threshold:
        retained = Retention.GUARANTEED
    else:
        retained = Retention.NOT_GUARANTEED
    return ShiftReport(threshold=threshold, retained=retained)


def impossibility_construction(p: JointDistribution, s) -> JointDistribution:
    """Adversarial test joint: keep p's conditional on rows in s, scramble the rest.

    Requires an even arm count, |s| = k/2, and a uniform row marginal,
    which the construction preserves.
    """
    k = p.k
    if k % 2 != 0:
        raise ValueError(f"construction requires an even arm count, got k={k}")
    s = sorted({whole("subset entry", i, 0) for i in s})
    if len(s) != k // 2 or s[-1] >= k:
        raise ValueError(f"subset must contain k/2 = {k // 2} distinct arm indices in [0, {k})")
    if max(abs(m - 1.0 / k) for m in p.row_marginal()) > 1e-9:
        raise ValueError("construction requires a uniform row marginal")
    scrambled = (1.0 / k**2,) * k
    return JointDistribution(probs=[p.probs[i] if i in s else scrambled for i in range(k)])


class ImpossibilityReport(NamedTuple):
    """Residuals of the three verifiable identities of the construction.

    cond_entropy_residual: |H_q(rec|opt) - (H_p(rec|opt)/2 + ln(k)/2)|
    kl_residual:           |shift_divergence - (ln k - H_p(rec|opt))/2|
    mi_excess:             max(I_q - ln(k)/2, 0)
    """

    cond_entropy_residual: float
    kl_residual: float
    mi_excess: float
    shift_divergence: float
    mutual_information_test: float


def verify_impossibility(p: JointDistribution, s) -> ImpossibilityReport:
    """Build the adversarial joint and check its closed-form identities.

    The divergence side of the identity ln(k)/2 - H_p(rec|opt)/2 equals
    the per-row divergence of the kept conditional from uniform, which
    is the train-relative-to-test direction D(p||q); the scrambled rows
    contribute zero. The test-relative-to-train direction has no such
    closed form and is reported separately by kl_divergence(q, p).
    """
    q = impossibility_construction(p, s)
    k = p.k
    log_k = math.log(k)
    h_p = conditional_entropy(p)
    h_q = conditional_entropy(q)
    d_pq = kl_divergence(p, q)
    i_q = mutual_information(q)
    return ImpossibilityReport(
        cond_entropy_residual=abs(h_q - (0.5 * h_p + 0.5 * log_k)),
        kl_residual=abs(d_pq - 0.5 * (log_k - h_p)),
        mi_excess=max(i_q - 0.5 * log_k, 0.0),
        shift_divergence=d_pq,
        mutual_information_test=i_q,
    )
