"""Distribution-shift analysis for recommendation priors.

Covers the retention guarantee (small shifts keep at least half the
training-time information, for large enough arm counts) and the
adversarial half-scrambling construction showing that a bounded shift
can destroy half the information. The constructed test joint keeps the
training conditional on a chosen half of the optimal-arm indices and
replaces it by the uniform conditional on the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .prior import JointDistribution, conditional_entropy, kl_divergence, mutual_information

_MIN_ARMS = 12  # the retention guarantee is proved for k >= 12 only


class Retention(Enum):
    GUARANTEED = "Guaranteed"
    NOT_GUARANTEED = "NotGuaranteed"
    OUT_OF_SCOPE = "OutOfScope"


@dataclass(frozen=True)
class ShiftReport:
    threshold: float
    retained: Retention


def retention_threshold(r_train: float, k: int) -> float:
    """Largest KL shift under which half the information survives."""
    if not (math.isfinite(r_train) and r_train >= 0):
        raise ValueError(f"r_train must be finite and non-negative, got {r_train}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return r_train**2 / (2.0 * k**2 * math.log(k) ** 2)


def r_min(k: int) -> float:
    """Minimum training information for the retention guarantee: 2*k^(4-k/2)*ln k."""
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
    s = sorted(set(int(i) for i in s))
    if len(s) != k // 2 or s[0] < 0 or s[-1] >= k:
        raise ValueError(f"subset must contain k/2 = {k // 2} distinct arm indices in [0, {k})")
    if max(abs(m - 1.0 / k) for m in p.row_marginal()) > 1e-9:
        raise ValueError("construction requires a uniform row marginal")
    scrambled = (1.0 / k**2,) * k
    return JointDistribution(probs=[p.probs[i] if i in s else scrambled for i in range(k)])


@dataclass(frozen=True)
class ImpossibilityReport:
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
