"""Two-level hybrid priors, discrete information measures, and misspecified priors.

The hybrid prior places mass beta on the model-recommended arm and
equal mass alpha on every other arm. Its entropy is strictly
decreasing in beta on [1/k, 1], so the prior matching a requested
information level is found by plain bisection on beta. Joint
distributions over (optimal arm, recommended arm) are plain k x k
probability tables.

A misspecified prior is confidently wrong from the start, or right in training
and then shifted. The burn-in bound prices the forced exploration an algorithm
must spend to overturn a prior that concentrates mass 1 - epsilon on the wrong
arm, via a sequential-testing argument. The shift analysis covers the
retention guarantee (small shifts keep at least half the training-time
information, for large enough arm counts) and the adversarial half-scrambling
construction showing that a bounded shift can destroy half the information:
the test joint keeps the training conditional on a chosen half of the
optimal-arm indices and is uniform on the rest. Pure arithmetic; no simulator.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .certificates import checked_record, real, whole

K = 8  # arms of the calibrated 5-FU experiment, the CLI's working --k
HORIZON = 12  # its Table 1 horizon in cycles, the CLI's working --n
# Pseudo-count scale for encoding the hybrid prior into Beta posteriors,
# frozen after a one-time grid search over s in {1..40} against the
# published hybrid regret column (see README).
DEFAULT_PRIOR_STRENGTH = 2.0


def _entropy(p) -> float:
    """Shannon entropy in nats of a sequence of probabilities, with 0*ln(0) = 0."""
    return -math.fsum(x * math.log(x) for x in p if x > 0)


class TwoLevelPrior(checked_record("TwoLevelPrior", "k beta")):
    """Mass beta on the recommended arm (arm 0 in `weights`), alpha on each of the others."""

    __slots__ = ()

    def __new__(cls, k: int, beta: float):
        k = whole("k", k, 2)
        # the one check of beta; 1e-12 of slack at each end absorbs the roundoff of 1/k and 1
        return super().__new__(cls, k, real("beta", beta, 1.0 / k - 1e-12, 1.0 + 1e-12))

    @property
    def alpha(self) -> float:
        return (1.0 - self.beta) / (self.k - 1)

    def weights(self) -> tuple[float, ...]:
        return (self.beta,) + (self.alpha,) * (self.k - 1)

    def entropy(self) -> float:
        """Entropy in nats; 0 at beta = 1."""
        return 0.0 if self.beta >= 1.0 else _level_entropy(self.k, self.beta)

    def pseudo_counts(self, strength: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """Beta pseudo-counts (alpha, beta) of the recommended arm, then of every other arm.

        Weight w maps to (1 + s*k*max(w - 1/k, 0), 1 + s*k*max(1/k - w, 0)): Beta(1, 1)
        at the uniform prior or s = 0, so uninformed Thompson sampling is this
        encoding at level 0. Above 1/k the recommended arm's pair is (A, 1) and the
        others' (1, B); a beta just below 1/k, which the domain check allows, swaps them.
        """
        scale, uniform = strength * self.k, 1.0 / self.k
        return tuple((1.0 + scale * max(w - uniform, 0.0), 1.0 + scale * max(uniform - w, 0.0))
                     for w in (self.beta, self.alpha))


def _level_entropy(k: int, beta: float) -> float:
    """The two-level entropy formula for beta < 1, unchecked."""
    rest = 1.0 - beta
    return -beta * math.log(beta) - rest * math.log(rest / (k - 1))


def solve_prior_for_r_mech(k: int, r_mech: float) -> TwoLevelPrior:
    """Two-level prior whose entropy equals ln k - r_mech.

    Exploits strict monotone decrease of the entropy in beta; the
    endpoints r_mech = 0 and r_mech = ln k short-circuit to the exact
    uniform and point-mass priors. In between, beta is the root in
    [1/k, 1 - 1e-15] found by plain bisection, which stops when the midpoint
    is no longer strictly inside the bracket, that is when lo and hi are
    adjacent floats (about 55 steps). k and r_mech are checked here once, so
    each step evaluates the entropy formula unchecked.
    """
    k = whole("k", k, 2)
    h_max = math.log(k)
    r_mech = real("r_mech", r_mech, 0, h_max + 1e-12)
    if r_mech <= 0.0:
        return TwoLevelPrior(k=k, beta=1.0 / k)
    if r_mech >= h_max - 1e-15:
        return TwoLevelPrior(k=k, beta=1.0)
    target = h_max - r_mech
    lo, hi = 1.0 / k, 1.0 - 1e-15
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _level_entropy(k, mid) > target:
            lo = mid
        else:
            hi = mid
    return TwoLevelPrior(k=k, beta=mid)


class JointDistribution(checked_record("JointDistribution", "probs")):
    """k x k probability table, entry (i, j) = P(optimal=i, recommended=j).

    `probs` accepts any square nested sequence of numbers and is stored
    as a tuple of row tuples of floats.
    """

    __slots__ = ()

    def __new__(cls, probs):
        rows = tuple(tuple(real("probs entry", float(x), 0) for x in row) for row in probs)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError(f"probs must be a square matrix, got {len(rows)} rows of "
                             f"lengths {sorted({len(row) for row in rows})}")
        total = math.fsum(x for row in rows for x in row)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        return super().__new__(cls, rows)

    @property
    def k(self) -> int:
        return len(self.probs)

    def row_marginal(self) -> tuple[float, ...]:
        return tuple(math.fsum(row) for row in self.probs)

    def col_marginal(self) -> tuple[float, ...]:
        return tuple(math.fsum(col) for col in zip(*self.probs))

    @classmethod
    def from_csv(cls, path) -> "JointDistribution":
        """k on the first line, then k rows of k comma-separated probabilities."""
        layout = (f"{path}: expected k on the first line, "
                  "then k rows of k comma-separated probabilities")
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not part of k
            try:
                k = int(fh.readline().strip())
                rows = [[float(x) for x in line.strip().split(",")]
                        for line in fh if line.strip()]
            except ValueError as exc:
                raise ValueError(f"{layout} ({exc})") from None
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"{layout}; got k = {k} and {len(rows)} rows of "
                             f"lengths {sorted({len(row) for row in rows})}")
        return cls(probs=rows)


def relative_entropy(pairs) -> float:
    """The sum of a*ln(a/b) over (a, b) pairs with a > 0, in nats; it is never below 0,
    so a negative sum, which only roundoff makes, reads 0."""
    return max(math.fsum(a * math.log(a / b) for a, b in pairs if a > 0), 0.0)


def mutual_information(j: JointDistribution) -> float:
    """I(row; col) in nats, always >= 0."""
    cols = j.col_marginal()
    return relative_entropy((p, r * c) for r, row in zip(j.row_marginal(), j.probs)
                            for p, c in zip(row, cols))


def conditional_entropy(j: JointDistribution) -> float:
    """H(col | row) = H(joint) - H(row marginal), in nats."""
    return _entropy(x for row in j.probs for x in row) - _entropy(j.row_marginal())


def kl_divergence(p: JointDistribution, q: JointDistribution) -> float:
    """D_KL(p || q) in nats; math.inf on a support violation."""
    if p.k != q.k:
        raise ValueError(f"dimension mismatch: {p.k} vs {q.k}")
    pairs = [(a, b) for pr, qr in zip(p.probs, q.probs) for a, b in zip(pr, qr) if a > 0]
    if any(b == 0 for _, b in pairs):
        return math.inf
    return relative_entropy(pairs)


_MIN_ARMS = 12  # the retention guarantee is proved for k >= 12 only


class BurnInParams(checked_record("BurnInParams", "epsilon delta gap k")):
    """epsilon: prior mass on the true optimum; delta: allowed failure
    probability of identification; gap: per-cycle sub-optimality cost."""

    __slots__ = ()

    def __new__(cls, epsilon: float, delta: float, gap: float, k: int):
        return super().__new__(cls, real("epsilon", epsilon, 0, 1, open=True),
                               real("delta", delta, 0, 0.5, open=True), real("gap", gap, 0),
                               whole("k", k, 2))

    @property
    def assumption_violated(self) -> bool:
        """The bound's derivation assumes epsilon <= delta."""
        return self.epsilon > self.delta


class BurnInResult(NamedTuple):
    cycles: float
    effective_prior_weight: float  # eps_k, the prior weight on the optimum spread over k arms
    binary_kl: float | None     # kl(eps_k, 1 - eps_k) in nats; None when degenerate


def burn_in_lower_bound(p: BurnInParams) -> BurnInResult:
    """Minimum expected cycles wasted before overturning the wrong prior.

    (1-delta)(1-epsilon) * gap * ln((1-epsilon)/delta) / kl(eps_k, 1-eps_k), with
    eps_k = epsilon / (1 - epsilon + epsilon k). When delta >= 1 - epsilon the
    log term is non-positive and the bound degenerates to zero. kl is taken from
    epsilon and k, not from the rounded eps_k:
    kl(eps_k, 1-eps_k) = (1 - 2 eps_k) ln((1-eps_k)/eps_k), where
    1 - 2 eps_k = (1 + eps(k-3)) / (1 + eps(k-1)) and (1-eps_k)/eps_k = (1 + eps(k-2)) / eps.
    So kl is positive and finite; raises OverflowError when the bound is inf.
    """
    eps, k = p.epsilon, p.k
    eps_k = eps / (1.0 - eps + eps * k)
    log_term = math.log((1.0 - eps) / p.delta)
    if log_term <= 0:
        return BurnInResult(cycles=0.0, effective_prior_weight=eps_k, binary_kl=None)
    kl = ((1.0 + eps * (k - 3)) / (1.0 + eps * (k - 1))
          * (math.log1p(eps * (k - 2)) - math.log(eps)))
    cycles = (1.0 - p.delta) * (1.0 - eps) * p.gap * log_term / kl
    if not math.isfinite(cycles):
        raise OverflowError(f"burn-in bound is not finite: {cycles}")
    return BurnInResult(cycles=cycles, effective_prior_weight=eps_k, binary_kl=kl)


class Retention(Enum):
    GUARANTEED = "Guaranteed"
    NOT_GUARANTEED = "NotGuaranteed"
    OUT_OF_SCOPE = "OutOfScope"


class ShiftReport(NamedTuple):
    threshold: float  # the largest KL shift under which half of r_train survives
    retained: Retention


def r_min(k: int) -> float:
    """Minimum training information for the retention guarantee: 2*k^(4-k/2)*ln k."""
    k = whole("k", k, 2)
    if k < _MIN_ARMS:
        raise ValueError(f"retention guarantee requires k >= {_MIN_ARMS}, got {k}")
    return _r_min(k)


def _r_min(k: int) -> float:
    """The r_min formula, unchecked."""
    return 2.0 * k ** (4.0 - k / 2.0) * math.log(k)


def check_retention(r_train: float, k: int, delta_pi: float) -> ShiftReport:
    """Does at least half of r_train survive a KL shift of delta_pi?

    Guaranteed requires k >= 12, r_train >= r_min(k), and the shift within
    the threshold r_train^2 / (2 k^2 ln^2 k); the proof's worst case sits
    exactly at r_min, so the floor is part of the guarantee's premise.
    """
    delta_pi = real("delta_pi", delta_pi, 0)
    r_train, k = real("r_train", r_train, 0), whole("k", k, 2)
    threshold = r_train**2 / (2.0 * k**2 * math.log(k) ** 2)
    if k < _MIN_ARMS:
        retained = Retention.OUT_OF_SCOPE
    elif r_train >= _r_min(k) and delta_pi <= threshold:
        retained = Retention.GUARANTEED
    else:
        retained = Retention.NOT_GUARANTEED
    return ShiftReport(threshold=threshold, retained=retained)


def impossibility_construction(p: JointDistribution, s) -> JointDistribution:
    """Adversarial test joint: keep p's conditional on rows in s, scramble the rest.

    Requires an even arm count, k/2 distinct entries in s, and a uniform
    row marginal, which the construction preserves.
    """
    k = p.k
    if k % 2 != 0:
        raise ValueError(f"construction requires an even arm count, got k={k}")
    s = [whole("subset entry", i, 0) for i in s]
    if repeated := [i for n, i in enumerate(s) if i in s[:n]]:
        raise ValueError(f"subset entry {repeated[0]} is repeated")
    if len(s) != k // 2 or max(s) >= k:
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
