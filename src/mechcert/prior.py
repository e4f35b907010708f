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

# Pseudo-count scale for encoding the hybrid prior into Beta posteriors,
# frozen after a one-time grid search over s in {1..40} against the
# published hybrid regret column (see README).
DEFAULT_PRIOR_STRENGTH = 2.0


def _entropy(p) -> float:
    """Shannon entropy in nats of a sequence of probabilities, with 0*ln(0) = 0."""
    return -math.fsum(x * math.log(x) for x in p if x > 0)


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

    def weights(self) -> tuple[float, ...]:
        return (self.beta,) + (self.alpha,) * (self.k - 1)

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
    """k x k probability table, entry (i, j) = P(optimal=i, recommended=j).

    `probs` accepts any square nested sequence of numbers and is stored
    as a tuple of row tuples of floats.
    """

    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in row) for row in self.probs)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError(f"probs must be a square matrix, got {len(rows)} rows of "
                             f"lengths {sorted({len(row) for row in rows})}")
        bad = next((x for row in rows for x in row if not (math.isfinite(x) and x >= 0)), None)
        if bad is not None:
            raise ValueError(f"probabilities must be finite and non-negative, got {bad}")
        total = math.fsum(x for row in rows for x in row)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        object.__setattr__(self, "probs", rows)

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
        with open(path) as fh:
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


def two_level_channel(k: int, beta: float) -> tuple[tuple[float, ...], ...]:
    """Symmetric conditional P(recommended=j | optimal=i): beta on the diagonal."""
    alpha = (1.0 - beta) / (k - 1)
    return tuple(tuple(beta if i == j else alpha for j in range(k)) for i in range(k))


def joint_from_channel(marginal, conditional) -> JointDistribution:
    """Joint table from a row marginal and a row-stochastic conditional."""
    return JointDistribution(probs=[[float(m) * float(c) for c in row]
                                    for m, row in zip(marginal, conditional, strict=True)])


def mutual_information(j: JointDistribution) -> float:
    """I(row; col) in nats, always >= 0."""
    cols = j.col_marginal()
    return math.fsum(p * math.log(p / (r * c))
                     for r, row in zip(j.row_marginal(), j.probs)
                     for p, c in zip(row, cols) if p > 0)


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
    return math.fsum(a * math.log(a / b) for a, b in pairs)
