"""Two-level hybrid priors and discrete information measures.

The hybrid prior places mass beta on the model-recommended arm and
equal mass alpha on every other arm. Its entropy is strictly
decreasing in beta on [1/k, 1], so the prior matching a requested
information level is found by plain bisection on beta. Joint
distributions over (optimal arm, recommended arm) are plain k x k
probability tables.
"""

from __future__ import annotations

import math

from .certificates import checked_record, real, whole

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
    uniform and point-mass priors.
    """
    k = whole("k", k, 2)
    h_max = math.log(k)
    r_mech = real("r_mech", r_mech, 0, h_max + 1e-12)
    if r_mech <= 0.0:
        return TwoLevelPrior(k=k, beta=1.0 / k)
    if r_mech >= h_max - 1e-15:
        return TwoLevelPrior(k=k, beta=1.0)
    return TwoLevelPrior(k=k, beta=_solve_beta(k, r_mech))


def _solve_beta(k: int, r_mech: float) -> float:
    """Root of TwoLevelPrior(k, b).entropy() = ln k - r_mech for b in [1/k, 1 - 1e-15].

    Plain bisection; it stops when the midpoint is no longer strictly inside
    the bracket, that is when lo and hi are adjacent floats (about 55 steps).
    The caller has checked k and r_mech, so each step evaluates the formula unchecked.
    """
    target = math.log(k) - r_mech
    lo, hi = 1.0 / k, 1.0 - 1e-15
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _level_entropy(k, mid) > target:
            lo = mid
        else:
            hi = mid
    return mid


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
