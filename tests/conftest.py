import functools
import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from mechcert import prior
from mechcert.certificates import K, P_BSA, P_OPT
from mechcert.prior import JointDistribution, TwoLevelPrior, solve_prior_for_r_mech

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


def joint_from_channel(marginal, conditional) -> JointDistribution:
    """Joint table from a row marginal and a row-stochastic conditional."""
    return JointDistribution(probs=[[float(m) * float(c) for c in row]
                                    for m, row in zip(marginal, conditional, strict=True)])


@pytest.fixture
def two_level_joint():
    """joint(k, beta): a uniform optimal arm, and the recommended arm drawn from
    TwoLevelPrior(k, beta) centred on it, so beta lies on the diagonal."""

    def joint(k, beta):
        w = TwoLevelPrior(k, beta).weights()
        return joint_from_channel([1 / k] * k, [w[k - i:] + w[:k - i] for i in range(k)])

    return joint


@pytest.fixture
def checked_names(monkeypatch):
    """The names that `prior`'s input checks `real` and `whole` see, in call order."""
    names = []
    for check in (prior.real, prior.whole):
        def counting(name, *args, check=check, **kwargs):
            names.append(name)
            return check(name, *args, **kwargs)
        monkeypatch.setattr(prior, check.__name__, counting)
    return names


@pytest.fixture
def started_pools(monkeypatch):
    """The max_workers of each ProcessPoolExecutor started, in start order."""
    import concurrent.futures

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return started


@pytest.fixture
def recorded_draws(monkeypatch):
    """Each `random` and `standard_gamma` call of a numpy Generator, in call order:
    (method, SFC64 state before, state after, uniforms drawn or gamma shapes),
    a state being its four words, has_uint32 and uinteger."""
    draws = []

    def state(rng):
        s = rng.bit_generator.state
        return (*s["state"]["state"].tolist(), s["has_uint32"], s["uinteger"])

    class Recording(np.random.Generator):
        def random(self, *args, **kwargs):
            before, uniforms = state(self), super().random(*args, **kwargs)
            draws.append(("random", before, state(self), uniforms.size))
            return uniforms

        def standard_gamma(self, shape, *args, **kwargs):
            before, gammas = state(self), super().standard_gamma(shape, *args, **kwargs)
            draws.append(("standard_gamma", before, state(self), np.array(shape)))
            return gammas

    monkeypatch.setattr(np.random, "Generator", Recording)
    return draws


@functools.cache
def _gauss_legendre(nodes):
    """Gauss-Legendre nodes and weights on [0, 1].

    Three Newton steps from the asymptotic roots reach float precision;
    numpy's leggauss takes an eigendecomposition instead, which a
    multithreaded BLAS can stretch to half a second at 256 nodes.
    """
    p = np.polynomial.Legendre.basis(nodes)
    dp = p.deriv()
    x = np.cos(np.pi * (np.arange(nodes) + 0.75) / (nodes + 0.5))
    for _ in range(3):
        x = x - p(x) / dp(x)
    return (x + 1) / 2, 1 / ((1 - x * x) * dp(x) ** 2)


def _cdf_sum(x, y, a, m):
    """x^a * sum_{j<m} Gamma(a+j)/(Gamma(a) j!) y^j: the Beta(a, m) CDF at x when y = 1 - x."""
    coef = np.cumprod([1.0] + [(a + j) / (j + 1) for j in range(m - 1)])
    return x ** a * np.polynomial.polynomial.polyval(y, coef)


@functools.cache
def _beta_law(a0, b0, s, f, nodes):
    """Density and CDF of Beta(a0 + s, b0 + f) on the nodes, for a0 = 1 or b0 = 1.

    One shape is then a whole number, so the CDF is a finite sum.
    """
    x = _gauss_legendre(nodes)[0]
    a, b = a0 + s, b0 + f
    pdf = np.exp((a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
                 + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = _cdf_sum(x, 1 - x, a, 1 + f) if b0 == 1 else 1 - _cdf_sum(1 - x, x, b, 1 + s)
    return pdf, cdf


@functools.cache
def _pull_probabilities(laws, nodes):
    """{law: P(a given arm of that law draws the largest sample)} for a tuple of (law, count).

    P(X_j is the largest) = int f_j prod_{i != j} F_i dx, one quadrature per law.
    """
    w = _gauss_legendre(nodes)[1]
    pulls = {}
    for law, _ in laws:
        integrand = _beta_law(*law, nodes)[0]
        for other, count in laws:
            integrand = integrand * _beta_law(*other, nodes)[1] ** (count - (other == law))
        pulls[law] = float(w @ integrand)
    return pulls


@functools.cache
def exact_beta_regret(r_mech, strength, n, nodes=128):
    """Exact mean and standard deviation of the engine's pseudo-regret after rounds 1..n.

    The engine's policy: the recommended arm starts at Beta(A, 1) and the
    other K - 1 arms at Beta(1, B), with A = 1 + s*K*(beta - 1/K) and
    B = 1 + s*K*(1/K - alpha) for the two-level prior of r_mech; the optimum
    is the recommended arm with probability beta and another arm otherwise.
    A state is the sorted tuple of arms (a0, b0, successes, failures,
    is_optimal), and one forward pass carries each state's probability and
    the first two moments of the regret accrued on the way to it. Each
    pull probability is a Gauss-Legendre sum over `nodes` nodes.

    Exact means, with converged quadrature:
      strength 2 at n = 12, which no test checks because the number of
        states, and so the cost, grows steeply with n: 5.88161, 4.62126,
        2.83160, 1.26264 and 0.33695 at r_mech = 0, 0.3, 0.8, 1.4 and 1.9;
      uninformed (r_mech = 0), Table 2's horizons: 2.72767 at n = 5 and
        5.07152 at n = 10, both in the uninformed oracle test's horizons.
    """
    beta = solve_prior_for_r_mech(K, r_mech).beta
    rec = (1 + strength * K * (beta - 1 / K), 1.0, 0, 0)
    other = (1.0, 1 + strength * K * (1 / K - (1 - beta) / (K - 1)), 0, 0)
    layer = defaultdict(lambda: [0.0, 0.0, 0.0])  # state: P, E[regret; state], E[regret^2; state]
    for mass, arms in ((beta, [rec + (True,)] + [other + (False,)] * (K - 1)),
                       (1 - beta, [rec + (False,), other + (True,)] + [other + (False,)] * (K - 2))):
        layer[tuple(sorted(arms))][0] += mass
    means, sds = [], []
    for t in range(n):
        children = defaultdict(lambda: [0.0, 0.0, 0.0])
        m1_sum = m2_sum = 0.0
        for state, (p, m1, m2) in layer.items():
            laws = Counter(arm[:4] for arm in state)
            pulls = _pull_probabilities(tuple(sorted(laws.items())), nodes)
            for arm, count in Counter(state).items():
                a0, b0, s, f, optimal = arm
                g = 0.0 if optimal else P_OPT - P_BSA
                q = count * pulls[arm[:4]]
                moved = (p * q, (m1 + g * p) * q, (m2 + 2 * g * m1 + g * g * p) * q)
                m1_sum += moved[1]
                m2_sum += moved[2]
                if t == n - 1:  # the last round's states are never read
                    continue
                rest = list(state)
                rest.remove(arm)
                mean = P_OPT if optimal else P_BSA
                for child, chance in (((a0, b0, s + 1, f, optimal), mean),
                                      ((a0, b0, s, f + 1, optimal), 1 - mean)):
                    acc = children[tuple(sorted(rest + [child]))]
                    for i in range(3):
                        acc[i] += chance * moved[i]
        layer = children
        means.append(m1_sum)
        sds.append(math.sqrt(max(m2_sum - m1_sum * m1_sum, 0.0)))
    return tuple(means), tuple(sds)
