import pytest

from mechcert.prior import JointDistribution, TwoLevelPrior

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
