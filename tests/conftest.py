import pytest

from mechcert.prior import TwoLevelPrior, joint_from_channel

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def two_level_joint():
    """joint(k, beta): a uniform optimal arm, and the recommended arm drawn from
    TwoLevelPrior(k, beta) centred on it, so beta lies on the diagonal."""

    def joint(k, beta):
        w = TwoLevelPrior(k, beta).weights()
        return joint_from_channel([1 / k] * k, [w[k - i:] + w[:k - i] for i in range(k)])

    return joint
