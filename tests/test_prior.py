import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechcert.prior import (
    JointDistribution,
    TwoLevelPrior,
    conditional_entropy,
    kl_divergence,
    mutual_information,
    solve_prior_for_r_mech,
    two_level_entropy,
)


def random_joint(rng, k):
    p = rng.random((k, k)) + 1e-3
    return JointDistribution(probs=p / p.sum())


class TestTwoLevelEntropy:
    def test_uniform(self):
        assert two_level_entropy(8, 1 / 8) == pytest.approx(math.log(8), rel=1e-12)

    def test_point_mass(self):
        assert two_level_entropy(8, 1.0) == 0.0

    def test_information_level(self):
        # beta = 0.665 carries about 0.8 nats of information at k = 8
        assert two_level_entropy(8, 0.665) == pytest.approx(1.283, abs=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            two_level_entropy(8, 0.05)
        with pytest.raises(ValueError):
            two_level_entropy(8, 1.1)
        with pytest.raises(ValueError):
            two_level_entropy(1, 0.5)

    @given(st.integers(2, 64), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_strictly_decreasing_in_beta(self, k, u1, u2):
        b1 = 1 / k + u1 * (1 - 1 / k)
        b2 = 1 / k + u2 * (1 - 1 / k)
        if abs(b1 - b2) < 1e-9:
            return
        lo, hi = min(b1, b2), max(b1, b2)
        assert two_level_entropy(k, lo) > two_level_entropy(k, hi)


class TestPriorSolver:
    def test_zero_information(self):
        assert solve_prior_for_r_mech(8, 0.0).beta == 1 / 8

    def test_table2_level(self):
        assert solve_prior_for_r_mech(8, 1.9).beta == pytest.approx(0.972, abs=1e-3)

    def test_mid_level(self):
        prior = solve_prior_for_r_mech(8, 0.8)
        assert prior.beta == pytest.approx(0.665, abs=5e-3)
        assert two_level_entropy(8, prior.beta) == pytest.approx(math.log(8) - 0.8, abs=1e-9)

    def test_full_information(self):
        assert solve_prior_for_r_mech(8, math.log(8)).beta == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            solve_prior_for_r_mech(8, -0.1)
        with pytest.raises(ValueError):
            solve_prior_for_r_mech(8, math.log(8) + 0.1)

    def test_roundtrip_1000_random_targets(self):
        rng = np.random.default_rng(20260823)
        cases = []
        for _ in range(1000):
            k = int(rng.integers(2, 33))
            cases.append((k, float(rng.random() * math.log(k))))
        # targets next to both endpoints, where the entropy is flattest and steepest
        cases += [(k, r) for k in (2, 32) for r in (1e-12, math.log(k) - 1e-12)]
        for k, r in cases:
            prior = solve_prior_for_r_mech(k, r)
            assert abs(prior.entropy() - (math.log(k) - r)) < 1e-9

    @pytest.mark.parametrize("r_mech, beta", [
        (0.3, 0.4377637697495556),
        (0.8, 0.6688260890984845),
        (1.4, 0.8594544639306568),
        (1.9, 0.9725022684471253),
    ])
    def test_table_levels_match_reference_roots(self, r_mech, beta):
        # reference roots from a Brent solve at xtol 1e-15; the tables depend on them
        assert solve_prior_for_r_mech(8, r_mech).beta == pytest.approx(beta, abs=1e-14)


class TestTwoLevelPrior:
    def test_alpha(self):
        p = TwoLevelPrior(k=8, beta=0.5)
        assert p.alpha == pytest.approx(0.5 / 7, rel=1e-12)
        w = solve_prior_for_r_mech(8, 1.0).weights()
        assert np.argmax(w) == 0
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelPrior(k=1, beta=1.0)
        with pytest.raises(ValueError):
            TwoLevelPrior(k=8, beta=0.05)


class TestJointDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            JointDistribution(probs=np.ones((2, 3)) / 6)
        with pytest.raises(ValueError):
            JointDistribution(probs=np.full((2, 2), 0.3))
        with pytest.raises(ValueError):
            JointDistribution(probs=np.array([[1.2, -0.2], [0.0, 0.0]]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                JointDistribution(probs=[[bad, 0.5], [0.25, 0.25]])

    def test_marginals(self):
        j = JointDistribution(probs=np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert j.row_marginal() == pytest.approx([0.3, 0.7])
        assert j.col_marginal() == pytest.approx([0.4, 0.6])

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        j = random_joint(rng, 5)
        path = tmp_path / "joint.csv"
        path.write_text("5\n" + "".join(",".join(str(float(x)) for x in row) + "\n"
                                        for row in j.probs))
        back = JointDistribution.from_csv(path)
        assert np.array_equal(back.probs, j.probs)


class TestInformationMeasures:
    def test_mi_independence(self):
        u = np.full(8, 1 / 8)
        j = JointDistribution(probs=np.outer(u, u))
        assert abs(mutual_information(j)) < 1e-12

    def test_mi_identity_channel(self):
        j = JointDistribution(probs=np.eye(8) / 8)
        assert mutual_information(j) == pytest.approx(math.log(8), rel=1e-12)

    def test_mi_two_level_channel(self, two_level_joint):
        j = two_level_joint(8, 0.972)
        assert mutual_information(j) == pytest.approx(1.9, abs=0.01)
        # symmetric-channel MI equals ln k - two-level entropy at beta
        assert mutual_information(j) == pytest.approx(
            math.log(8) - two_level_entropy(8, 0.972), abs=1e-12)

    def test_cond_entropy_deterministic(self):
        j = JointDistribution(probs=np.eye(8) / 8)
        assert conditional_entropy(j) == pytest.approx(0.0, abs=1e-12)

    def test_cond_entropy_independent(self):
        u = np.full(8, 1 / 8)
        j = JointDistribution(probs=np.outer(u, u))
        assert conditional_entropy(j) == pytest.approx(math.log(8), rel=1e-12)

    def test_cond_entropy_two_level(self, two_level_joint):
        j = two_level_joint(8, 0.665)
        assert conditional_entropy(j) == pytest.approx(1.283, abs=0.02)

    def test_kl_self(self):
        rng = np.random.default_rng(0)
        j = random_joint(rng, 6)
        assert kl_divergence(j, j) == pytest.approx(0.0, abs=1e-12)

    def test_kl_diagonal_vs_product(self):
        diag = JointDistribution(probs=np.eye(8) / 8)
        u = np.full(8, 1 / 8)
        prod = JointDistribution(probs=np.outer(u, u))
        assert kl_divergence(diag, prod) == pytest.approx(math.log(8), rel=1e-12)

    def test_kl_support_violation(self):
        diag = JointDistribution(probs=np.eye(2) / 2)
        full = JointDistribution(probs=np.full((2, 2), 0.25))
        assert kl_divergence(full, diag) == math.inf
        with pytest.raises(ValueError):
            kl_divergence(diag, JointDistribution(probs=np.eye(3) / 3))

    def test_mi_entropy_decomposition(self):
        # I = H(row) + H(col) - H(joint) on random joints
        rng = np.random.default_rng(7)
        for _ in range(50):
            j = random_joint(rng, int(rng.integers(2, 10)))
            def h(v):
                v = np.asarray(v).ravel()
                v = v[v > 0]
                return -np.sum(v * np.log(v))
            expected = h(j.row_marginal()) + h(j.col_marginal()) - h(j.probs)
            assert mutual_information(j) == pytest.approx(expected, abs=1e-10)
            assert mutual_information(j) >= -1e-12

    def test_roundoff_never_reads_below_zero(self):
        # each sum comes out about -1e-16 or less by roundoff unless read as 0
        independent = JointDistribution(probs=[[0.04, 0.16], [0.16, 0.64]])
        assert mutual_information(independent) >= 0.0
        p = JointDistribution(probs=[[0.1, 0.2], [0.3, 0.4]])
        q = JointDistribution(probs=[[0.1 + 1e-12, 0.2 - 1e-12], [0.3, 0.4]])
        assert kl_divergence(p, q) >= 0.0

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(2, 10))
            p, q = random_joint(rng, k), random_joint(rng, k)
            assert kl_divergence(p, q) >= -1e-12
