import math
import re

import numpy as np
import pytest

from conftest import joint_from_channel
from mechcert.prior import (
    JointDistribution,
    Retention,
    check_retention,
    conditional_entropy,
    impossibility_construction,
    kl_divergence,
    mutual_information,
    r_min,
    verify_impossibility,
)


def cyclic_joint(rng, k):
    """Uniform-marginal joint whose rows are cyclic shifts of one random row.

    Every row has the same entropy, which is the regime where the
    half-scrambling identities hold exactly for any kept subset.
    """
    row = rng.random(k) + 1e-3
    row /= row.sum()
    cond = np.stack([np.roll(row, i) for i in range(k)])
    return joint_from_channel(np.full(k, 1.0 / k), cond)


def threshold(r_train, k):
    """The threshold as check_retention reports it; the shift does not enter it."""
    return check_retention(r_train, k, 0.0).threshold


class TestRetentionThreshold:
    def test_running_example(self):
        assert threshold(1.6, 8) == pytest.approx(0.00463, abs=1e-4)

    def test_zero_information(self):
        assert threshold(0.0, 12) == 0.0

    def test_worst_case_point(self):
        # r_train^2 / (2 k^2 ln^2 k) evaluated directly at (0.035, 12)
        expected = 0.035**2 / (2 * 144 * math.log(12) ** 2)
        assert threshold(0.035, 12) == pytest.approx(expected, rel=1e-12)


class TestRMin:
    def test_twelve_arms(self):
        assert r_min(12) == pytest.approx(0.0345, abs=5e-4)

    def test_sixteen_arms(self):
        assert r_min(16) == pytest.approx(8.46e-5, abs=1e-6)

    def test_below_scope(self):
        with pytest.raises(ValueError, match="^retention guarantee requires k >= 12, got 11$"):
            r_min(11)


class TestCheckRetention:
    def test_large_shift_not_guaranteed(self):
        report = check_retention(1.6, 8, 0.5)
        # k = 8 sits below the guarantee's arm-count floor
        assert report.retained is Retention.OUT_OF_SCOPE

    def test_zero_shift_guaranteed(self):
        assert check_retention(1.6, 12, 0.0).retained is Retention.GUARANTEED

    def test_worst_case_guaranteed(self):
        assert check_retention(0.035, 12, 1e-7).retained is Retention.GUARANTEED

    def test_below_floor_not_guaranteed(self):
        assert check_retention(0.01, 12, 0.0).retained is Retention.NOT_GUARANTEED

    def test_each_input_checked_once(self, checked_names):
        # the threshold and the r_min floor reuse the checked r_train and k
        assert check_retention(1.6, 12, 0.01).retained is Retention.NOT_GUARANTEED
        assert checked_names == ["delta_pi", "r_train", "k"]


class TestConstruction:
    def test_shape_and_rows(self):
        rng = np.random.default_rng(0)
        p = cyclic_joint(rng, 8)
        s = [0, 2, 4, 6]
        q = impossibility_construction(p, s)
        for i in range(8):
            if i in s:
                assert np.array_equal(q.probs[i], p.probs[i])
            else:
                assert np.allclose(q.probs[i], 1 / 64)
        assert np.allclose(q.row_marginal(), 1 / 8, atol=1e-12)

    def test_odd_k_rejected(self):
        rng = np.random.default_rng(1)
        p = cyclic_joint(rng, 5)
        with pytest.raises(ValueError, match="^construction requires an even arm count, got k=5$"):
            impossibility_construction(p, [0, 1])

    def test_wrong_subset_size(self):
        rng = np.random.default_rng(2)
        p = cyclic_joint(rng, 8)
        message = "subset must contain k/2 = 4 distinct arm indices in [0, 8)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            impossibility_construction(p, [0, 1, 2])

    @pytest.mark.parametrize("subset,repeated", [
        ([0, 0, 1, 2, 3], 0), ([0, 0, 1, 2], 0), ([3, 1, 2.0, 2], 2),
    ])
    def test_repeated_subset_entry_rejected(self, subset, repeated):
        # a repeat is not merged: five entries at k = 8 do not pass as the four distinct ones
        p = cyclic_joint(np.random.default_rng(2), 8)
        with pytest.raises(ValueError, match=f"^subset entry {repeated} is repeated$"):
            impossibility_construction(p, subset)

    @pytest.mark.parametrize("entry,message", [
        (1.5, "subset entry must be an integer, got 1.5"),
        (math.nan, "subset entry must be an integer, got nan"),
        (-1, "subset entry must be >= 0, got -1"),
    ])
    def test_subset_entries_follow_the_count_rule(self, entry, message):
        p = cyclic_joint(np.random.default_rng(2), 8)
        with pytest.raises(ValueError, match=message):
            verify_impossibility(p, [0, entry, 2, 3])
        assert impossibility_construction(p, [0, 1.0, 2, 3]) == impossibility_construction(
            p, [0, 1, 2, 3])

    def test_nonuniform_marginal_rejected(self):
        probs = np.full((4, 4), 1 / 16)
        probs[0] += 0.01
        probs[1] -= 0.01
        p = JointDistribution(probs=probs)
        with pytest.raises(ValueError, match="^construction requires a uniform row marginal$"):
            impossibility_construction(p, [0, 1])

    def test_diagonal_support_edge(self):
        # scrambled rows gain support the diagonal joint lacks, so the
        # test-relative-to-train divergence signals infinity
        p = JointDistribution(probs=np.eye(8) / 8)
        q = impossibility_construction(p, [0, 1, 2, 3])
        assert kl_divergence(q, p) == math.inf
        assert kl_divergence(p, q) < math.inf


class TestVerifyImpossibility:
    def test_two_level_channel(self, two_level_joint):
        p = two_level_joint(8, 0.972)
        report = verify_impossibility(p, [0, 1, 2, 3])
        assert report.cond_entropy_residual < 1e-9
        assert report.kl_residual < 1e-9
        assert report.mi_excess == 0.0
        assert report.shift_divergence < math.inf
        assert report.mutual_information_test <= 0.5 * math.log(8) + 1e-9

    def test_uniform_conditional_is_fixed_point(self):
        u = np.full(8, 1 / 8)
        p = JointDistribution(probs=np.outer(u, u))
        report = verify_impossibility(p, [0, 1, 2, 3])
        assert report.shift_divergence == pytest.approx(0.0, abs=1e-12)
        assert report.mutual_information_test == pytest.approx(0.0, abs=1e-12)

    def test_identities_on_100_random_joints(self):
        rng = np.random.default_rng(20260823)
        for _ in range(100):
            k = 2 * int(rng.integers(1, 8))
            p = cyclic_joint(rng, k)
            s = rng.choice(k, size=k // 2, replace=False)
            report = verify_impossibility(p, s)
            assert report.cond_entropy_residual < 1e-9
            assert report.kl_residual < 1e-9
            assert report.mi_excess < 1e-9

    def test_half_information_destroyed(self):
        rng = np.random.default_rng(5)
        p = cyclic_joint(rng, 8)
        q = impossibility_construction(p, [0, 1, 2, 3])
        h_p = conditional_entropy(p)
        # at most half of the training information survives the scrambling
        assert mutual_information(q) <= 0.5 * (math.log(8) - h_p) + 1e-9
        assert mutual_information(q) <= 0.5 * mutual_information(p) + 1e-9
