import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechcert.misspec import (
    BurnInParams,
    binary_kl,
    burn_in_lower_bound,
    effective_prior_weight,
)


class TestBinaryKL:
    def test_running_example(self):
        assert binary_kl(0.083, 0.917) == pytest.approx(2.0, abs=0.01)
        # unrounded effective weight 1/12
        assert binary_kl(1 / 12, 11 / 12) == pytest.approx(1.998, abs=0.005)

    def test_zero_at_equal(self):
        assert binary_kl(0.37, 0.37) == 0.0

    def test_symmetric_case(self):
        assert binary_kl(0.0732, 0.9268) == pytest.approx(2.168, abs=0.005)
        # symmetric arguments collapse to (1 - 2p) ln((1-p)/p)
        p = 0.0732
        assert binary_kl(p, 1 - p) == pytest.approx(
            (1 - 2 * p) * math.log((1 - p) / p), rel=1e-12)

    def test_endpoints_rejected(self):
        for p, q in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                binary_kl(p, q)

    def test_roundoff_never_reads_below_zero(self):
        assert binary_kl(1e-06, 1.0000000000000002e-06) >= 0.0

    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
    def test_nonnegative(self, p, q):
        assert binary_kl(p, q) >= 0.0


class TestEffectiveWeight:
    def test_values(self):
        assert effective_prior_weight(0.2, 8) == pytest.approx(0.0833, abs=1e-3)
        assert effective_prior_weight(0.15, 8) == pytest.approx(0.0732, abs=1e-3)
        assert effective_prior_weight(1e-12, 8) < 1e-11

    def test_domain(self):
        with pytest.raises(ValueError):
            effective_prior_weight(0.0, 8)
        with pytest.raises(ValueError):
            effective_prior_weight(0.2, 1)

    @given(st.floats(1e-6, 1 - 1e-6), st.integers(2, 100))
    def test_bounded_by_epsilon(self, eps, k):
        w = effective_prior_weight(eps, k)
        assert 0 < w < 1
        assert w <= eps + 1e-12


class TestBurnInBound:
    def test_running_example(self):
        params = BurnInParams(epsilon=0.2, delta=0.01, gap=0.2, k=8)
        result = burn_in_lower_bound(params)
        assert result.cycles == pytest.approx(0.35, abs=0.01)
        assert result.cycles == pytest.approx(0.347, abs=0.005)
        assert result.binary_kl is not None
        # epsilon = 0.2 > delta = 0.01 sits outside the proposition's premise
        assert params.assumption_violated
        assert result.effective_prior_weight == effective_prior_weight(0.2, 8)
        eps_k = result.effective_prior_weight
        assert result.binary_kl == binary_kl(eps_k, 1 - eps_k)

    def test_zero_gap(self):
        result = burn_in_lower_bound(BurnInParams(epsilon=0.2, delta=0.01, gap=0.0, k=8))
        assert result.cycles == 0.0
        assert result.binary_kl is not None

    def test_assumption_flagged(self):
        params = BurnInParams(epsilon=0.15, delta=0.10, gap=0.2, k=8)
        result = burn_in_lower_bound(params)
        assert result.cycles == pytest.approx(0.151, abs=0.005)
        assert params.assumption_violated
        assert result.binary_kl is not None

    def test_degenerate_regime(self):
        # delta >= 1 - epsilon makes the log term non-positive
        result = burn_in_lower_bound(BurnInParams(epsilon=0.9, delta=0.3, gap=0.2, k=8))
        assert result.cycles == 0.0
        assert result.binary_kl is None
        assert result.effective_prior_weight == effective_prior_weight(0.9, 8)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            BurnInParams(epsilon=0.0, delta=0.01, gap=0.2, k=8)
        with pytest.raises(ValueError):
            BurnInParams(epsilon=0.2, delta=0.6, gap=0.2, k=8)
        with pytest.raises(ValueError):
            BurnInParams(epsilon=0.2, delta=0.01, gap=-0.1, k=8)
        with pytest.raises(ValueError):
            BurnInParams(epsilon=0.2, delta=0.01, gap=0.2, k=1)

    @given(st.floats(0.01, 0.4), st.floats(0.001, 0.2), st.floats(0.01, 0.2),
           st.floats(0.01, 1.0), st.integers(2, 32))
    def test_monotone_decreasing_in_delta(self, eps, d1, dd, gap, k):
        lo = burn_in_lower_bound(BurnInParams(epsilon=eps, delta=d1, gap=gap, k=k))
        hi = burn_in_lower_bound(BurnInParams(epsilon=eps, delta=d1 + dd, gap=gap, k=k))
        assert lo.cycles >= hi.cycles

    @given(st.floats(0.01, 0.95), st.floats(0.01, 0.49), st.floats(0.0, 1.0),
           st.integers(2, 32))
    def test_never_negative(self, eps, delta, gap, k):
        result = burn_in_lower_bound(BurnInParams(epsilon=eps, delta=delta, gap=gap, k=k))
        assert result.cycles >= 0.0
