import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mechcert.prior import BurnInParams, burn_in_lower_bound


class TestBinaryKL:
    """kl(eps_k, 1 - eps_k), as burn_in_lower_bound reports it."""

    def test_running_example(self):
        # epsilon = 0.2 spreads to the effective weight 1/12, which rounds to 0.083
        result = burn_in_lower_bound(BurnInParams(epsilon=0.2, delta=0.01, gap=0.2, k=8))
        assert result.binary_kl == pytest.approx(1.998, abs=0.005)

    def test_symmetric_case(self):
        # symmetric arguments collapse to (1 - 2p) ln((1-p)/p); epsilon = 0.15 spreads to 0.0732
        result = burn_in_lower_bound(BurnInParams(epsilon=0.15, delta=0.01, gap=0.2, k=8))
        p = result.effective_prior_weight
        assert result.binary_kl == pytest.approx(2.168, abs=0.005)
        assert result.binary_kl == pytest.approx((1 - 2 * p) * math.log((1 - p) / p), rel=1e-12)


def eps_k(epsilon, k):
    """eps_k as burn_in_lower_bound reports it; delta and gap do not enter it."""
    return burn_in_lower_bound(BurnInParams(epsilon, 0.01, 0.2, k)).effective_prior_weight


class TestEffectiveWeight:
    def test_values(self):
        assert eps_k(0.2, 8) == pytest.approx(0.0833, abs=1e-3)
        assert eps_k(0.15, 8) == pytest.approx(0.0732, abs=1e-3)
        assert eps_k(1e-12, 8) < 1e-11

    @given(st.floats(1e-6, 1 - 1e-6), st.integers(2, 100))
    def test_bounded_by_epsilon(self, eps, k):
        w = eps_k(eps, k)
        assert 0 < w < 1
        assert w <= eps + 1e-12


class TestBurnInBound:
    def test_running_example(self):
        params = BurnInParams(epsilon=0.2, delta=0.01, gap=0.2, k=8)
        result = burn_in_lower_bound(params)
        assert result.cycles == pytest.approx(0.347, abs=0.005)
        assert result.binary_kl is not None
        # epsilon = 0.2 > delta = 0.01 sits outside the proposition's premise
        assert params.assumption_violated
        assert result.effective_prior_weight == 0.2 / (1 - 0.2 + 0.2 * 8)

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
        # eps_k is reported in the degenerate regime too
        assert result.effective_prior_weight == 0.9 / (1 - 0.9 + 0.9 * 8)

    def test_checked_params_are_not_checked_again(self, request):
        # BurnInParams checks its fields once; the bound only reads them
        params = BurnInParams(epsilon=0.2, delta=0.01, gap=0.2, k=8)
        checked = request.getfixturevalue("checked_names")
        assert burn_in_lower_bound(params).cycles > 0
        assert checked == []

    @pytest.mark.parametrize("k", [2, 3, 8, 10**20])
    @pytest.mark.parametrize("eps", [1e-300, 1e-9, 1e-3, 0.5, 1 - 1e-3, 1 - 1e-9,
                                     1 - 2**-52])
    def test_kl_matches_exact_arithmetic(self, eps, k):
        # kl(eps_k, 1 - eps_k) at 60 digits from the same eps and k: no cancellation
        # when eps_k is near 1/2 (eps near 1, k = 2) and no 1 - eps_k == 1 near 0
        with localcontext() as ctx:
            ctx.prec = 60
            e = Decimal(eps)
            w = e / (1 + e * (k - 1))
            exact = (1 - 2 * w) * ((1 - w) / w).ln()
        kl = burn_in_lower_bound(BurnInParams(epsilon=eps, delta=1e-300, gap=1.0, k=k)).binary_kl
        assert 0 < kl < math.inf
        assert abs(Decimal(kl) - exact) <= Decimal(1e-15) * exact

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
