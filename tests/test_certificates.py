import math
import pickle
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechcert.certificates import (
    CalibrationParams,
    Regime,
    certificate_report,
    channel_capacity,
    critical_bias,
    lb_envelope,
    residual_entropy,
    sample_complexity_ratio,
    solve_bias_for_capacity,
    ub_envelope,
    write_csv,
)
from mechcert.misspec import BurnInParams, effective_prior_weight, r_min, retention_threshold
from mechcert.prior import (
    JointDistribution,
    TwoLevelPrior,
    solve_prior_for_r_mech,
    two_level_entropy,
)
from mechcert.sim import ExperimentConfig, build_environment, regret_curves, run_trial
from mechcert.sweep import SweepSpec, linear_grid

WORKING = CalibrationParams.canonical(k=8, n=12, sigma=0.40, kappa_mu=1.8,
                                      d_f=3.0, b_mu=0.22)

params_st = st.builds(
    CalibrationParams.canonical,
    k=st.integers(2, 32),
    n=st.integers(2, 500),
    sigma=st.floats(0.05, 2.0),
    kappa_mu=st.floats(0.1, 5.0),
    d_f=st.floats(0.5, 10.0),
    b_mu=st.floats(0.0, 3.0),
)


class TestCanonicalSigmaF2:
    """The constructor's default sigma_f2, 2*sigma^2*ln k / (kappa_mu^2 * d_f)."""

    def test_working_values(self):
        assert WORKING.sigma_f2 == pytest.approx(0.0685, abs=1e-4)

    def test_direct_formula(self):
        # 2 * 0.25 * ln 4 / (1 * 2)
        p = CalibrationParams(k=4, n=12, sigma=0.5, kappa_mu=1.0, d_f=2.0, b_mu=0.22)
        assert p.sigma_f2 == pytest.approx(0.34657, abs=1e-5)

    @pytest.mark.parametrize("sigma,kappa,d", [(0.0, 1.8, 3.0), (0.4, 0.0, 3.0), (0.4, 1.8, 0.0)])
    def test_domain_errors(self, sigma, kappa, d):
        # checked whether or not sigma_f2 overrides the canonical value
        name = ("sigma", "kappa_mu", "d_f")[(sigma, kappa, d).index(0.0)]
        for sigma_f2 in (None, 0.5):
            with pytest.raises(ValueError, match=f"{name} must be positive, got 0.0"):
                CalibrationParams(k=8, n=12, sigma=sigma, kappa_mu=kappa, d_f=d, b_mu=0.22,
                                  sigma_f2=sigma_f2)

    def test_override_skips_the_canonical_formula(self):
        # kappa_mu**2 underflows to 0: only the canonical value divides by it
        p = CalibrationParams(k=8, n=12, sigma=0.4, kappa_mu=1e-200, d_f=3.0, b_mu=0.22,
                              sigma_f2=0.1)
        assert p.sigma_f2 == 0.1
        with pytest.raises(ZeroDivisionError):
            CalibrationParams(k=8, n=12, sigma=0.4, kappa_mu=1e-200, d_f=3.0, b_mu=0.22)

    @pytest.mark.parametrize("field,value", [("k", 16), ("sigma", 0.45), ("kappa_mu", 2.4),
                                             ("d_f", 4.0)])
    def test_replace_rederives_the_canonical_value(self, field, value):
        # a copy's canonical sigma_f2 follows its own k, sigma, kappa_mu and d_f
        fields = dict(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0, b_mu=0.22)
        copy = CalibrationParams(**fields)._replace(**{field: value})
        direct = CalibrationParams(**{**fields, field: value})
        assert copy == direct and copy.sigma_f2 == direct.sigma_f2
        assert critical_bias(copy) == critical_bias(direct)

    def test_override_survives_replace(self):
        p = CalibrationParams(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0, b_mu=0.22,
                              sigma_f2=0.5)
        assert p._replace(b_mu=0.30).sigma_f2 == 0.5
        assert p._replace(k=16).sigma_f2 == 0.5


class TestChannelCapacity:
    def test_working_point(self):
        assert channel_capacity(0.22, WORKING) == pytest.approx(0.796, abs=1e-3)

    def test_infinite_bias_limit(self):
        assert channel_capacity(1e9, WORKING) < 1e-9

    def test_zero_bias(self):
        # 1.5 * ln(1 + 2 ln 8 / 3), and bounded by the prior entropy
        assert channel_capacity(0.0, WORKING) == pytest.approx(1.3046, abs=1e-3)
        assert channel_capacity(0.0, WORKING) <= WORKING.h_mu

    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError):
            channel_capacity(-0.1, WORKING)

    @settings(max_examples=200)
    @given(params_st, st.floats(0.0, 5.0), st.floats(1e-6, 5.0))
    def test_strictly_decreasing(self, p, b1, db):
        assert channel_capacity(b1, p) > channel_capacity(b1 + db, p)

    @settings(max_examples=200)
    @given(params_st)
    def test_canonical_identity_and_entropy_bound(self, p):
        expected = 0.5 * p.d_f * math.log(1.0 + 2.0 * p.h_mu / p.d_f)
        assert channel_capacity(0.0, p) == pytest.approx(expected, abs=1e-9)
        assert channel_capacity(0.0, p) <= p.h_mu + 1e-12

    @settings(max_examples=100)
    @given(params_st, st.floats(0.2, 5.0))
    def test_kappa_invariant_numerator(self, p, kappa2):
        # kappa^2 * sigma_f2 does not depend on kappa under the canonical rule
        p2 = CalibrationParams.canonical(k=p.k, n=p.n, sigma=p.sigma,
                                         kappa_mu=kappa2, d_f=p.d_f, b_mu=p.b_mu)
        assert p.kappa_mu**2 * p.sigma_f2 == pytest.approx(
            kappa2**2 * p2.sigma_f2, rel=1e-12)


class TestResidualEntropy:
    def test_working_point(self):
        assert residual_entropy(math.log(8), 0.796) == pytest.approx(1.283, abs=1e-3)

    def test_no_information(self):
        assert residual_entropy(math.log(8), 0.0) == math.log(8)

    def test_clamped(self):
        assert residual_entropy(math.log(8), 5.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            residual_entropy(-1.0, 0.0)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    def test_in_range(self, h, r):
        assert 0.0 <= residual_entropy(h, r) <= h


class TestBiasInversion:
    def test_default_working_target(self):
        b = solve_bias_for_capacity(math.log(8) / 12, WORKING)
        assert b == pytest.approx(0.714, abs=1e-3)

    def test_endpoint(self):
        b = solve_bias_for_capacity(channel_capacity(0.0, WORKING), WORKING)
        assert b == pytest.approx(0.0, abs=1e-7)

    def test_unreachable(self):
        assert solve_bias_for_capacity(math.log(8), WORKING) is None

    @settings(max_examples=200)
    @given(params_st, st.floats(1e-4, 1.0))
    def test_inverse_consistency(self, p, frac):
        target = frac * channel_capacity(0.0, p)
        if target <= 0:
            return
        b = solve_bias_for_capacity(target, p)
        assert channel_capacity(b, p) == pytest.approx(target, rel=1e-9)


class TestCriticalBias:
    def test_working_point(self):
        assert critical_bias(WORKING) == pytest.approx(0.714, abs=1e-3)

    def test_low_kappa(self):
        p = CalibrationParams.canonical(k=8, n=12, sigma=0.40, kappa_mu=0.6,
                                        d_f=3.0, b_mu=0.22)
        assert critical_bias(p) == pytest.approx(2.14, abs=0.01)

    def test_single_cycle_unreachable(self):
        p = CalibrationParams.canonical(k=8, n=1, sigma=0.40, kappa_mu=1.8,
                                        d_f=3.0, b_mu=0.22)
        assert critical_bias(p) is None

    def test_closed_form_agreement(self):
        h, d = WORKING.h_mu, WORKING.d_f
        expected = (WORKING.sigma / WORKING.kappa_mu) * math.sqrt(
            (2 * h / d) / math.expm1(2 * h / (d * WORKING.n)) - 1)
        assert critical_bias(WORKING) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=100)
    @given(params_st, st.floats(0.0, 3.0))
    def test_independent_of_b_mu(self, p, other_b):
        p2 = CalibrationParams.canonical(k=p.k, n=p.n, sigma=p.sigma,
                                         kappa_mu=p.kappa_mu, d_f=p.d_f, b_mu=other_b)
        b1 = critical_bias(p)
        if b1 is None:
            assert critical_bias(p2) is None
            return
        assert critical_bias(p2) == pytest.approx(b1, rel=1e-12)


def regime_at(p, b_mu):
    return certificate_report(p._replace(b_mu=b_mu)).regime


class TestRegime:
    def test_working_point_efficient(self):
        assert regime_at(WORKING, 0.22) is Regime.DATA_EFFICIENT
        assert critical_bias(WORKING) / 0.22 == pytest.approx(3.24, abs=0.02)

    def test_boundary_exclusive(self):
        b_crit = critical_bias(WORKING)
        assert regime_at(WORKING, b_crit) is Regime.BASELINE
        assert regime_at(WORKING, b_crit + 1e-9) is Regime.BASELINE

    def test_sweep_point(self):
        assert regime_at(WORKING, 0.40) is Regime.DATA_EFFICIENT

    def test_unreachable_is_its_own_regime(self):
        p = CalibrationParams.canonical(k=8, n=1, sigma=0.40, kappa_mu=1.8,
                                        d_f=3.0, b_mu=0.22)
        assert regime_at(p, 0.0) is Regime.UNREACHABLE


class TestEnvelopes:
    def test_lower(self):
        assert lb_envelope(8, 12, 1.283) == pytest.approx(7.70, abs=0.05)
        assert lb_envelope(8, 12, 0.0) == 0.0
        assert lb_envelope(8, 200, 0.1794) == pytest.approx(11.75, abs=0.05)

    def test_upper(self):
        assert ub_envelope(8, 12, 1.283) == pytest.approx(11.10, abs=0.05)

    def test_published_ratio(self):
        ratio = ub_envelope(8, 12, 1.283) / lb_envelope(8, 12, 1.283)
        assert ratio == pytest.approx(1.442, abs=0.01)

    def test_single_arm_rejected(self):
        with pytest.raises(ValueError):
            ub_envelope(1, 12, 1.0)
        with pytest.raises(ValueError):
            lb_envelope(1, 12, 1.0)

    @given(st.integers(2, 64), st.integers(1, 1000), st.floats(1e-6, 10.0))
    def test_ratio_is_sqrt_log_k(self, k, n, h):
        assert ub_envelope(k, n, h) / lb_envelope(k, n, h) == pytest.approx(
            math.sqrt(math.log(k)), rel=1e-12)


class TestSampleRatio:
    def test_values(self):
        assert sample_complexity_ratio(math.log(8), 1.283) == pytest.approx(1.62, abs=0.02)
        assert sample_complexity_ratio(math.log(8), 0.1794) == pytest.approx(11.6, abs=0.2)
        assert sample_complexity_ratio(1.7, 1.7) == 1.0

    def test_fully_identified(self):
        assert sample_complexity_ratio(1.0, 0.0) == math.inf


class TestReport:
    def test_working_report(self):
        rep = certificate_report(WORKING)
        assert rep.regime is Regime.DATA_EFFICIENT
        assert rep.critical_bias == pytest.approx(0.714, abs=1e-3)
        assert 0.0 <= rep.residual_entropy_floor <= WORKING.h_mu
        assert not rep.capacity_exceeds_entropy

    @pytest.mark.parametrize("target", [0.05, 0.1, 0.5, WORKING.h_mu / WORKING.n])
    def test_target_matches_solver(self, target):
        rep = certificate_report(WORKING, target)
        b_crit = solve_bias_for_capacity(target, WORKING)
        assert rep.target == target
        assert rep.critical_bias == b_crit
        assert rep.bias_ratio == b_crit / WORKING.b_mu
        assert rep.regime is (Regime.DATA_EFFICIENT if WORKING.b_mu < b_crit
                              else Regime.BASELINE)

    def test_unreachable_target(self):
        rep = certificate_report(WORKING, 10.0)
        assert rep.critical_bias is None and rep.bias_ratio is None
        assert rep.regime is Regime.UNREACHABLE
        assert solve_bias_for_capacity(10.0, WORKING) is None

    def test_non_canonical_flag(self):
        p = CalibrationParams(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0,
                              b_mu=0.0, sigma_f2=50.0)
        rep = certificate_report(p)
        assert rep.capacity_exceeds_entropy

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CalibrationParams.canonical(k=1, n=12, sigma=0.4, kappa_mu=1.8,
                                        d_f=3.0, b_mu=0.22)
        with pytest.raises(ValueError):
            CalibrationParams.canonical(k=8, n=0, sigma=0.4, kappa_mu=1.8,
                                        d_f=3.0, b_mu=0.22)

    def test_plain_constructor_is_canonical(self):
        p = CalibrationParams(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0, b_mu=0.22)
        assert p == WORKING
        assert p.h_mu == math.log(8)
        assert p.sigma_f2 == 2.0 * 0.40**2 * math.log(8) / (1.8**2 * 3.0)
        q = CalibrationParams(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0, b_mu=0.22,
                              sigma_f2=0.5)
        assert q.h_mu == math.log(8) and q.sigma_f2 == 0.5

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_checked_before_log(self, k):
        for sigma_f2 in (None, 0.5):
            with pytest.raises(ValueError, match=f"k must be >= 2, got {k}"):
                CalibrationParams(k=k, n=12, sigma=0.4, kappa_mu=1.8, d_f=3.0, b_mu=0.22,
                                  sigma_f2=sigma_f2)

    @pytest.mark.parametrize("k", [8.5, math.inf, math.nan])
    def test_non_integer_k_rejected(self, k):
        for sigma_f2 in (None, 0.5):
            with pytest.raises(ValueError, match=f"k must be an integer, got {k}"):
                CalibrationParams(k=k, n=12, sigma=0.4, kappa_mu=1.8, d_f=3.0, b_mu=0.22,
                                  sigma_f2=sigma_f2)

    def test_integral_float_k_stored_as_int(self):
        p = CalibrationParams(k=8.0, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0, b_mu=0.22)
        assert type(p.k) is int and p == WORKING

    @pytest.mark.parametrize("sigma_f2", [-1.0, math.nan, math.inf])
    def test_bad_sigma_f2_rejected(self, sigma_f2):
        with pytest.raises(ValueError, match="sigma_f2"):
            CalibrationParams(k=8, n=12, sigma=0.4, kappa_mu=1.8, d_f=3.0, b_mu=0.22,
                              sigma_f2=sigma_f2)


def _params(**count):
    return CalibrationParams(**{**dict(k=8, n=12, sigma=0.4, kappa_mu=1.8, d_f=3.0, b_mu=0.22),
                                **count})


_ARM_MEANS = build_environment(8, 0, 0.85, 0.20)
_FLAT = (np.ones(8), np.ones(8))

# entry point: (count name, minimum, an accepted value, a call returning the stored count
# or the result)
COUNT_SITES = {
    "CalibrationParams.k": ("k", 2, 8, lambda v: _params(k=v).k),
    "CalibrationParams.n": ("n", 1, 8, lambda v: _params(n=v).n),
    "lb_envelope.k": ("k", 2, 8, lambda v: lb_envelope(v, 12, 1.0)),
    "lb_envelope.n": ("n", 1, 8, lambda v: lb_envelope(8, v, 1.0)),
    "ub_envelope.k": ("k", 2, 8, lambda v: ub_envelope(v, 12, 1.0)),
    "ub_envelope.n": ("n", 1, 8, lambda v: ub_envelope(8, v, 1.0)),
    "BurnInParams.k": ("k", 2, 8, lambda v: BurnInParams(0.2, 0.01, 0.2, k=v).k),
    "effective_prior_weight.k": ("k", 2, 8, lambda v: effective_prior_weight(0.2, v)),
    "TwoLevelPrior.k": ("k", 2, 8, lambda v: TwoLevelPrior(k=v, beta=0.5).k),
    "two_level_entropy.k": ("k", 2, 8, lambda v: two_level_entropy(v, 0.5)),
    "solve_prior_for_r_mech.k": ("k", 2, 8, lambda v: solve_prior_for_r_mech(v, 0.5).k),
    "retention_threshold.k": ("k", 2, 8, lambda v: retention_threshold(1.6, v)),
    "r_min.k": ("k", 2, 12, r_min),
    "build_environment.k": ("k", 2, 8, lambda v: build_environment(v, 0, 0.85, 0.2).tolist()),
    "build_environment.optimal": ("optimal", 0, 8,
                                  lambda v: build_environment(10, v, 0.85, 0.2).tolist()),
    "run_trial.horizon": ("horizon", 1, 8,
                          lambda v: run_trial(_FLAT, _ARM_MEANS, v, np.random.default_rng(0))),
    "regret_curves.horizon": ("horizon", 1, 8, lambda v: regret_curves(
        ExperimentConfig(trials=2), [0.0], (12, v)).tolist()),
    "ExperimentConfig.trials": ("trials", 1, 8, lambda v: ExperimentConfig(trials=v).trials),
    "ExperimentConfig.seed": ("seed", 0, 8, lambda v: ExperimentConfig(seed=v).seed),
    "ExperimentConfig.workers": ("workers", 1, 8, lambda v: ExperimentConfig(workers=v).workers),
    "linear_grid.steps": ("steps", 1, 8, lambda v: linear_grid(0.0, 1.0, v)),
}


@pytest.mark.parametrize("name,minimum,good,call", COUNT_SITES.values(), ids=COUNT_SITES)
def test_every_count_follows_one_rule(name, minimum, good, call):
    for bad in (good + 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}, got {minimum - 1}$"):
        call(minimum - 1)
    # an integral float is the same count, stored as an int
    result = call(float(good))
    assert result == call(good) and type(result) is type(call(good))


# each validated type: its valid fields, one bad field and the message it raises
VALIDATED = [
    (CalibrationParams, dict(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0, b_mu=0.22),
     {"b_mu": -0.1}, "b_mu must be non-negative"),
    (BurnInParams, dict(epsilon=0.2, delta=0.01, gap=0.2, k=8), {"gap": math.nan},
     "gap must be finite and non-negative"),
    (SweepSpec, dict(parameter="b_mu", values=[0.1, 0.2], base=WORKING), {"values": []},
     "sweep values must be non-empty"),
    (TwoLevelPrior, dict(k=8, beta=0.5), {"beta": 0.01}, r"beta must lie in \[1/k, 1\]"),
    (JointDistribution, dict(probs=((0.5, 0.0), (0.0, 0.5))), {"probs": ((0.5, 0.5), (0.5, 0.5))},
     "probabilities must sum to 1"),
    (ExperimentConfig, dict(trials=10, seed=3, prior_strength=2.0, workers=1),
     {"workers": 0}, "workers must be >= 1"),
]


@pytest.mark.parametrize("cls, fields, bad, message", VALIDATED,
                         ids=[case[0].__name__ for case in VALIDATED])
def test_every_construction_path_is_checked(cls, fields, bad, message):
    good = cls(**fields)
    broken = {**fields, **bad}
    builds = [lambda: cls(**broken), lambda: cls(*broken.values()),
              lambda: good._replace(**bad), lambda: cls._make(broken.values())]
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()
    name = next(iter(bad))
    with pytest.raises(AttributeError):
        setattr(good, name, bad[name])
    with pytest.raises(AttributeError):
        good.extra = 1
    assert cls._make(good) == good
    copy = pickle.loads(pickle.dumps(good))
    assert (type(copy), copy) == (cls, good)


class _Summary(NamedTuple):
    mean: float
    ci: float


class _Row(NamedTuple):
    a: str
    b: _Summary
    c: float | None


def test_write_csv_names_columns_from_the_row_fields(tmp_path):
    """The header is the first row's field names, a nested record's fields under its
    own name; a string passes through, None is nan and a number takes 6 digits."""
    path = tmp_path / "rows.csv"
    rows = [_Row("x", _Summary(1 / 3, 0.0), None), _Row("y", _Summary(2.0, math.inf), 1e-7)]
    text = write_csv(path, rows)
    assert text == "a,b_mean,b_ci,c\nx,0.333333,0,nan\ny,2,inf,1e-07\n"
    assert path.read_text() == text
