import ast
import math
import pickle
import re
import sys
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechcert.certificates import (
    HORIZON,
    K,
    P_BSA,
    P_OPT,
    WORKING,
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
from mechcert.prior import (
    BurnInParams,
    JointDistribution,
    TwoLevelPrior,
    check_retention,
    r_min,
    solve_prior_for_r_mech,
)
from mechcert.sim import ExperimentConfig, build_environment, regret_curves, run_trial
from mechcert.sweep import SweepSpec, grid_axis, linear_grid, sweep_1d, sweep_2d

params_st = st.builds(
    CalibrationParams,
    k=st.integers(2, 32),
    n=st.integers(2, 500),
    sigma=st.floats(0.05, 2.0),
    kappa_mu=st.floats(0.1, 5.0),
    d_f=st.floats(0.5, 10.0),
    b_mu=st.floats(0.0, 3.0),
)


class TestCanonicalSigmaF2:
    """The derived sigma_f2, 2*sigma^2*ln k / (kappa_mu^2 * d_f)."""

    def test_working_values(self):
        assert WORKING == CalibrationParams(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0,
                                            b_mu=0.22)
        assert (K, HORIZON, P_OPT, P_BSA) == (8, 12, 0.85, 0.20)
        assert WORKING.sigma_f2 == pytest.approx(0.0685, abs=1e-4)

    def test_direct_formula(self):
        # 2 * 0.25 * ln 4 / (1 * 2)
        p = CalibrationParams(k=4, n=12, sigma=0.5, kappa_mu=1.0, d_f=2.0, b_mu=0.22)
        assert p.sigma_f2 == pytest.approx(0.34657, abs=1e-5)

    @pytest.mark.parametrize("field,value", [("k", 16), ("sigma", 0.45), ("kappa_mu", 2.4),
                                             ("d_f", 4.0)])
    def test_replace_rederives_the_canonical_value(self, field, value):
        # a copy's canonical sigma_f2 follows its own k, sigma, kappa_mu and d_f
        fields = WORKING._asdict()
        copy = CalibrationParams(**fields)._replace(**{field: value})
        direct = CalibrationParams(**{**fields, field: value})
        assert copy == direct and copy.sigma_f2 == direct.sigma_f2
        assert critical_bias(copy) == critical_bias(direct)

    @pytest.mark.parametrize("field,value", [("kappa_mu", 1e-160), ("d_f", 1e-320)])
    def test_overflow_rejected(self, field, value):
        fields = WORKING._asdict()
        with pytest.raises(OverflowError, match="^canonical sigma_f2 overflows: inf$"):
            CalibrationParams(**{**fields, field: value})


class TestChannelCapacity:
    def test_working_point(self):
        assert channel_capacity(0.22, WORKING) == pytest.approx(0.796, abs=1e-3)

    def test_infinite_bias_limit(self):
        assert channel_capacity(1e9, WORKING) < 1e-9

    def test_zero_bias(self):
        # 1.5 * ln(1 + 2 ln 8 / 3), and bounded by the prior entropy
        assert channel_capacity(0.0, WORKING) == pytest.approx(1.3046, abs=1e-3)
        assert channel_capacity(0.0, WORKING) <= WORKING.h_mu

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
        p2 = CalibrationParams(k=p.k, n=p.n, sigma=p.sigma,
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
        p = WORKING._replace(kappa_mu=0.6)
        assert critical_bias(p) == pytest.approx(2.14, abs=0.01)

    def test_single_cycle_unreachable(self):
        p = WORKING._replace(n=1)
        assert critical_bias(p) is None

    def test_closed_form_agreement(self):
        h, d = WORKING.h_mu, WORKING.d_f
        expected = (WORKING.sigma / WORKING.kappa_mu) * math.sqrt(
            (2 * h / d) / math.expm1(2 * h / (d * WORKING.n)) - 1)
        assert critical_bias(WORKING) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=100)
    @given(params_st, st.floats(0.0, 3.0))
    def test_independent_of_b_mu(self, p, other_b):
        p2 = CalibrationParams(k=p.k, n=p.n, sigma=p.sigma,
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
        p = WORKING._replace(n=1)
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

    def test_plain_constructor_is_canonical(self):
        p = CalibrationParams(k=8, n=12, sigma=0.40, kappa_mu=1.8, d_f=3.0, b_mu=0.22)
        assert p == CalibrationParams.canonical(k=8, n=12, sigma=0.40, kappa_mu=1.8,
                                                d_f=3.0, b_mu=0.22)
        assert p.h_mu == math.log(8)
        assert p.sigma_f2 == 2.0 * 0.40**2 * math.log(8) / (1.8**2 * 3.0)
        # sigma_f2 is derived, never stored, and the report has no flag for an override
        assert p._fields == ("k", "n", "sigma", "kappa_mu", "d_f", "b_mu")
        assert "capacity_exceeds_entropy" not in certificate_report(p)._fields

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_checked_before_log(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 2, got {k}"):
            CalibrationParams(k=k, n=12, sigma=0.4, kappa_mu=1.8, d_f=3.0, b_mu=0.22)


_ARM_MEANS = build_environment(8, 0, P_OPT, P_BSA)
_FLAT = (np.ones(8), np.ones(8))

# entry point: (count name, minimum, an accepted value, a call returning the stored count
# or the result)
COUNT_SITES = {
    "CalibrationParams.k": ("k", 2, 8, lambda v: WORKING._replace(k=v).k),
    "CalibrationParams.n": ("n", 1, 8, lambda v: WORKING._replace(n=v).n),
    "lb_envelope.k": ("k", 2, 8, lambda v: lb_envelope(v, 12, 1.0)),
    "lb_envelope.n": ("n", 1, 8, lambda v: lb_envelope(8, v, 1.0)),
    "ub_envelope.k": ("k", 2, 8, lambda v: ub_envelope(v, 12, 1.0)),
    "ub_envelope.n": ("n", 1, 8, lambda v: ub_envelope(8, v, 1.0)),
    "BurnInParams.k": ("k", 2, 8, lambda v: BurnInParams(0.2, 0.01, 0.2, k=v).k),
    "TwoLevelPrior.k": ("k", 2, 8, lambda v: TwoLevelPrior(k=v, beta=0.5).k),
    "solve_prior_for_r_mech.k": ("k", 2, 8, lambda v: solve_prior_for_r_mech(v, 0.5).k),
    "check_retention.k": ("k", 2, 8, lambda v: check_retention(1.6, v, 0.0)),
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


# entry point: (input name, its interval as the message prints it, the interval's lower
# and upper bound, an accepted value, a call returning the stored value or the result)
REAL_SITES = {
    "CalibrationParams.sigma": ("sigma", "(0, inf)", 0.0, math.inf, 0.4,
                                lambda v: WORKING._replace(sigma=v).sigma),
    "CalibrationParams.kappa_mu": ("kappa_mu", "(0, inf)", 0.0, math.inf, 1.8,
                                   lambda v: WORKING._replace(kappa_mu=v).kappa_mu),
    "CalibrationParams.d_f": ("d_f", "(0, inf)", 0.0, math.inf, 3.0,
                              lambda v: WORKING._replace(d_f=v).d_f),
    "CalibrationParams.b_mu": ("b_mu", "[0, inf)", 0.0, math.inf, 0.22,
                               lambda v: WORKING._replace(b_mu=v).b_mu),
    "channel_capacity.b_mu": ("b_mu", "[0, inf)", 0.0, math.inf, 0.22,
                              lambda v: channel_capacity(v, WORKING)),
    "residual_entropy.h_mu": ("h_mu", "[0, inf)", 0.0, math.inf, 2.0,
                              lambda v: residual_entropy(v, 0.5)),
    "residual_entropy.r_mech": ("r_mech", "[0, inf)", 0.0, math.inf, 0.5,
                                lambda v: residual_entropy(2.0, v)),
    "solve_bias_for_capacity.target": ("target", "(0, inf)", 0.0, math.inf, 0.1,
                                       lambda v: solve_bias_for_capacity(v, WORKING)),
    "lb_envelope.h_mech": ("h_mech", "[0, inf)", 0.0, math.inf, 1.0,
                           lambda v: lb_envelope(8, 12, v)),
    "ub_envelope.h_mech": ("h_mech", "[0, inf)", 0.0, math.inf, 1.0,
                           lambda v: ub_envelope(8, 12, v)),
    "sample_complexity_ratio.h_mu": ("h_mu", "[0, inf)", 0.0, math.inf, 2.0,
                                     lambda v: sample_complexity_ratio(v, 0.0)),
    "sample_complexity_ratio.h_mech": ("h_mech", "[0, 2]", 0.0, 2.0, 1.0,
                                       lambda v: sample_complexity_ratio(2.0, v)),
    "BurnInParams.epsilon": ("epsilon", "(0, 1)", 0.0, 1.0, 0.2,
                             lambda v: BurnInParams(v, 0.01, 0.2, 8).epsilon),
    "BurnInParams.delta": ("delta", "(0, 0.5)", 0.0, 0.5, 0.01,
                           lambda v: BurnInParams(0.2, v, 0.2, 8).delta),
    "BurnInParams.gap": ("gap", "[0, inf)", 0.0, math.inf, 0.2,
                         lambda v: BurnInParams(0.2, 0.01, v, 8).gap),
    "check_retention.r_train": ("r_train", "[0, inf)", 0.0, math.inf, 1.6,
                                lambda v: check_retention(v, 12, 0.0)),
    "check_retention.delta_pi": ("delta_pi", "[0, inf)", 0.0, math.inf, 0.005,
                                 lambda v: check_retention(1.6, 12, v)),
    # beta's bounds carry 1e-12 of slack at each end
    "TwoLevelPrior.beta": ("beta", "[0.125, 1]", 1 / 8 - 1e-12, 1 + 1e-12, 0.5,
                           lambda v: TwoLevelPrior(8, v).beta),
    "solve_prior_for_r_mech.r_mech": ("r_mech", "[0, 2.07944]", 0.0, math.log(8) + 1e-12, 1.9,
                                      lambda v: solve_prior_for_r_mech(8, v).beta),
    "JointDistribution.probs": ("probs entry", "[0, inf)", 0.0, math.inf, 0.2,
                                lambda v: JointDistribution([[v, 0.5 - v], [0.25, 0.25]]).probs),
    # strength * K must stay finite, and K = 8
    "ExperimentConfig.prior_strength": ("prior_strength", "[0, 2.24712e+307]", 0.0,
                                        sys.float_info.max / 8, 2.0,
                                        lambda v: ExperimentConfig(prior_strength=v)),
    "sweep_1d.p_opt": ("p_opt", "(0, 1)", 0.0, 1.0, 0.85,
                       lambda v: sweep_1d(SweepSpec("p_opt", [v], WORKING))),
    # a sweep checks every b_mu value before its first solve, on either axis of a grid
    "sweep_1d.b_mu": ("b_mu", "[0, inf)", 0.0, math.inf, 0.22,
                      lambda v: sweep_1d(SweepSpec("b_mu", [0.2, v], WORKING))),
    "sweep_2d.b_mu.x": ("b_mu", "[0, inf)", 0.0, math.inf, 0.22, lambda v: sweep_2d(
        SweepSpec("b_mu", [0.2, v], WORKING), grid_axis("kappa_mu", WORKING, 3))),
    "sweep_2d.b_mu.y": ("b_mu", "[0, inf)", 0.0, math.inf, 0.22, lambda v: sweep_2d(
        grid_axis("kappa_mu", WORKING, 3), SweepSpec("b_mu", [0.2, v], WORKING))),
}


@pytest.mark.parametrize("name,interval,lo,hi,good,call", REAL_SITES.values(), ids=REAL_SITES)
def test_every_real_follows_one_rule(name, interval, lo, hi, good, call):
    closed_lo, closed_hi = interval.startswith("["), interval.endswith("]")
    outside = [math.nan, math.inf, -math.inf,
               math.nextafter(lo, -math.inf) if closed_lo else lo]
    if hi < math.inf:
        outside.append(math.nextafter(hi, math.inf) if closed_hi else hi)
    for bad in outside:
        message = f"{name} must lie in {interval}, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    call(good)
    # a closed bound is itself accepted
    if closed_lo:
        call(lo)
    if closed_hi:
        call(hi)


# each validated type: its valid fields, one bad field and the message it raises; the
# count and real rules' messages are tested site by site above
VALIDATED = [
    (CalibrationParams, WORKING._asdict(), {"k": 1}, "k must be >= 2"),
    (BurnInParams, dict(epsilon=0.2, delta=0.01, gap=0.2, k=8), {"k": 1}, "k must be >= 2"),
    (SweepSpec, dict(parameter="b_mu", values=[0.1, 0.2], base=WORKING), {"values": []},
     "sweep values must be non-empty"),
    (TwoLevelPrior, dict(k=8, beta=0.5), {"k": 1}, "k must be >= 2"),
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


def test_every_value_error_test_names_its_message():
    """A ValueError test without `match=` passes on any ValueError, the wrong one
    included. So an input rule's rejection is a row of the tables above, and every
    other ValueError test under tests/ names its message. AttributeError and
    TypeError tests are exempt: their wording is CPython's own and varies between
    versions."""
    blind = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
             and [ast.unparse(arg) for arg in node.args] == ["ValueError"]
             and "match" not in [kw.arg for kw in node.keywords]]
    assert blind == []


def test_every_imported_name_is_read():
    """Each module of the package and of tests/ reads every name it imports, so no
    import outlives the code that used it (`from __future__` aside)."""
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in [*sorted((root / "src" / "mechcert").glob("*.py")),
                 *sorted((root / "tests").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                # `import a.b` binds `a`
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in bound
                           if name not in read]
    assert unused == []


class _Summary(NamedTuple):
    mean: float
    ci: float


class _Row(NamedTuple):
    a: str
    b: _Summary
    c: float


class _Flat(NamedTuple):
    a: str
    n: int
    c: float


def test_write_csv_names_columns_from_the_row_fields(tmp_path):
    """The header is the first row's field names, a nested record's fields under its
    own name; a string passes through and a number takes 6 digits. One format, taken
    from the first row, writes every row: a None cell, a later row of another shape,
    or text or a record in a number column raises TypeError."""
    path = tmp_path / "rows.csv"
    cases = [
        ([_Flat("x", 123456789, np.float64(1 / 3)), _Flat("y", np.int64(-7), 0.0)],
         "a,n,c\nx,1.23457e+08,0.333333\ny,-7,0\n"),
        ([_Flat("x", 3, math.inf), _Flat("y", 4, -math.inf), _Flat("z", 5, math.nan)],
         "a,n,c\nx,3,inf\ny,4,-inf\nz,5,nan\n"),
        ([_Row("z", _Summary(0.5, 1e300), 3.0)], "a,b_mean,b_ci,c\nz,0.5,1e+300,3\n"),
    ]
    for rows, expected in cases:
        text = write_csv(path, rows)
        assert text == expected
        assert path.read_text() == text
    for rows in [
        [_Row("x", _Summary(1 / 3, 0.0), None), _Row("y", _Summary(2.0, math.inf), 1e-7)],
        [_Flat("x", 1, 0.5), _Flat("y", 2, None)],
        [_Row("x", _Summary(0.5, 1.0), 3.0), _Flat("y", 2, 0.5)],
        [_Flat("x", 1, 0.5), _Row("y", _Summary(0.5, 1.0), 3.0)],
        [_Flat("x", 1, 0.5), _Flat("y", "2", 0.5)],
    ]:
        with pytest.raises(TypeError):
            write_csv(path, rows)


_TEXT = st.text(max_size=8)
_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                     1e300, -1e300]),
    st.integers(-10**20, 10**20),
    st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)
# a column is text or a number, or a nested record of such columns
_LEAF = st.sampled_from(["text", "number"])
_SCHEMA = st.lists(st.one_of(_LEAF, st.lists(_LEAF, min_size=1, max_size=3)),
                   min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_write_csv_matches_an_independent_oracle(tmp_path_factory, data):
    """Every line is the row's leaves in order, text as given and every number as
    `format(x, ".6g")`, under `<field>_<subfield>` names for a nested record."""
    schema = data.draw(_SCHEMA)
    outer = namedtuple("Outer", [f"f{i}" for i in range(len(schema))])
    inner = [namedtuple(f"Inner{i}", [f"g{j}" for j in range(len(kind))])
             if isinstance(kind, list) else None for i, kind in enumerate(schema)]
    names = []
    for i, kind in enumerate(schema):
        names += [f"f{i}_g{j}" for j in range(len(kind))] if inner[i] else [f"f{i}"]
    draw_leaf = {"text": _TEXT, "number": _NUMBERS}
    rows, lines = [], [",".join(names)]
    for _ in range(data.draw(st.integers(1, 4))):
        fields, leaves = [], []
        for i, kind in enumerate(schema):
            values = [data.draw(draw_leaf[leaf]) for leaf in (kind if inner[i] else [kind])]
            fields.append(inner[i]._make(values) if inner[i] else values[0])
            leaves += values
        rows.append(outer._make(fields))
        lines.append(",".join([x if isinstance(x, str) else format(x, ".6g") for x in leaves]))
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    assert write_csv(path, rows) == "\n".join(lines) + "\n"
    with open(path, newline="") as fh:  # a text cell may hold "\r"
        assert fh.read() == "\n".join(lines) + "\n"
