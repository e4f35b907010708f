import math

import numpy as np
import pytest

from mechcert.prior import solve_prior_for_r_mech
from mechcert.sim import (
    TABLE1_HEADER,
    TABLE2_HEADER,
    ExperimentConfig,
    _trial_regret,
    build_environment,
    hybrid_policy,
    regret_curves,
    run_monte_carlo,
    run_trial,
    table1_experiment,
    table2_experiment,
    uninformed_policy,
    write_table1_csv,
    write_table2_csv,
)

FAST = ExperimentConfig(trials=400, seed=42)


class TestEnvironment:
    def test_calibrated_shape(self):
        env = build_environment(8, 3, 0.85, 0.20)
        assert env.means[3] == 0.85
        assert np.sum(env.means == 0.85) == 1
        assert np.all(env.means[np.arange(8) != 3] == 0.20)

    def test_deterministic_env(self):
        env = build_environment(2, 0, 1.0, 0.0)
        assert env.means.tolist() == [1.0, 0.0]

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            build_environment(8, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            build_environment(1, 0, 0.85, 0.20)
        with pytest.raises(ValueError):
            build_environment(8, 9, 0.85, 0.20)


class TestRunTrial:
    def test_horizon_guard(self):
        env = build_environment(8, 0, 0.85, 0.20)
        with pytest.raises(ValueError):
            run_trial(uninformed_policy(8), env, 0, np.random.default_rng(0))

    def test_first_round_uniform(self):
        # with exchangeable Beta(1,1) priors the first pull is uniform,
        # so one-round regret averages (1 - 1/8) * 0.65
        env = build_environment(8, 0, 0.85, 0.20)
        rng = np.random.default_rng(123)
        regrets = np.array([run_trial(uninformed_policy(8), env, 1, rng)
                            for _ in range(4000)])
        assert np.all(np.isclose(regrets, 0.0) | np.isclose(regrets, 0.65))
        assert np.mean(regrets) == pytest.approx((1 - 1 / 8) * 0.65, abs=0.03)

    def test_regret_bounded_by_gap(self):
        env = build_environment(8, 0, 0.85, 0.20)
        rng = np.random.default_rng(9)
        for _ in range(50):
            r = run_trial(uninformed_policy(8), env, 12, rng)
            assert 0.0 <= r <= 12 * 0.65 + 1e-12


class TestHybridEncoding:
    def test_uniform_prior_is_flat(self):
        policy = hybrid_policy(solve_prior_for_r_mech(8, 0.0), strength=2.0)
        assert np.array_equal(policy.alpha0, np.ones(8))
        assert np.array_equal(policy.beta0, np.ones(8))

    def test_informative_prior_tilts(self):
        prior = solve_prior_for_r_mech(8, 1.9, recommended=4)
        policy = hybrid_policy(prior, strength=2.0)
        assert policy.alpha0[4] > 1.0
        assert policy.beta0[4] == 1.0
        assert np.all(policy.alpha0[np.arange(8) != 4] == 1.0)
        assert np.all(policy.beta0[np.arange(8) != 4] > 1.0)


class TestMonteCarlo:
    def test_determinism(self):
        a = run_monte_carlo(FAST, "uninformed", 0.8)
        b = run_monte_carlo(FAST, "uninformed", 0.8)
        assert a == b

    def test_serial_equals_parallel(self):
        serial = run_monte_carlo(FAST, "hybrid", 1.4)
        parallel_cfg = ExperimentConfig(trials=400, seed=42, workers=2)
        parallel = run_monte_carlo(parallel_cfg, "hybrid", 1.4)
        assert serial == parallel

    def test_hybrid_equals_uninformed_at_zero_information(self):
        for t in range(200):
            assert _trial_regret("hybrid", FAST, 0.0, 12, t) == \
                _trial_regret("uninformed", FAST, 0.0, 12, t)

    def test_trial_regret_independent_of_trial_count(self):
        few = regret_curves(FAST, "hybrid", 1.4, (12,))
        many = regret_curves(ExperimentConfig(trials=1000, seed=42), "hybrid", 1.4, (12,))
        assert few.shape == (400, 1)
        assert np.array_equal(few, many[:400])
        for t in (0, 255, 256, 399):
            assert _trial_regret("hybrid", FAST, 1.4, 12, t) == few[t, 0]

    def test_short_horizon_is_prefix_of_long_run(self):
        # Table 2 reads every horizon off one run, so its arms still
        # share optimal-arm draws and the n = 5 column is a prefix
        curves = regret_curves(FAST, "uninformed", 1.9, (5, 200))
        short = regret_curves(FAST, "uninformed", 1.9, (5,))
        assert np.array_equal(curves[:, 0], short[:, 0])
        assert np.all(curves[:, 0] <= curves[:, 1])
        assert run_monte_carlo(FAST, "uninformed", 1.9, n=5) == \
            table2_experiment(FAST, n_values=(5, 200))[0].uninf

    def test_bsa_constant(self):
        s = run_monte_carlo(FAST, "bsa", 0.8)
        assert s.mean == pytest.approx(7.80, abs=1e-12)
        assert s.ci96_halfwidth == pytest.approx(0.0, abs=1e-12)

    def test_uninformed_band(self):
        s = run_monte_carlo(ExperimentConfig(trials=2000, seed=42), "uninformed", 0.0)
        assert 5.75 <= s.mean <= 6.05

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_monte_carlo(FAST, "ucb", 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(r_mech_grid=(0.0, 5.0))


class TestTables:
    def test_table1_structure(self, tmp_path):
        rows = table1_experiment(ExperimentConfig(trials=50, seed=1))
        assert [r.r_mech for r in rows] == [0.0, 0.3, 0.8, 1.4, 1.9]
        assert rows[0].lb_prediction == pytest.approx(1.0, rel=1e-12)
        assert rows[2].h_mech == pytest.approx(1.28, abs=0.01)
        assert rows[4].lb_prediction == pytest.approx(3.40, abs=0.02)
        assert all(r.bsa.mean == pytest.approx(7.80, abs=1e-12) for r in rows)
        path = tmp_path / "table1.csv"
        write_table1_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TABLE1_HEADER
        assert len(lines) == 6
        assert all(len(line.split(",")) == 11 for line in lines[1:])

    def test_table2_structure(self, tmp_path):
        rows = table2_experiment(ExperimentConfig(trials=50, seed=1))
        assert [r.n for r in rows] == [5, 10, 20, 50, 200]
        path = tmp_path / "table2.csv"
        write_table2_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TABLE2_HEADER
        assert len(lines) == 6
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_table2_shared_optimal_draws(self):
        # within a trial index both algorithms face the same optimum,
        # so the hybrid can never do worse than the shared regret cap
        for t in range(50):
            hyb = _trial_regret("hybrid", FAST, 1.9, 5, t)
            uninf = _trial_regret("uninformed", FAST, 1.9, 5, t)
            assert 0.0 <= hyb <= 5 * 0.65 + 1e-12
            assert 0.0 <= uninf <= 5 * 0.65 + 1e-12

    def test_csv_six_significant_digits(self, tmp_path):
        rows = table2_experiment(ExperimentConfig(trials=30, seed=3),
                                 n_values=(5,))
        path = tmp_path / "t2.csv"
        write_table2_csv(rows, path)
        body = path.read_text().splitlines()[1]
        for token in body.split(",")[1:]:
            mantissa = token.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 6
