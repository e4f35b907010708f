import hashlib
import math

import numpy as np
import pytest

from mechcert import sim
from mechcert.prior import solve_prior_for_r_mech
from mechcert.sim import (
    BLOCK_SIZE,
    P_BSA,
    P_OPT,
    R_MECH_GRID,
    TABLE1_HEADER,
    TABLE2_HEADER,
    ExperimentConfig,
    _block_regrets,
    build_environment,
    hybrid_policy,
    regret_curves,
    run_monte_carlo,
    run_trial,
    table1_experiment,
    table2_experiment,
    write_table1_csv,
    write_table2_csv,
)

FAST = ExperimentConfig(trials=400, seed=42)
UNINFORMED = hybrid_policy(solve_prior_for_r_mech(8, 0.0), strength=0.0)


class TestEnvironment:
    def test_calibrated_shape(self):
        means = build_environment(8, 3, 0.85, 0.20)
        assert means[3] == 0.85
        assert np.sum(means == 0.85) == 1
        assert np.all(means[np.arange(8) != 3] == 0.20)

    def test_deterministic_env(self):
        assert build_environment(2, 0, 1.0, 0.0).tolist() == [1.0, 0.0]

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
            run_trial(UNINFORMED, env, 0, np.random.default_rng(0))

    def test_first_round_uniform(self):
        # with exchangeable Beta(1,1) priors the first pull is uniform,
        # so one-round regret averages (1 - 1/8) * 0.65
        env = build_environment(8, 0, 0.85, 0.20)
        rng = np.random.default_rng(123)
        regrets = np.array([run_trial(UNINFORMED, env, 1, rng)
                            for _ in range(4000)])
        assert np.all(np.isclose(regrets, 0.0) | np.isclose(regrets, 0.65))
        assert np.mean(regrets) == pytest.approx((1 - 1 / 8) * 0.65, abs=0.03)

    def test_regret_bounded_by_gap(self):
        env = build_environment(8, 0, 0.85, 0.20)
        rng = np.random.default_rng(9)
        for _ in range(50):
            r = run_trial(UNINFORMED, env, 12, rng)
            assert 0.0 <= r <= 12 * 0.65 + 1e-12


class TestHybridEncoding:
    def test_uniform_prior_is_flat(self):
        alpha0, beta0 = hybrid_policy(solve_prior_for_r_mech(8, 0.0), strength=2.0)
        assert np.array_equal(alpha0, np.ones(8))
        assert np.array_equal(beta0, np.ones(8))

    def test_informative_prior_tilts(self):
        alpha0, beta0 = hybrid_policy(solve_prior_for_r_mech(8, 1.9), strength=2.0)
        assert alpha0[0] > 1.0
        assert beta0[0] == 1.0
        assert np.all(alpha0[1:] == 1.0)
        assert np.all(beta0[1:] > 1.0)

    def test_zero_strength_is_uninformed(self):
        for r_mech in (0.0, 1.9, math.log(8)):
            alpha0, beta0 = hybrid_policy(solve_prior_for_r_mech(8, r_mech), strength=0.0)
            assert np.array_equal(alpha0, np.ones(8))
            assert np.array_equal(beta0, np.ones(8))


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

    def test_trial_regret_independent_of_trial_count(self):
        few = regret_curves(FAST, [(2.0, 1.4)], (12,))[0]
        many = regret_curves(ExperimentConfig(trials=1000, seed=42), [(2.0, 1.4)], (12,))[0]
        assert few.shape == (400, 1)
        assert np.array_equal(few, many[:400])
        prior = solve_prior_for_r_mech(8, 1.4)
        for t in (0, 255, 256, 399):
            block, row = divmod(t, BLOCK_SIZE)
            assert _block_regrets(42, 2.0, prior, (12,), block)[row, 0] == few[t, 0]

    def test_short_horizon_is_prefix_of_long_run(self):
        # Table 2 reads every horizon off one run, so its arms still
        # share optimal-arm draws and the n = 5 column is a prefix
        curves = regret_curves(FAST, [(0.0, 1.9)], (5, 200))[0]
        short = regret_curves(FAST, [(0.0, 1.9)], (5,))[0]
        assert np.array_equal(curves[:, 0], short[:, 0])
        assert np.all(curves[:, 0] <= curves[:, 1])
        assert run_monte_carlo(FAST, "uninformed", 1.9, n=5) == table2_experiment(FAST)[0].uninf

    def test_unordered_and_repeated_horizons(self):
        cells = [(2.0, 1.4), (0.0, 0.8)]
        curves = regret_curves(FAST, cells, (12, 5, 12))
        twelve = regret_curves(FAST, cells, (12,))[:, :, 0]
        assert np.array_equal(curves[:, :, 0], twelve)
        assert np.array_equal(curves[:, :, 1], regret_curves(FAST, cells, (5,))[:, :, 0])
        assert np.array_equal(curves[:, :, 2], twelve)

    def test_regret_curves_rejects_horizon_below_one(self):
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            regret_curves(FAST, [(2.0, 1.4)], (12, 0))

    def test_cell_independent_of_its_companions(self):
        config = ExperimentConfig(trials=300, seed=11, workers=2)
        # the second list repeats a cell and has flat cells, which share one simulation
        for cells in ([(2.0, 1.9), (0.0, 0.3), (5.0, 0.8)],
                      [(2, 1.9), (0, 0.3), (2, 1.9), (5, 0), (0, 1.4)]):
            together = regret_curves(config, cells, (3, 12))
            assert together.shape == (len(cells), 300, 2)
            for i, cell in enumerate(cells):
                assert np.array_equal(together[i], regret_curves(config, [cell], (3, 12))[0])

    @pytest.mark.parametrize("block", [0, 1])
    def test_flat_block_independent_of_strength_and_r_mech(self, block):
        # the optimum is drawn before the recommendation, so a policy whose
        # pseudo-counts are all 1 follows one path at every strength and r_mech:
        # what lets regret_curves simulate every flat cell once
        flat = _block_regrets(7, 0.0, solve_prior_for_r_mech(8, 0.0), (1, 12, 200), block)
        cells = [(s, 0.0) for s in (0.0, 2.0, 5.0)] + [(0.0, r) for r in R_MECH_GRID]
        for strength, r_mech in cells:
            got = _block_regrets(7, strength, solve_prior_for_r_mech(8, r_mech), (1, 12, 200),
                                 block)
            assert np.array_equal(got, flat), (strength, r_mech)

    @pytest.mark.parametrize("experiment,strength,calls", [
        (table1_experiment, 2.0, 10), (table1_experiment, 0.0, 2),
        (table2_experiment, 2.0, 4), (table2_experiment, 0.0, 2),
    ])
    def test_each_distinct_cell_simulated_once(self, monkeypatch, experiment, strength,
                                               calls):
        # 300 trials are two blocks; Table 1 has four informed cells and one
        # flat one, Table 2 one of each, and at strength 0 every cell is flat
        seen = []

        def counting(*job):
            seen.append(job)
            return _block_regrets(*job)

        monkeypatch.setattr(sim, "_block_regrets", counting)
        experiment(ExperimentConfig(trials=300, seed=5, prior_strength=strength))
        assert len(seen) == calls
        assert len(set(seen)) == calls

    @pytest.mark.parametrize("experiment,levels", [
        (table1_experiment, {0.0, 0.3, 0.8, 1.4, 1.9}), (table2_experiment, {0.0, 1.9}),
    ])
    def test_each_level_solved_once(self, monkeypatch, experiment, levels):
        # 600 trials are three blocks; the blocks share one prior per level
        seen = []

        def counting(k, r_mech):
            seen.append(r_mech)
            return solve_prior_for_r_mech(k, r_mech)

        monkeypatch.setattr(sim, "solve_prior_for_r_mech", counting)
        experiment(ExperimentConfig(trials=600, seed=1))
        assert len(seen) == len(levels)
        assert set(seen) == levels

    def test_rejects_bad_r_mech_in_flat_cell(self):
        with pytest.raises(ValueError, match="r_mech must lie in"):
            regret_curves(FAST, [(0.0, 0.3), (0.0, 5.0)], (12,))

    @pytest.mark.parametrize("experiment", [table1_experiment, table2_experiment])
    def test_one_pool_per_table(self, monkeypatch, experiment):
        import concurrent.futures

        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        serial = experiment(ExperimentConfig(trials=300, seed=5))
        assert started == []
        assert experiment(ExperimentConfig(trials=300, seed=5, workers=2)) == serial
        assert started == [2]

    def test_pool_is_capped_at_cpu_count(self, monkeypatch):
        import concurrent.futures

        started = []

        class SerialPool:
            """Records its size and maps in this process: starts no worker."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
        serial = table1_experiment(ExperimentConfig(trials=300, seed=5))
        assert table1_experiment(ExperimentConfig(trials=300, seed=5, workers=10**6)) == serial
        assert started == [3]

    def test_bsa_constant(self):
        for row in table1_experiment(FAST):
            assert row.bsa.mean == pytest.approx(7.80, abs=1e-12)
            assert row.bsa.ci96_halfwidth == 0.0

    def test_one_trial_ci_is_unbounded(self):
        # one sample bounds nothing; the closed-form BSA keeps its exact zero width
        one = ExperimentConfig(trials=1)
        for row in table2_experiment(one):
            assert row.hyb.ci96_halfwidth == row.uninf.ci96_halfwidth == math.inf
        for row in table1_experiment(one):
            assert row.hyb.ci96_halfwidth == row.uninf.ci96_halfwidth == math.inf
            assert row.bsa.ci96_halfwidth == 0.0

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
            ExperimentConfig(workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(prior_strength=-1.0)


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
        regrets = regret_curves(FAST, [(2.0, 1.9), (0.0, 1.9)], (5,))[:, :50]
        assert np.all((0.0 <= regrets) & (regrets <= 5 * 0.65 + 1e-12))

    def test_table1_uninformed_column_is_one_estimate(self):
        config = ExperimentConfig(trials=300, seed=5)
        rows = table1_experiment(config)
        assert all(row.uninf == rows[0].uninf for row in rows)
        for r_mech in R_MECH_GRID:
            assert run_monte_carlo(config, "uninformed", r_mech) == rows[0].uninf
        assert rows[0].hyb == rows[0].uninf

    # The random streams, pinned. A new value here is a declared stream
    # change: list the old and new hashes and the moved values in CHANGES.md.
    @pytest.mark.parametrize("experiment,write,digest", [
        (table1_experiment, write_table1_csv,
         "fdfdd3c57975c5ade048a8b67ba8ab1a17111f41af870d26deeeb2919dda9e43"),
        (table2_experiment, write_table2_csv,
         "eb676b811ee2954efd29ffede8b941f49a0e6a2e7d4d85566b42401516fe41a3"),
    ], ids=["table1", "table2"])
    def test_stream_pinned(self, tmp_path, experiment, write, digest):
        path = tmp_path / "table.csv"
        write(experiment(ExperimentConfig(trials=300, seed=5)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_csv_six_significant_digits(self, tmp_path):
        rows = table2_experiment(ExperimentConfig(trials=30, seed=3))
        path = tmp_path / "t2.csv"
        write_table2_csv(rows, path)
        body = path.read_text().splitlines()[1]
        for token in body.split(",")[1:]:
            mantissa = token.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 6


# Fixed before the first run: seed, trial count, and a tolerance of four
# standard errors of the exact Bernoulli regret plus the quadrature error.
ORACLE_SEED = 0
ORACLE_TRIALS = 20_000
GAP = P_OPT - P_BSA


def first_round_oracle(r_mech: float, strength: float, k: int = 8, points: int = 200_000):
    """Exact expected regret of one round: (regret, quadrature error, P(correct pull)).

    The optimum is the recommended arm with probability beta and each
    other arm with probability alpha. The encoding starts the recommended
    arm at Beta(a, 1) and the others at Beta(1, b), so the first pull is
    the recommended arm with probability q = int f_rec * F_other^(k-1)
    and each other arm with probability (1 - q)/(k - 1). q is a midpoint
    sum; its error is bounded by the change from points/2 to points.
    """
    beta = solve_prior_for_r_mech(k, r_mech).beta
    alpha = (1 - beta) / (k - 1)
    a = 1 + strength * k * (beta - 1 / k)
    b = 1 + strength * k * (1 / k - alpha)

    def q(m):
        x = (np.arange(m) + 0.5) / m
        f_rec = np.exp(math.lgamma(a + 1) - math.lgamma(a) + (a - 1) * np.log(x))
        f_other_cdf = 1 - (1 - x) ** b
        return float(np.mean(f_rec * f_other_cdf ** (k - 1)))

    q_fine = q(points)
    p_correct = beta * q_fine + (1 - beta) * (1 - q_fine) / (k - 1)
    return GAP * (1 - p_correct), GAP * abs(q_fine - q(points // 2)), p_correct


class TestExactOracle:
    def test_oracle_values(self):
        # the exact one-round regrets of Table 1's hybrid prior, to five decimals
        for r_mech, value in zip(R_MECH_GRID, (0.56875, 0.42186, 0.24177, 0.10237, 0.02405)):
            assert first_round_oracle(r_mech, 2.0)[0] == pytest.approx(value, abs=5e-6)
            uninformed, quad_err, _ = first_round_oracle(r_mech, 0.0)
            assert abs(uninformed - GAP * 7 / 8) <= quad_err

    @pytest.mark.parametrize("algorithm", ["hybrid", "uninformed"])
    def test_one_round_regret_matches_oracle(self, algorithm):
        config = ExperimentConfig(trials=ORACLE_TRIALS, seed=ORACLE_SEED)
        strength = config.prior_strength if algorithm == "hybrid" else 0.0
        for r_mech in R_MECH_GRID:
            exact, quad_err, p = first_round_oracle(r_mech, strength)
            tol = 4 * GAP * math.sqrt(p * (1 - p) / ORACLE_TRIALS) + quad_err
            got = run_monte_carlo(config, algorithm, r_mech, n=1).mean
            assert abs(got - exact) <= tol, (r_mech, got, exact, tol)


# Fixed before the first run, like the n = 1 oracle's: seed, trial count,
# and a tolerance of four exact standard errors of the mean.
ORACLE2_TRIALS = 50_000


def second_round_oracle(k: int = 8):
    """Exact mean and standard deviation of uninformed Thompson regret at n = 2.

    The first pull is uniform. Against k - 1 Beta(1, 1) arms, the second
    round picks the pulled arm with probability 2/(k+1) after a success
    (Beta(2, 1)) and 2/(k(k+1)) after a failure (Beta(1, 2)), and each
    other arm with an equal share of the rest. The uninformed policy is
    blind to where the optimum sits, so the value holds at every r_mech.
    """
    win, loss = 2 / (k + 1), 2 / (k * (k + 1))
    # P(second pull optimal | first pull optimal), and | first pull not optimal
    after_opt = P_OPT * win + (1 - P_OPT) * loss
    after_sub = (P_BSA * (1 - win) + (1 - P_BSA) * (1 - loss)) / (k - 1)
    miss1 = (k - 1) / k
    miss2 = 1 - (after_opt / k + miss1 * after_sub)
    both = miss1 * (1 - after_sub)
    var = miss1 + miss2 + 2 * both - (miss1 + miss2) ** 2
    return GAP * (miss1 + miss2), GAP * math.sqrt(var)


class TestSecondRoundOracle:
    def test_oracle_value(self):
        # 129857/115200; the value with the alpha/beta update swapped is 132223/115200
        assert second_round_oracle()[0] == pytest.approx(129857 / 115200, abs=1e-12)

    def test_two_round_regret_matches_oracle(self):
        config = ExperimentConfig(trials=ORACLE2_TRIALS, seed=ORACLE_SEED)
        exact, sd = second_round_oracle()
        tol = 4 * sd / math.sqrt(ORACLE2_TRIALS)
        for r_mech in R_MECH_GRID:
            got = run_monte_carlo(config, "uninformed", r_mech, n=2).mean
            assert abs(got - exact) <= tol, (r_mech, got, exact, tol)


def hybrid_second_round_oracle(r_mech: float, strength: float, k: int = 8,
                               points: int = 200_000):
    """Exact mean and standard deviation of hybrid Thompson regret at n = 2, and
    the quadrature error of the mean.

    The recommended arm starts at Beta(a, 1) and the others at Beta(1, b),
    as in `first_round_oracle`. The branches are the optimum's position
    (the recommended arm with probability beta, another arm otherwise),
    the first pull (the recommended arm, the optimum, or another arm) and
    its outcome; one success or failure moves the pulled arm to
    Beta(a + 1, 1) or Beta(a, 2) when it is the recommended arm and to
    Beta(2, b) or Beta(1, b + 1) otherwise. In each branch the second
    pull's law is one more quadrature, P(arm wins) = int pdf * prod(rival
    CDFs), and every arm that shares a law with another has an equal share.
    """
    beta = solve_prior_for_r_mech(k, r_mech).beta
    a = 1 + strength * k * (beta - 1 / k)
    b = 1 + strength * k * (1 / k - (1 - beta) / (k - 1))

    def moments(m):
        x = (np.arange(m) + 0.5) / m
        y = 1 - x
        law = {  # (density, CDF) on the midpoints
            "rec": (a * x ** (a - 1), x ** a),
            "rec+": ((a + 1) * x ** a, x ** (a + 1)),
            "rec-": (a * (a + 1) * x ** (a - 1) * y, x ** a * (a + 1 - a * x)),
            "arm": (b * y ** (b - 1), 1 - y ** b),
            "arm+": (b * (b + 1) * x * y ** (b - 1), 1 - y ** b * (1 + b * x)),
            "arm-": ((b + 1) * y ** b, 1 - y ** (b + 1)),
        }

        def wins(arm, rivals):
            return float(np.mean(law[arm][0] * np.prod([law[r][1] for r in rivals], axis=0)))

        q = wins("rec", ["arm"] * (k - 1))  # first pull is the recommended arm
        branches = []  # (probability, first pull missed, P(second pull misses))
        for outcome in "+-":
            rec2 = wins("rec" + outcome, ["arm"] * (k - 1))
            # the first pull was arm j != recommended; j and the recommended arm then
            # win the second round with these probabilities, any other arm with `rest`
            j2 = wins("arm" + outcome, ["rec"] + ["arm"] * (k - 2))
            rec2_j = wins("rec", ["arm" + outcome] + ["arm"] * (k - 2))
            rest = (1 - j2 - rec2_j) / (k - 2)
            p_opt = P_OPT if outcome == "+" else 1 - P_OPT
            p_bsa = P_BSA if outcome == "+" else 1 - P_BSA
            branches += [
                # optimum is the recommended arm
                (beta * q * p_opt, 0, 1 - rec2),
                (beta * (1 - q) * p_bsa, 1, 1 - rec2_j),
                # optimum is another arm o
                ((1 - beta) * q * p_bsa, 1, 1 - (1 - rec2) / (k - 1)),
                ((1 - beta) * (1 - q) / (k - 1) * p_opt, 0, 1 - j2),
                ((1 - beta) * (1 - q) * (k - 2) / (k - 1) * p_bsa, 1, 1 - rest),
            ]
        mean = sum(p * (m1 + m2) for p, m1, m2 in branches)
        square = sum(p * (m1 + m2 + 2 * m1 * m2) for p, m1, m2 in branches)
        return mean, square

    mean, square = moments(points)
    return (GAP * mean, GAP * math.sqrt(square - mean ** 2),
            GAP * abs(mean - moments(points // 2)[0]))


# Fixed before the first run, like the uninformed n = 2 oracle's: ORACLE_SEED,
# ORACLE2_TRIALS, and a tolerance of four exact standard errors of the mean
# plus the quadrature error.
class TestHybridSecondRoundOracle:
    def test_oracle_reduces_to_uninformed(self):
        # at strength 0 every law is polynomial and the uninformed value is exact
        exact, sd = second_round_oracle()
        for r_mech in R_MECH_GRID:
            mean, oracle_sd, quad_err = hybrid_second_round_oracle(r_mech, 0.0)
            assert mean == pytest.approx(exact, abs=1e-9 + quad_err)
            assert oracle_sd == pytest.approx(sd, abs=1e-6)

    def test_two_round_regret_matches_oracle(self):
        config = ExperimentConfig(trials=ORACLE2_TRIALS, seed=ORACLE_SEED)
        curves = regret_curves(config, [(config.prior_strength, r) for r in R_MECH_GRID], (2,))
        for r_mech, regrets in zip(R_MECH_GRID, curves[:, :, 0]):
            exact, sd, quad_err = hybrid_second_round_oracle(r_mech, config.prior_strength)
            tol = 4 * sd / math.sqrt(ORACLE2_TRIALS) + quad_err
            got = float(np.mean(regrets))
            assert abs(got - exact) <= tol, (r_mech, got, exact, tol)
