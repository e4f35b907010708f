import hashlib
import math
import re

import numpy as np
import pytest

from conftest import exact_beta_regret
from mechcert import sim
from mechcert.prior import DEFAULT_PRIOR_STRENGTH, TwoLevelPrior, solve_prior_for_r_mech
from mechcert.sim import (
    BLOCK_SIZE,
    P_BSA,
    P_OPT,
    R_MECH_GRID,
    ExperimentConfig,
    _block_regrets,
    _summarize,
    build_environment,
    regret_curves,
    run_monte_carlo,
    run_trial,
    table1_experiment,
    table2_experiment,
)
from mechcert.certificates import write_csv

FAST = ExperimentConfig(trials=400, seed=42)
UNINFORMED = (np.ones(8), np.ones(8))


class TestEnvironment:
    def test_calibrated_shape(self):
        means = build_environment(8, 3, 0.85, 0.20)
        assert means[3] == 0.85
        assert np.sum(means == 0.85) == 1
        assert np.all(means[np.arange(8) != 3] == 0.20)

    def test_deterministic_env(self):
        assert build_environment(2, 0, 1.0, 0.0).tolist() == [1.0, 0.0]

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError, match=r"^require 0 <= p_bsa < p_opt <= 1, "
                                             r"got p_bsa=0\.5, p_opt=0\.5$"):
            build_environment(8, 0, 0.5, 0.5)
        with pytest.raises(ValueError, match=r"^optimal arm 9 outside \[0, 8\)$"):
            build_environment(8, 9, 0.85, 0.20)


class TestRunTrial:
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

    def test_stream_pinned(self):
        # an informed policy over three horizons, five trials each, from one rng;
        # a new value here is a declared stream change, as in the table stream pins
        rng = np.random.default_rng(7)
        policy = (np.array([5.0] + [1.0] * 7), np.array([1.0] + [2.0] * 7))
        env = build_environment(8, 3, 0.85, 0.20)
        got = np.array([run_trial(policy, env, n, rng) for n in (1, 12, 200) for _ in range(5)])
        assert hashlib.sha256(got.tobytes()).hexdigest() == (
            "4e7848b5463e011ceb0aef57ec746f0b2ede02e5f9177b58134fa08ea5a79686")


class TestMonteCarlo:
    def test_determinism(self):
        a = regret_curves(FAST._replace(prior_strength=0.0), [0.8], (12,))
        b = regret_curves(FAST._replace(prior_strength=0.0), [0.8], (12,))
        assert np.array_equal(a, b)

    def test_serial_equals_parallel(self):
        serial = regret_curves(FAST, [1.4], (12,))
        parallel_cfg = ExperimentConfig(trials=400, seed=42, workers=2)
        parallel = regret_curves(parallel_cfg, [1.4], (12,))
        assert np.array_equal(serial, parallel)

    def test_trial_regret_independent_of_trial_count(self):
        few = regret_curves(FAST, [1.4], (12,))[0]
        many = regret_curves(ExperimentConfig(trials=1000, seed=42), [1.4], (12,))[0]
        assert few.shape == (400, 1)
        assert np.array_equal(few, many[:400])
        prior = solve_prior_for_r_mech(8, 1.4)
        for t in (0, 255, 256, 399):
            block, row = divmod(t, BLOCK_SIZE)
            assert _block_regrets(42, 2.0, (prior,), (12,), block)[0, row, 0] == few[t, 0]

    @pytest.mark.parametrize("rows", [1, 44, 150, 255])
    def test_partial_block_is_prefix_of_full_block(self, rows):
        # a row's draws never depend on the rows after it, so a partial block
        # simulates only its own rows
        priors = tuple(solve_prior_for_r_mech(8, r) for r in R_MECH_GRID)
        full = _block_regrets(7, 2.0, priors, (1, 12, 200), 1)
        part = _block_regrets(7, 2.0, priors, (1, 12, 200), 1, rows)
        assert part.shape == (len(priors), rows, 3)
        assert np.array_equal(part, full[:, :rows])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_trials_of_a_larger_run(self, workers):
        # 600 trials are blocks of 256, 256 and 88 rows; each smaller count ends
        # inside a block
        config = ExperimentConfig(trials=600, seed=8, workers=workers)
        many = regret_curves(config, [1.9, 0.0], (5, 200))
        for trials in (1, 150, 300):
            few = regret_curves(config._replace(trials=trials), [1.9, 0.0], (5, 200))
            assert np.array_equal(few, many[:, :trials]), trials

    def test_round_state_is_numpy_sfc64_seeding(self, recorded_draws):
        # each round starts where np.random.SFC64 starts from the round's three
        # words and draws its reward and arm uniforms in one call; every level's
        # gammas start where those uniforms end
        class Words(np.random.bit_generator.ISeedSequence):
            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                assert (n_words, dtype) == (3, np.uint64)
                return np.array(self.words, dtype=np.uint64)

        priors = tuple(solve_prior_for_r_mech(8, r) for r in (1.4, 0.3))
        _block_regrets(11, 2.0, priors, (5,), 2)
        policy_seq = np.random.SeedSequence(entropy=11, spawn_key=(2,)).spawn(2)[1]
        words = policy_seq.generate_state(15, np.uint64).reshape(5, 3)
        rounds = recorded_draws[1:]  # after the environment stream's uniforms
        assert [name for name, *_ in rounds] == ["random", "standard_gamma", "standard_gamma"] * 5
        for (_, start, end, size), first, second, three in zip(rounds[::3], rounds[1::3],
                                                               rounds[2::3], words):
            seeded = np.random.SFC64(Words(three)).state
            assert start == (*seeded["state"]["state"].tolist(), 0, 0)
            assert size == BLOCK_SIZE * 9
            assert first[1] == second[1] == end

    def test_partial_block_draws_only_its_gammas(self, recorded_draws):
        # every round draws BLOCK_SIZE reward and BLOCK_SIZE * k arm uniforms in
        # one call, fixed amounts, then for each level gammas only for the arms
        # of the rows asked for whose two shapes both exceed 1, row by row: a
        # prefix of the full block's gammas
        def run(levels, rows):
            recorded_draws.clear()
            _block_regrets(3, 2.0, tuple(solve_prior_for_r_mech(8, r) for r in levels), (12,), 0,
                           rows)
            return recorded_draws[1:]  # after the environment stream's uniforms

        for levels in ((1.4,), R_MECH_GRID):
            part, full = run(levels, 44), run(levels, BLOCK_SIZE)
            layout = (["random"] + ["standard_gamma"] * len(levels)) * 12
            assert [d[0] for d in part] == [d[0] for d in full] == layout
            for (name, *_, p), (*_, f) in zip(part, full):
                if name == "random":
                    assert p == f == BLOCK_SIZE * 9
                else:
                    assert p.shape == (len(p), 2) and len(p) <= 44 * 8 and np.all(p > 1)
                    assert np.array_equal(p, f[:len(p)])
            drawn = [sum(len(g) for name, *_, g in d if name == "standard_gamma")
                     for d in (part, full)]
            assert 0 < drawn[0] < drawn[1], levels

    def test_short_horizon_is_prefix_of_long_run(self):
        # Table 2 reads every horizon off one run, so its arms still
        # share optimal-arm draws and the n = 5 column is a prefix
        curves = regret_curves(FAST, [0.0], (5, 200))[0]
        short = regret_curves(FAST, [0.0], (5,))[0]
        assert np.array_equal(curves[:, 0], short[:, 0])
        assert np.all(curves[:, 0] <= curves[:, 1])
        assert _summarize(short[:, 0]) == table2_experiment(FAST)[0].uninf

    def test_unordered_and_repeated_horizons(self):
        levels = [1.4, 0.0]
        curves = regret_curves(FAST, levels, (12, 5, 12))
        twelve = regret_curves(FAST, levels, (12,))[:, :, 0]
        assert np.array_equal(curves[:, :, 0], twelve)
        assert np.array_equal(curves[:, :, 1], regret_curves(FAST, levels, (5,))[:, :, 0])
        assert np.array_equal(curves[:, :, 2], twelve)

    def test_regret_curves_rejects_horizon_below_one(self):
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            regret_curves(FAST, [1.4], (12, 0))

    def test_levels_and_horizons_are_read_once(self):
        # a generator gives the same curves as a tuple
        levels = (1.4, 0.0)
        assert np.array_equal(regret_curves(FAST, (r for r in levels), iter((12, 5))),
                              regret_curves(FAST, levels, (12, 5)))

    @pytest.mark.parametrize("levels,horizons", [([], (12,)), (iter(()), (12,)), ([0.3], ())],
                             ids=["no-levels", "empty-generator", "no-horizons"])
    def test_regret_curves_rejects_empty_levels_or_horizons(self, levels, horizons):
        with pytest.raises(ValueError, match="^regret_curves needs at least one level and one "
                                             "horizon, got [01] and [01]$"):
            regret_curves(FAST, levels, horizons)

    def test_cell_independent_of_its_companions(self):
        config = ExperimentConfig(trials=300, seed=11, workers=2)
        strong = config._replace(prior_strength=5.0)
        flat = config._replace(prior_strength=0.0)
        # the third list repeats a level, and at strength 0 every level is one simulation
        for cfg, levels in ((config, [1.9, 0.0]), (strong, [0.8]), (config, [1.9, 0.0, 1.9]),
                            (strong, [0.0]), (flat, [0.3, 1.4])):
            together = regret_curves(cfg, levels, (3, 12))
            assert together.shape == (len(levels), 300, 2)
            for i, level in enumerate(levels):
                assert np.array_equal(together[i], regret_curves(cfg, [level], (3, 12))[0])
        # the uninformed level is one path whatever the strength
        uninformed = regret_curves(config, [0.0], (3, 12))[0]
        for cfg, level in ((strong, 0.0), (flat, 0.3), (flat, 1.4)):
            assert np.array_equal(regret_curves(cfg, [level], (3, 12))[0], uninformed)

    @pytest.mark.parametrize("block", [0, 1])
    def test_flat_block_independent_of_strength_and_r_mech(self, block):
        # the optimum is drawn before the recommendation, so a policy whose
        # pseudo-counts are all 1 follows one path at every strength and r_mech:
        # what makes uninformed Thompson sampling the level r_mech = 0
        flat = _block_regrets(7, 0.0, (solve_prior_for_r_mech(8, 0.0),), (1, 12, 200), block)[0]
        for strength in (0.0, 2.0, 5.0):
            got = _block_regrets(7, strength, (solve_prior_for_r_mech(8, 0.0),), (1, 12, 200),
                                 block)
            assert np.array_equal(got[0], flat), strength
        every_level = tuple(solve_prior_for_r_mech(8, r) for r in R_MECH_GRID)
        for r_mech, got in zip(R_MECH_GRID, _block_regrets(7, 0.0, every_level, (1, 12, 200),
                                                           block)):
            assert np.array_equal(got, flat), r_mech

    # One block of six priors, pinned: the five Table 1 levels and a beta 1e-12
    # below 1/8, where the recommended arm's and the others' shapes swap roles.
    # A new value here is a declared stream change, as in test_stream_pinned.
    @pytest.mark.parametrize("strength,digest", [
        (0.0, "c1982a1bc9932e2d455d0982e9d6244dfe108436ee23747d0a41aef0c5b5d973"),
        (5.0, "8180a2b6ca4ae6d34f2a0ef9db9979971cc2d2fce1c1b24a81a0cb3444a1f90a"),
        (2e307, "ba1e71803d72877e185b38e721039139735760b18a38a059dd39d5f8a6d3891e"),
    ], ids=["0.0", "5.0", "2e+307"])
    def test_block_pinned(self, strength, digest):
        priors = tuple(solve_prior_for_r_mech(8, r) for r in R_MECH_GRID)
        got = _block_regrets(7, strength, priors + (TwoLevelPrior(8, 1 / 8 - 1e-12),),
                             (1, 12, 200), 0)
        assert got.shape == (6, BLOCK_SIZE, 3)
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest

    def test_samples_near_one_stay_apart(self):
        # at the largest strength a prior 1e-12 below 1/8 puts the seven other
        # arms at Beta(2.3e295, 1), whose samples all round to 1.0; ranked by
        # their logs, each of the seven is still pulled first about 1/7 of the time
        rec, rest = TwoLevelPrior(8, 1 / 8 - 1e-12).pseudo_counts(2e307)
        counts = np.array([[rec] + [rest] * 7] * BLOCK_SIZE)[None]
        means = np.where(np.arange(8) == 7, P_OPT, P_BSA)[None].repeat(BLOCK_SIZE, axis=0)
        first = sim._thompson_rounds((np.random.SeedSequence(0),), counts, means, (1,))
        assert 20 <= np.sum(first == 0.0) <= 55  # 256 / 7 = 36.6 rows pull arm 7

    def test_blocks_and_streams_are_distinct(self, monkeypatch):
        # each stream is seeded from its own spawned SeedSequence, not from the
        # raw seed, which would give every block and both streams one sequence;
        # the two blocks are one pass, whose kernel generator starts from the
        # first block's policy child and is reseeded every round from each
        # block's own
        seeds, sfc64 = [], np.random.SFC64

        def recording(seed):
            seeds.append(seed)
            return sfc64(seed)

        monkeypatch.setattr(np.random, "SFC64", recording)
        curves = regret_curves(ExperimentConfig(trials=2 * BLOCK_SIZE, seed=3), [0.0], (12,))
        assert not np.array_equal(curves[0, :BLOCK_SIZE], curves[0, BLOCK_SIZE:])
        first = [np.random.Generator(sfc64(seed)).random() for seed in seeds]
        assert len(seeds) == 3 and len(set(first)) == 3

    @pytest.mark.parametrize("strength", [0.0, 2.0])
    def test_grouped_blocks_equal_blocks_alone(self, monkeypatch, strength):
        # 1,100 trials are five blocks, so two kernel passes at workers=1, of two
        # and three blocks; each block draws from its own streams, so the run
        # is the concatenation of each block simulated alone
        passes, thompson_rounds = [], sim._thompson_rounds

        def kernel(seqs, *rest):
            passes.append(len(seqs))
            return thompson_rounds(seqs, *rest)

        monkeypatch.setattr(sim, "_thompson_rounds", kernel)
        config = ExperimentConfig(trials=1100, seed=4, prior_strength=strength)
        grouped = regret_curves(config, R_MECH_GRID, (1, 12))
        assert passes == [2, 3]
        priors = tuple(solve_prior_for_r_mech(8, r) for r in R_MECH_GRID)
        alone = [_block_regrets(4, strength, priors, (1, 12), block,
                                min(BLOCK_SIZE, 1100 - block * BLOCK_SIZE))
                 for block in range(5)]
        assert np.array_equal(grouped, np.concatenate(alone, axis=1))

    def test_pass_draws_each_block_as_alone(self, recorded_draws):
        # in a two-block pass each block makes the calls it makes alone, from
        # the same states and with the same sizes and shapes: its environment
        # draw, then per round one uniform call and one gamma call per level
        priors = tuple(solve_prior_for_r_mech(8, r) for r in (1.4, 0.3))

        def run(first, rows):
            recorded_draws.clear()
            _block_regrets(3, 2.0, priors, (12,), first, rows)
            return list(recorded_draws)

        together = run(0, BLOCK_SIZE + 44)
        calls = 1 + len(priors)  # a block's calls per round
        # the environment draws come first, then each round's calls block by block
        rounds = [together[i:i + 2 * calls] for i in range(2, len(together), 2 * calls)]
        assert len(together) == 2 + 12 * 2 * calls
        for block, rows in enumerate((BLOCK_SIZE, 44)):
            own = [together[block], *(c for r in rounds for c in r[block * calls:][:calls])]
            for (*mine, drawn), (*alone, alone_drawn) in zip(own, run(block, rows), strict=True):
                assert mine == alone
                assert np.array_equal(drawn, alone_drawn)

    def test_block_of_levels_equals_one_call_per_level(self):
        # every level's draws in a round start from the same state, so sharing
        # a block with other levels changes none of a level's draws
        priors = tuple(solve_prior_for_r_mech(8, r) for r in (0.0, 0.8, 1.9))
        together = _block_regrets(9, 2.0, priors, (1, 12, 30), 1)
        assert together.shape == (3, BLOCK_SIZE, 3)
        for prior, got in zip(priors, together):
            assert np.array_equal(got, _block_regrets(9, 2.0, (prior,), (1, 12, 30), 1)[0])

    @pytest.mark.parametrize("experiment,strength,cells", [
        (table1_experiment, 2.0, 10), (table1_experiment, 0.0, 2),
        (table2_experiment, 2.0, 4), (table2_experiment, 0.0, 2),
    ])
    def test_each_distinct_cell_simulated_once(self, monkeypatch, experiment, strength,
                                               cells):
        # 300 trials are two blocks, the second of 44 rows: one kernel pass over
        # both at workers=1, one pass per block at workers=2 (a thread pool
        # stands in for the process pool, so the counters see every call), and
        # each pass runs every cell of its blocks; Table 1 has four informed
        # cells and one flat one per block, Table 2 one of each, and at
        # strength 0 every cell is flat
        import concurrent.futures

        seen, passes = [], []

        def counting(*job):
            seen.append(job)
            return _block_regrets(*job)

        def kernel(seqs, counts, *rest):
            passes.append((len(seqs), counts.shape[:2]))
            return thompson_rounds(seqs, counts, *rest)

        thompson_rounds = sim._thompson_rounds
        monkeypatch.setattr(sim, "_block_regrets", counting)
        monkeypatch.setattr(sim, "_thompson_rounds", kernel)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            concurrent.futures.ThreadPoolExecutor)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        for workers, jobs in ((1, [(0, 300)]), (2, [(0, BLOCK_SIZE), (1, 44)])):
            seen.clear()
            passes.clear()
            experiment(ExperimentConfig(trials=300, seed=5, prior_strength=strength,
                                        workers=workers))
            assert sorted((first, rows) for *_, first, rows in seen) == jobs
            assert sorted(passes) == sorted((-(-rows // BLOCK_SIZE), (len(priors), rows))
                                            for _, _, priors, _, _, rows in seen)
            assert all(len(set(priors)) == len(priors) for _, _, priors, *_ in seen)
            assert sum(len(priors) * -(-rows // BLOCK_SIZE)
                       for _, _, priors, _, _, rows in seen) == cells

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
            regret_curves(FAST._replace(prior_strength=0.0), [0.3, 5.0], (12,))
        with pytest.raises(ValueError, match="r_mech must lie in"):
            regret_curves(FAST._replace(prior_strength=0.0), [5.0], (12,))

    @pytest.mark.parametrize("strength", [0.0, 2.0])
    @pytest.mark.parametrize("level", [math.nan, -0.01])
    def test_rejects_bad_level(self, strength, level):
        # at strength 0 the level keys to the uninformed one, and is still checked
        with pytest.raises(ValueError, match="r_mech must lie in"):
            regret_curves(FAST._replace(prior_strength=strength), [0.3, level], (12,))

    @pytest.mark.parametrize("experiment", [table1_experiment, table2_experiment])
    def test_one_pool_per_table(self, monkeypatch, started_pools, experiment):
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        serial = experiment(ExperimentConfig(trials=300, seed=5))
        assert started_pools == []
        assert experiment(ExperimentConfig(trials=300, seed=5, workers=2)) == serial
        assert started_pools == [2]

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
        # 1,000 trials are four blocks, so the CPU count, not the block count, binds
        serial = table1_experiment(ExperimentConfig(trials=1000, seed=5))
        assert table1_experiment(ExperimentConfig(trials=1000, seed=5, workers=10**6)) == serial
        assert started == [3]

    def test_bsa_constant(self):
        for row in table1_experiment(FAST):
            assert row.bsa.mean == pytest.approx(7.80, abs=1e-12)
            assert row.bsa.ci == 0.0

    def test_one_trial_ci_is_unbounded(self):
        # one sample bounds nothing; the closed-form BSA keeps its exact zero width
        one = ExperimentConfig(trials=1)
        for row in table2_experiment(one):
            assert row.hyb.ci == row.uninf.ci == math.inf
        for row in table1_experiment(one):
            assert row.hyb.ci == row.uninf.ci == math.inf
            assert row.bsa.ci == 0.0

    def test_uninformed_band(self):
        config = ExperimentConfig(trials=2000, seed=42, prior_strength=0.0)
        assert 5.75 <= regret_curves(config, [0.0], (12,)).mean() <= 6.05

    def test_run_monte_carlo_summarizes_one_level(self):
        # "hybrid" runs at the config's strength and "uninformed" at strength 0
        for algorithm, strength in (("hybrid", FAST.prior_strength), ("uninformed", 0.0)):
            curves = regret_curves(FAST._replace(prior_strength=strength), [1.4], (5,))
            assert run_monte_carlo(FAST, algorithm, 1.4, n=5) == _summarize(curves[0, :, 0])

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="^unknown algorithm 'ucb'$"):
            run_monte_carlo(FAST, "ucb", 0.0)

    # the strength is checked here only, so none of these reaches the kernel
    @pytest.mark.parametrize("strength", [-1.0, math.nan, math.inf, -0.01, 1e308])
    def test_config_rejects_strength(self, strength):
        # the bound float_max / K keeps strength * K finite
        message = f"prior_strength must lie in [0, 2.24712e+307], got {strength}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(prior_strength=strength)


class TestTables:
    def test_table1_structure(self, tmp_path):
        rows = table1_experiment(ExperimentConfig(trials=50, seed=1))
        assert [r.r_mech for r in rows] == [0.0, 0.3, 0.8, 1.4, 1.9]
        assert rows[0].lb_prediction == pytest.approx(1.0, rel=1e-12)
        assert rows[2].h_mech == pytest.approx(1.28, abs=0.01)
        assert rows[4].lb_prediction == pytest.approx(3.40, abs=0.02)
        assert all(r.bsa.mean == pytest.approx(7.80, abs=1e-12) for r in rows)
        path = tmp_path / "table1.csv"
        write_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == ["r_mech", "h_mech", "hyb_mean", "hyb_ci", "uninf_mean",
                                       "uninf_ci", "bsa_mean", "bsa_ci", "ratio_uninf_hyb",
                                       "lb_prediction", "ratio_bsa_hyb"]
        assert len(lines) == 6
        assert all(len(line.split(",")) == 11 for line in lines[1:])

    def test_table2_structure(self, tmp_path):
        rows = table2_experiment(ExperimentConfig(trials=50, seed=1))
        assert [r.n for r in rows] == [5, 10, 20, 50, 200]
        path = tmp_path / "table2.csv"
        write_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == ["n", "hyb_mean", "hyb_ci", "uninf_mean", "uninf_ci",
                                       "ratio"]
        assert len(lines) == 6
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_table2_shared_optimal_draws(self):
        # within a trial index both algorithms face the same optimum,
        # so the hybrid can never do worse than the shared regret cap
        regrets = regret_curves(FAST, [1.9, 0.0], (5,))[:, :50]
        assert np.all((0.0 <= regrets) & (regrets <= 5 * 0.65 + 1e-12))

    def test_table1_uninformed_column_is_one_estimate(self):
        config = ExperimentConfig(trials=300, seed=5)
        rows = table1_experiment(config)
        assert all(row.uninf == rows[0].uninf for row in rows)
        flat = config._replace(prior_strength=0.0)
        for row in rows:
            uninf = regret_curves(flat, [row.r_mech], (12,))[0, :, 0]
            assert _summarize(uninf) == rows[0].uninf
            assert _summarize(regret_curves(config, [row.r_mech], (12,))[0, :, 0]) == row.hyb
        assert rows[0].hyb == rows[0].uninf

    # The random streams, pinned. A new value here is a declared stream
    # change: list the old and new hashes and the moved values in CHANGES.md.
    @pytest.mark.parametrize("experiment,digest", [
        (table1_experiment,
         "97a7d35d229681106b29b0c664915694d4b1aee8aa6e0b3d4e300366880c3cc0"),
        (table2_experiment,
         "19161b455e306ed69c0a7764a8c1335993a7a5a2008efa96fafda8ac6f9f39e4"),
    ], ids=["table1", "table2"])
    def test_stream_pinned(self, tmp_path, experiment, digest):
        path = tmp_path / "table.csv"
        write_csv(path, experiment(ExperimentConfig(trials=300, seed=5)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_csv_six_significant_digits(self, tmp_path):
        rows = table2_experiment(ExperimentConfig(trials=30, seed=3))
        path = tmp_path / "t2.csv"
        write_csv(path, rows)
        body = path.read_text().splitlines()[1]
        for token in body.split(",")[1:]:
            mantissa = token.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 6


# Fixed before the first run: seed, trial count, and a tolerance of four exact
# standard errors of the mean plus the quadrature error that
# test_quadrature_converges bounds.
ORACLE_SEED = 0
ORACLE_TRIALS = 20_000
ORACLE2_TRIALS = 50_000  # the round-2 cases' own count, also fixed before their first run
QUADRATURE_ERROR = 1e-6


GAP = P_OPT - P_BSA


class TestExactOracle:
    def test_oracle_values(self):
        # the exact one-round regrets of Table 1's hybrid prior, to five decimals
        for r_mech, value in zip(R_MECH_GRID, (0.56875, 0.42186, 0.24177, 0.10237, 0.02405)):
            assert exact_beta_regret(r_mech, 2.0, 1)[0][0] == pytest.approx(value, abs=5e-6)
            uninformed = exact_beta_regret(r_mech, 0.0, 1)[0][0]
            assert uninformed == pytest.approx(GAP * 7 / 8, abs=QUADRATURE_ERROR)


class TestSecondRoundOracle:
    def test_oracle_value(self):
        # with the success/failure update swapped the value is 132223/115200
        assert exact_beta_regret(0.0, 0.0, 2)[0][1] == pytest.approx(129857 / 115200, abs=1e-9)


class TestHybridSecondRoundOracle:
    def test_oracle_reduces_to_uninformed(self):
        # at strength 0 the policy is blind to where the optimum sits, so the
        # law of the regret is the same at every r_mech
        uninformed = exact_beta_regret(0.0, 0.0, 2)
        for r_mech in R_MECH_GRID:
            assert np.allclose(exact_beta_regret(r_mech, 0.0, 2), uninformed, rtol=0, atol=1e-9)


class TestExactBetaRegret:
    def test_quadrature_converges(self):
        # r = 0.3 has the least smooth integrand: B - 1 is about 0.72 at strength 2
        coarse = exact_beta_regret(0.3, DEFAULT_PRIOR_STRENGTH, 6)[0]
        fine = exact_beta_regret(0.3, DEFAULT_PRIOR_STRENGTH, 6, nodes=256)[0]
        assert np.max(np.abs(np.subtract(coarse, fine))) <= QUADRATURE_ERROR

    def test_oracle_values_at_horizon_8(self):
        for r_mech, value in zip(R_MECH_GRID, (4.18805, 3.19567, 1.91687, 0.84095, 0.21698)):
            assert exact_beta_regret(r_mech, 2.0, 8)[0][-1] == pytest.approx(value, abs=5e-6)

    # Table 1's strength reaches horizon 8 and the uninformed policy Table 2's
    # n = 10, where most arms have both shapes above 1 and draw gammas; at
    # strength 5 the recommended arm's first shape reaches about 35; the
    # round-2 cases run ORACLE2_TRIALS; r_mech = ln 8 is the point-mass prior
    @pytest.mark.parametrize("strength,horizon,trials", [
        (DEFAULT_PRIOR_STRENGTH, 8, ORACLE_TRIALS), (5.0, 6, ORACLE_TRIALS),
        (0.0, 10, ORACLE_TRIALS), (DEFAULT_PRIOR_STRENGTH, 2, ORACLE2_TRIALS),
        (0.0, 2, ORACLE2_TRIALS),
    ], ids=["hybrid", "hybrid-strength-5", "uninformed", "hybrid-round-2", "uninformed-round-2"])
    def test_regret_curves_match_oracle(self, strength, horizon, trials):
        config = ExperimentConfig(trials=trials, seed=ORACLE_SEED, prior_strength=strength)
        levels = (*R_MECH_GRID, math.log(8))
        curves = regret_curves(config, levels, range(1, horizon + 1))
        for r_mech, regrets in zip(levels, curves, strict=True):
            exact, sd = np.array(exact_beta_regret(r_mech, strength, horizon))
            tol = 4 * sd / math.sqrt(trials) + QUADRATURE_ERROR
            got = regrets.mean(axis=0)
            assert np.all(np.abs(got - exact) <= tol), (r_mech, got, exact, tol)
