"""Acceptance gate: every published target value at its stated tolerance.

Each criterion emits one PASS/FAIL line (echoed in the terminal summary)
listing every sub-check that missed its tolerance, then asserts.
"""

import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS, joint_from_channel
from mechcert.certificates import (
    CalibrationParams,
    Regime,
    certificate_report,
    lb_envelope,
    ub_envelope,
    write_csv,
)
from mechcert.prior import (
    BurnInParams,
    burn_in_lower_bound,
    check_retention,
    r_min,
    solve_prior_for_r_mech,
    verify_impossibility,
)
from mechcert.sim import (
    ExperimentConfig,
    table1_experiment,
    table2_experiment,
)
from mechcert.sweep import SweepSpec, linear_grid, sweep_1d

WORKING = CalibrationParams.canonical(k=8, n=12, sigma=0.40, kappa_mu=1.8,
                                      d_f=3.0, b_mu=0.22)

SIM_SEED = 42
SIM_TRIALS = 10_000


def record(number, title, failures):
    status = "PASS" if not failures else "FAIL"
    line = f"{status} criterion {number}: {title}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    print(line)
    ACCEPTANCE_RESULTS.append(line)
    assert not failures, line


def check(failures, label, value, expected, tol):
    if not (abs(value - expected) <= tol):
        failures.append(f"{label} = {value:.6g}, want {expected} +/- {tol}")


@pytest.fixture(scope="module")
def table1():
    config = ExperimentConfig(trials=SIM_TRIALS, seed=SIM_SEED)
    start = time.perf_counter()
    rows = table1_experiment(config)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def table2():
    config = ExperimentConfig(trials=SIM_TRIALS, seed=SIM_SEED)
    return table2_experiment(config)


def test_criterion_1_composite_certificate():
    failures = []
    start = time.perf_counter()
    report = certificate_report(WORKING)
    elapsed = time.perf_counter() - start
    check(failures, "sigma_f2", WORKING.sigma_f2, 0.0685, 1e-4)
    check(failures, "C(0.22)", report.capacity_at_bias, 0.796, 1e-3)
    check(failures, "H_mech floor", report.residual_entropy_floor, 1.283, 1e-3)
    check(failures, "B_crit", report.critical_bias, 0.714, 1e-3)
    check(failures, "B_crit/B_mu", report.critical_bias / 0.22, 3.24, 0.02)
    if report.regime is not Regime.DATA_EFFICIENT:
        failures.append(f"regime = {report.regime}, want DataEfficient")
    if elapsed > 1e-3:
        failures.append(f"runtime {elapsed * 1e3:.2f} ms, want < 1 ms")
    record(1, "composite certificate at the working values", failures)


def test_criterion_2_envelope_arithmetic():
    failures = []
    lb = lb_envelope(8, 12, 1.283)
    ub = ub_envelope(8, 12, 1.283)
    check(failures, "lb_envelope", lb, 7.70, 0.05)
    check(failures, "ub_envelope", ub, 11.10, 0.05)
    check(failures, "ub/lb", ub / lb, math.sqrt(math.log(8)), 1e-6)
    record(2, "regret envelope arithmetic", failures)


def test_criterion_3_sensitivity_table():
    # the 12 published (C_min, C_max, B_crit_min, B_crit_max) endpoints
    published = {
        "sigma": ((0.357, 0.50), (0.73, 0.92), (0.64, 0.89)),
        "kappa_mu": ((0.6, 3.0), (1.22, 0.47), (2.14, 0.43)),
        "d_f": ((2.0, 5.0), (0.72, 0.88), (0.70, 0.72)),
        "k": ((4, 16), (0.57, 0.99), (0.72, 0.71)),
        "p_opt": ((0.50, 0.95), (0.92, 0.42), (0.89, 0.39)),
        "b_mu": ((0.10, 0.40), (1.15, 0.42), (0.71, 0.71)),
    }
    failures = []
    start = time.perf_counter()
    for param, ((lo, hi), (c_lo, c_hi), (b_lo, b_hi)) in published.items():
        row_lo, row_hi = sweep_1d(SweepSpec(parameter=param, values=[lo, hi],
                                            base=WORKING))
        check(failures, f"C({param}={lo})", row_lo.capacity_nats, c_lo, 0.01)
        check(failures, f"C({param}={hi})", row_hi.capacity_nats, c_hi, 0.01)
        check(failures, f"B_crit({param}={lo})", row_lo.critical_bias, b_lo, 0.01)
        check(failures, f"B_crit({param}={hi})", row_hi.critical_bias, b_hi, 0.01)
    # classification invariance over the full swept grids
    grids = {"sigma": linear_grid(0.357, 0.50, 25), "kappa_mu": linear_grid(0.6, 3.0, 25),
             "d_f": [2.0, 3.0, 4.0, 5.0], "k": [4, 6, 8, 10, 12, 16],
             "p_opt": linear_grid(0.50, 0.95, 25), "b_mu": linear_grid(0.10, 0.40, 25)}
    for param, values in grids.items():
        for row in sweep_1d(SweepSpec(parameter=param, values=values, base=WORKING)):
            if row.regime != "DataEfficient":
                failures.append(f"{param}={row.value:.4g} classified {row.regime}")
    elapsed = time.perf_counter() - start
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.2f} s, want < 1 s")
    record(3, "sensitivity-table endpoints and classification", failures)


def test_criterion_4_burn_in():
    failures = []
    bound = burn_in_lower_bound(BurnInParams(epsilon=0.2, delta=0.01, gap=0.2, k=8))
    check(failures, "eps_K", bound.effective_prior_weight, 0.0833, 1e-3)
    check(failures, "binary_kl", bound.binary_kl, 1.998, 0.005)
    check(failures, "burn-in cycles", bound.cycles, 0.347, 0.005)
    record(4, "burn-in lower bound", failures)


def test_criterion_5_shift():
    failures = []
    check(failures, "check_retention(1.6, 8, 0).threshold",
          check_retention(1.6, 8, 0.0).threshold, 0.00463, 1e-4)
    check(failures, "r_min(12)", r_min(12), 0.0345, 5e-4)
    # worst-case verification arithmetic at k = 12, r = 0.035 (rounded)
    k, r = 12, 0.035
    log_k = math.log(k)
    lhs = 3 * r / k + (r / (k * log_k)) * math.log(2 * k * log_k / r)
    check(failures, "verification lhs", lhs, 0.01748, 5e-5)
    if not lhs < 0.0175:
        failures.append(f"verification inequality {lhs:.6g} < 0.0175 fails")
    # impossibility identities on 100 random strictly-positive joints
    # with uniform row marginals (equal-entropy rows by construction)
    rng = np.random.default_rng(20260823)
    for i in range(100):
        kk = 2 * int(rng.integers(1, 9))
        base_row = rng.random(kk) + 1e-3
        base_row /= base_row.sum()
        cond = np.stack([np.roll(base_row, j) for j in range(kk)])
        joint = joint_from_channel(np.full(kk, 1 / kk), cond)
        subset = rng.choice(kk, size=kk // 2, replace=False)
        rep = verify_impossibility(joint, subset)
        worst = max(rep.cond_entropy_residual, rep.kl_residual, rep.mi_excess)
        if worst >= 1e-9:
            failures.append(f"joint {i} (k={kk}): residual {worst:.3g}")
    record(5, "distribution-shift thresholds and impossibility identities", failures)


def test_criterion_6_prior_solver():
    failures = []
    check(failures, "beta(8, 1.9)", solve_prior_for_r_mech(8, 1.9).beta, 0.972, 1e-3)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 33))
        r = float(rng.random() * math.log(k))
        prior = solve_prior_for_r_mech(k, r)
        worst = max(worst, abs(prior.entropy() - (math.log(k) - r)))
    if worst >= 1e-9:
        failures.append(f"worst round-trip residual {worst:.3g} >= 1e-9")
    record(6, "two-level prior solver", failures)


def test_criterion_7_table1(table1):
    rows, elapsed = table1
    failures = []
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f} s, want < 30 s")
    for row in rows:
        if not 5.75 <= row.uninf.mean <= 6.05:
            failures.append(f"uninformed mean {row.uninf.mean:.4g} at "
                            f"r_mech={row.r_mech} outside [5.75, 6.05]")
        if not 7.70 <= row.bsa.mean <= 7.85:
            failures.append(f"BSA mean {row.bsa.mean:.4g} outside [7.70, 7.85]")
    hyb = [row.hyb.mean for row in rows]
    if not all(a > b for a, b in zip(hyb, hyb[1:])):
        failures.append(f"hybrid column not strictly decreasing: {hyb}")
    if rows[0].hyb != rows[0].uninf:
        failures.append("hybrid != uninformed bitwise at r_mech = 0")
    if not 0.15 <= hyb[-1] <= 0.60:
        failures.append(f"hybrid at r_mech=1.9 is {hyb[-1]:.4g}, outside [0.15, 0.60]")
    record(7, f"Table 1 simulation bands (M={SIM_TRIALS}, {elapsed:.1f} s)", failures)


def test_criterion_8_table2(table2):
    failures = []
    paper_uninf = {5: 2.73, 10: 5.08, 20: 8.48, 50: 13.31, 200: 17.8}
    for row in table2:
        target = paper_uninf[row.n]
        if abs(row.uninf.mean - target) > 0.07 * target:
            failures.append(f"uninformed mean {row.uninf.mean:.4g} at N={row.n} "
                            f"outside {target} +/- 7%")
    ratio_200 = table2[-1].ratio
    if not ratio_200 > 3.40:
        failures.append(f"ratio at N=200 is {ratio_200:.4g}, want > 3.40")
    record(8, f"Table 2 simulation bands (M={SIM_TRIALS})", failures)


def test_criterion_9_determinism(tmp_path):
    failures = []
    config = ExperimentConfig(trials=300, seed=SIM_SEED)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, table1_experiment(config))
    write_csv(b, table1_experiment(config))
    if a.read_bytes() != b.read_bytes():
        failures.append("repeated runs produce different CSV bytes")
    parallel = ExperimentConfig(trials=300, seed=SIM_SEED, workers=4)
    c = tmp_path / "c.csv"
    write_csv(c, table1_experiment(parallel))
    if a.read_bytes() != c.read_bytes():
        failures.append("serial vs parallel CSV bytes differ")
    record(9, "byte-identical determinism, serial == parallel", failures)
