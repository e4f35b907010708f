"""Correctness checks and seeded inputs for the mechcert benchmark.

Every check here is independent of the package under test: the Table 1
and Table 2 references are the published values with their acceptance
bands, and the closed-form CLI outputs are compared with a plain
re-derivation of each formula. A Monte Carlo mean passes when it lies
within its reference band widened by three of the run's own CI96
half-widths, so a different random-stream layout passes as long as its
estimates stay inside their CIs; no CSV hash is frozen.

A failure is reported per unit of work: per (row, algorithm) cell for
the simulation tables and per call for the closed-form CLI commands.
"""

from __future__ import annotations

import math
import random

# Paper working values used by both simulation tables.
K = 8
HORIZON = 12
P_OPT = 0.85
P_BSA = 0.20
R_GRID = (0.0, 0.3, 0.8, 1.4, 1.9)
N_GRID = (5, 10, 20, 50, 200)

# Calibration defaults of the certificate commands.
SIGMA = 0.40
KAPPA_MU = 1.8
D_F = 3.0

# A reference mean passes within band + CI_SCALE * (the run's CI96 half-width).
CI_SCALE = 3.0
# Two printed values agree when they match to 6 significant digits.
PRINT_RTOL = 2e-5

TABLE1_HEADER = ("r_mech,h_mech,hyb_mean,hyb_ci,uninf_mean,uninf_ci,"
                 "bsa_mean,bsa_ci,ratio_uninf_hyb,lb_prediction,ratio_bsa_hyb")
TABLE2_HEADER = "n,hyb_mean,hyb_ci,uninf_mean,uninf_ci,ratio"
TABLE1_ALGS = ("hybrid", "uninformed", "bsa")
TABLE2_ALGS = ("hybrid", "uninformed")

# Published references as (centre, band half-width), from the acceptance gate.
T1_UNINFORMED = (5.90, 0.15)
T1_HYBRID_AT_1_9 = (0.375, 0.225)
T2_UNINFORMED = {5: 2.73, 10: 5.08, 20: 8.48, 50: 13.31, 200: 17.8}
T2_UNINFORMED_RTOL = 0.07
T2_MIN_RATIO_AT_200 = 3.40


def close(value: float, expected: float, rtol: float = PRINT_RTOL,
          atol: float = 1e-12) -> bool:
    return math.isfinite(value) and abs(value - expected) <= atol + rtol * abs(expected)


class TableCheck:
    """Failed cells and reasons for one simulate output."""

    def __init__(self, rows: int, algs: tuple):
        self.cells = [(i, a) for i in range(rows) for a in algs]
        self.algs = algs
        self.bad: set = set()
        self.reasons: list[str] = []

    def fail(self, reason: str, cells=None) -> None:
        self.reasons.append(reason)
        self.bad.update(self.cells if cells is None else cells)

    def fail_row(self, i: int, reason: str) -> None:
        self.fail(reason, [(i, a) for a in self.algs])

    @property
    def failed(self) -> int:
        return len(self.bad)


def parse_csv(text: str, header: str, width: int, check: TableCheck) -> list:
    """Rows as float lists; a missing, short or non-numeric row is None.

    Header and row-count errors fail every cell; a corrupted row fails
    the cells of that row.
    """
    nrows = len(check.cells) // len(check.algs)
    lines = text.splitlines()
    if not lines or lines[0] != header:
        check.fail(f"bad header {lines[0] if lines else ''!r}")
        return [None] * nrows
    body = lines[1:]
    if len(body) != nrows:
        check.fail(f"{len(body)} rows, want {nrows}")
    rows = []
    for i in range(nrows):
        vals = None
        if i < len(body):
            try:
                vals = [float(x) for x in body[i].split(",")]
            except ValueError:
                vals = None
            if vals is not None and (len(vals) != width
                                     or not all(math.isfinite(v) for v in vals)):
                vals = None
        if vals is None:
            check.fail_row(i, f"corrupted row {i}: {body[i] if i < len(body) else '<missing>'!r}")
        rows.append(vals)
    return rows


def _within(mean: float, ci: float, centre: float, band: float) -> bool:
    return abs(mean - centre) <= band + CI_SCALE * ci


def check_table1(csv_text: str, stdout: str) -> TableCheck:
    """Checks of `simulate --table 1` at k = 8, n = 12."""
    check = TableCheck(len(R_GRID), TABLE1_ALGS)
    if stdout != csv_text:
        check.fail("stdout differs from table1.csv")
    rows = parse_csv(csv_text, TABLE1_HEADER, 11, check)
    bsa_exact = HORIZON * (P_OPT - P_BSA)
    bsa_field = f"{bsa_exact:.6g}"
    body = csv_text.splitlines()[1:]
    ln_k = math.log(K)
    for i, (r_grid, row) in enumerate(zip(R_GRID, rows)):
        if row is None:
            continue
        r, h, hyb, hyb_ci, uni, uni_ci, bsa, bsa_ci, ratio_uh, lb, ratio_bh = row
        if min(hyb, hyb_ci, uni, uni_ci, bsa_ci) < 0:
            check.fail_row(i, f"negative mean or CI in row {i}")
            continue
        derived_ok = (close(r, r_grid, atol=1e-9) and close(h, ln_k - r_grid)
                      and close(lb, math.sqrt(ln_k / (ln_k - r_grid)))
                      and (hyb == 0 or close(ratio_uh, uni / hyb, rtol=1e-4))
                      and (hyb == 0 or close(ratio_bh, bsa / hyb, rtol=1e-4)))
        if not derived_ok:
            check.fail_row(i, f"row {i} derived columns inconsistent: {body[i]!r}")
        if body[i].split(",")[6] != bsa_field or bsa_ci > 1e-9:
            check.fail(f"BSA at r_mech={r_grid} is {bsa} +/- {bsa_ci}, want exactly "
                       f"n*(p_opt-p_bsa) = {bsa_field}", [(i, "bsa")])
        if not _within(uni, uni_ci, *T1_UNINFORMED):
            check.fail(f"uninformed mean {uni} +/- {uni_ci} at r_mech={r_grid} outside "
                       f"{T1_UNINFORMED[0]} +/- {T1_UNINFORMED[1]} + {CI_SCALE:g} CI",
                       [(i, "uninformed")])
    if rows[0] is not None:
        f = body[0].split(",")
        if (f[2], f[3]) != (f[4], f[5]):
            check.fail("hybrid != uninformed at r_mech = 0", [(0, "hybrid")])
    last = rows[-1]
    if last is not None and not _within(last[2], last[3], *T1_HYBRID_AT_1_9):
        check.fail(f"hybrid mean {last[2]} +/- {last[3]} at r_mech=1.9 outside "
                   f"{T1_HYBRID_AT_1_9[0]} +/- {T1_HYBRID_AT_1_9[1]} + {CI_SCALE:g} CI",
                   [(len(rows) - 1, "hybrid")])
    for i in range(len(rows) - 1):
        a, b = rows[i], rows[i + 1]
        if a is not None and b is not None and not a[2] > b[2]:
            check.fail(f"hybrid column not strictly decreasing at rows {i}, {i + 1}",
                       [(i, "hybrid"), (i + 1, "hybrid")])
    return check


def check_table2(csv_text: str, stdout: str) -> TableCheck:
    """Checks of `simulate --table 2` at r_mech = 1.9."""
    check = TableCheck(len(N_GRID), TABLE2_ALGS)
    if stdout != csv_text:
        check.fail("stdout differs from table2.csv")
    rows = parse_csv(csv_text, TABLE2_HEADER, 6, check)
    body = csv_text.splitlines()[1:]
    for i, (n, row) in enumerate(zip(N_GRID, rows)):
        if row is None:
            continue
        n_got, hyb, hyb_ci, uni, uni_ci, ratio = row
        if min(hyb, hyb_ci, uni, uni_ci) < 0:
            check.fail_row(i, f"negative mean or CI in row {i}")
            continue
        if n_got != n or not (hyb == 0 or close(ratio, uni / hyb, rtol=1e-4)):
            check.fail_row(i, f"row {i} derived columns inconsistent: {body[i]!r}")
        ref = T2_UNINFORMED[n]
        if not _within(uni, uni_ci, ref, T2_UNINFORMED_RTOL * ref):
            check.fail(f"uninformed mean {uni} +/- {uni_ci} at n={n} outside {ref} "
                       f"+/- {T2_UNINFORMED_RTOL:.0%} + {CI_SCALE:g} CI", [(i, "uninformed")])
        if n == 200:
            low = hyb - CI_SCALE * hyb_ci
            high = math.inf if low <= 0 else (uni + CI_SCALE * uni_ci) / low
            if not high > T2_MIN_RATIO_AT_200:
                check.fail_row(i, f"ratio {ratio} at n=200 is below {T2_MIN_RATIO_AT_200} "
                                  f"beyond its CI")
    return check


def thompson_halfwidths(csv_text: str, table: int) -> dict:
    """CI96 half-width of every Thompson cell, keyed by (row, algorithm)."""
    out = {}
    for i, line in enumerate(csv_text.splitlines()[1:]):
        try:
            f = [float(x) for x in line.split(",")]
            pairs = ((("hybrid", f[3]), ("uninformed", f[5])) if table == 1
                     else (("hybrid", f[2]), ("uninformed", f[4])))
        except (ValueError, IndexError):
            continue
        for alg, hw in pairs:
            out[(i, alg)] = hw
    return out


# ---------------------------------------------------------------------------
# Closed-form CLI commands: seeded inputs and independent oracles.


def _canonical_sigma_f2(k: int, d_f: float, kappa: float = KAPPA_MU) -> float:
    return 2.0 * SIGMA**2 * math.log(k) / (kappa**2 * d_f)


def _capacity(b: float, k: int, d_f: float) -> float:
    s2 = _canonical_sigma_f2(k, d_f)
    return 0.5 * d_f * math.log1p(KAPPA_MU**2 * s2 / (KAPPA_MU**2 * b**2 + SIGMA**2))


def _critical_bias(k: int, n: int, d_f: float, kappa: float = KAPPA_MU) -> float:
    """Bias at which the capacity meets the working target ln(k) / n."""
    s2 = _canonical_sigma_f2(k, d_f, kappa)
    denom = math.expm1(2.0 * (math.log(k) / n) / d_f)
    return (SIGMA / kappa) * math.sqrt((kappa**2 * s2 / SIGMA**2) / denom - 1.0)


def _two_level_entropy(k: int, beta: float) -> float:
    rest = 1.0 - beta
    return -beta * math.log(beta) - rest * math.log(rest / (k - 1))


def _solve_beta(k: int, r_mech: float) -> float:
    lo, hi = 1.0 / k, 1.0 - 1e-15
    target = math.log(k) - r_mech
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _two_level_entropy(k, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def parse_kv(stdout: str) -> dict:
    """`key = value [unit]` lines as {key: [value, unit...]}."""
    out = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition(" = ")
        if sep:
            out.setdefault(key, rest.split())
    return out


def _expect(got: dict, key: str, expected, problems: list, unit: str | None = None) -> None:
    fields = got.get(key)
    if not fields:
        problems.append(f"missing {key}")
        return
    if isinstance(expected, str):
        if fields[0] != expected:
            problems.append(f"{key} = {fields[0]}, want {expected}")
        return
    try:
        value = float(fields[0])
    except ValueError:
        problems.append(f"{key} = {fields[0]!r} is not a number")
        return
    if not close(value, expected):
        problems.append(f"{key} = {value}, want {expected:.6g}")
    if unit is not None and fields[1:] != [unit]:
        problems.append(f"{key} unit {fields[1:]}, want {unit}")


def check_certify(stdout: str, b_mu: float) -> list:
    got, p = parse_kv(stdout), []
    cap = _capacity(b_mu, K, D_F)
    floor = max(math.log(K) - cap, 0.0)
    b_crit = _critical_bias(K, HORIZON, D_F)
    _expect(got, "sigma_f2", _canonical_sigma_f2(K, D_F), p)
    _expect(got, "capacity", cap, p, "nats")
    _expect(got, "h_mech_floor", floor, p, "nats")
    _expect(got, "critical_bias", b_crit, p)
    _expect(got, "bias_ratio_crit_over_b", b_crit / b_mu, p)
    _expect(got, "regime", "DataEfficient" if b_mu < b_crit else "Baseline", p)
    _expect(got, "sample_ratio", math.log(K) / floor, p)
    _expect(got, "lb_envelope", math.sqrt(K * HORIZON * floor / math.log(K)), p)
    _expect(got, "ub_envelope", math.sqrt(K * HORIZON * floor), p)
    return p


def check_prior(stdout: str, r_mech: float) -> list:
    got, p = parse_kv(stdout), []
    beta = _solve_beta(K, r_mech)
    _expect(got, "beta", beta, p)
    _expect(got, "alpha", (1.0 - beta) / (K - 1), p)
    return p


def check_burnin(stdout: str, eps: float, delta: float, gap: float) -> list:
    got, p = parse_kv(stdout), []
    eps_k = eps / (1.0 - eps + eps * K)
    kl = eps_k * math.log(eps_k / (1 - eps_k)) + (1 - eps_k) * math.log((1 - eps_k) / eps_k)
    cycles = (1 - delta) * (1 - eps) * gap * math.log((1 - eps) / delta) / kl
    _expect(got, "effective_prior_weight", eps_k, p)
    _expect(got, "binary_kl", kl, p, "nats")
    _expect(got, "burn_in_cycles", cycles, p)
    flagged = "flag = assumption epsilon <= delta violated" in stdout
    if flagged != (eps > delta):
        p.append(f"assumption flag {'present' if flagged else 'absent'} at eps={eps}, delta={delta}")
    return p


def check_shift(stdout: str, r_train: float, k: int, delta_pi: float) -> list:
    got, p = parse_kv(stdout), []
    threshold = r_train**2 / (2.0 * k**2 * math.log(k) ** 2)
    r_min = 2.0 * k ** (4.0 - k / 2.0) * math.log(k)
    retained = "Guaranteed" if r_train >= r_min and delta_pi <= threshold else "NotGuaranteed"
    _expect(got, "threshold", threshold, p, "nats")
    _expect(got, "retained", retained, p)
    return p


SWEEP_STEPS = 60
SWEEP_HEADER = "x_param,y_param,x,y,ratio"


def check_sweep_grid(stdout: str, csv_text: str, d_f: float) -> list:
    """`sweep --grid kappa_mu b_mu` at 60 x 60 with base --d-f d_f."""
    p = []
    rows_expected = SWEEP_STEPS * SWEEP_STEPS
    if f"({rows_expected} rows)" not in stdout:
        p.append(f"stdout {stdout.strip()!r} does not report {rows_expected} rows")
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return p + ["bad sweep2d.csv header"]
    if len(lines) - 1 != rows_expected:
        return p + [f"sweep2d.csv has {len(lines) - 1} rows, want {rows_expected}"]
    xs = [0.6 + (3.0 - 0.6) * i / (SWEEP_STEPS - 1) for i in range(SWEEP_STEPS)]
    ys = [0.10 + (0.40 - 0.10) * i / (SWEEP_STEPS - 1) for i in range(SWEEP_STEPS)]
    n_bad = 0
    for idx, line in enumerate(lines[1:]):
        x, y = xs[idx // SWEEP_STEPS], ys[idx % SWEEP_STEPS]
        f = line.split(",")
        try:
            ok = (f[:2] == ["kappa_mu", "b_mu"] and close(float(f[2]), x)
                  and close(float(f[3]), y)
                  and close(float(f[4]), y / _critical_bias(K, HORIZON, d_f, x)))
        except (ValueError, IndexError):
            ok = False
        n_bad += not ok
    if n_bad:
        p.append(f"{n_bad} sweep2d.csv rows disagree with the closed form")
    return p


def cli_round(rng: random.Random, outdir: str) -> list:
    """One round of the five closed-form commands with seeded inputs.

    Returns (name, argv, check) triples; check(stdout, csv_text) gives a
    list of problems. Inputs stay inside the region where every command
    succeeds, so a non-empty list is always a program fault.
    """
    b_mu = round(rng.uniform(0.10, 0.40), 4)
    r_mech = round(rng.uniform(0.05, 2.0), 4)
    eps = round(rng.uniform(0.05, 0.45), 4)
    r_train = round(rng.uniform(0.5, 2.0), 4)
    shift_k = 12
    threshold = r_train**2 / (2.0 * shift_k**2 * math.log(shift_k) ** 2)
    scale = rng.uniform(0.2, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 3.0)
    delta_pi = float(f"{threshold * scale:.6g}")
    d_f = round(rng.uniform(2.0, 5.0), 3)
    return [
        ("certify", ["certify", "--b-mu", str(b_mu)],
         lambda out, _csv: check_certify(out, b_mu)),
        ("prior", ["prior", "--r-mech", str(r_mech)],
         lambda out, _csv: check_prior(out, r_mech)),
        ("burnin", ["burnin", "--eps", str(eps), "--delta", "0.01", "--gap", "0.2"],
         lambda out, _csv: check_burnin(out, eps, 0.01, 0.2)),
        ("shift", ["shift", "--r-train", str(r_train), "--k", str(shift_k),
                   "--delta-pi", repr(delta_pi)],
         lambda out, _csv: check_shift(out, r_train, shift_k, delta_pi)),
        ("sweep_grid", ["sweep", "--grid", "kappa_mu", "b_mu", "--steps", str(SWEEP_STEPS),
                        "--d-f", str(d_f), "--out", outdir],
         lambda out, csv: check_sweep_grid(out, csv, d_f)),
    ]
