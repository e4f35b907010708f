import ast
import hashlib
import importlib.util
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mechcert import cli
from mechcert.cli import COMMANDS, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env(**extra):
    """os.environ for a subprocess that imports this checkout's mechcert: its
    `src` first on PYTHONPATH, then `extra`."""
    import mechcert
    src = str(Path(mechcert.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


@pytest.fixture
def joint_csv(tmp_path, two_level_joint):
    """tmp_path / "joint.csv": the k = 8 two-level joint table at beta = 0.972."""
    path = tmp_path / "joint.csv"
    path.write_text("8\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in two_level_joint(8, 0.972).probs))
    return path


def write_inputs(root, files):
    """Write each (name, text or bytes) of `files` under root."""
    for name, content in files.items():
        (root / name).write_bytes(content if isinstance(content, bytes) else content.encode())


# certify at the working point, and at b_mu = 0.80, past the critical bias
WORKING_REPORT = ("sigma_f2 = 0.068459\ncapacity = 0.796042 nats\nh_mech_floor = 1.2834 nats\n"
                  "critical_bias = 0.71389\nbias_ratio_crit_over_b = 3.24496\n"
                  "regime = DataEfficient\nsample_ratio = 1.62026\nlb_envelope = 7.69738\n"
                  "ub_envelope = 11.0998\n")
BASELINE_REPORT = ("sigma_f2 = 0.068459\ncapacity = 0.142017 nats\nh_mech_floor = 1.93742 nats\n"
                   "critical_bias = 0.71389\nbias_ratio_crit_over_b = 0.892363\n"
                   "regime = Baseline\nsample_ratio = 1.0733\nlb_envelope = 9.45746\n"
                   "ub_envelope = 13.6379\n")
ASSUMPTION_FLAG = "flag = assumption epsilon <= delta violated; bound is exploratory\n"

# case id: (argv, input files written to the working directory, the whole stdout)
CLOSED_FORM_OUTPUTS = {
    # no warning line at k = 8
    "certify-working-values": ("certify", {}, WORKING_REPORT),
    # the envelopes' ratio ub/lb is sqrt(ln k), below 1 when k < e
    "certify-crossed-envelopes-warn": (
        "certify --k 2 --n 1000000", {},
        "sigma_f2 = 0.0228197\ncapacity = 0.314627 nats\nh_mech_floor = 0.37852 nats\n"
        "critical_bias = 222.222\nbias_ratio_crit_over_b = 1010.1\nregime = DataEfficient\n"
        "sample_ratio = 1.8312\nlb_envelope = 1045.07\nub_envelope = 870.081\n"
        "warning = lb_envelope exceeds ub_envelope "
        "(constant-free envelopes cross when ln k < 1)\n"),
    "certify-baseline-regime": ("certify --b-mu 0.80", {}, BASELINE_REPORT),
    "certify-config-file": ("certify --config run.cfg",
                            {"run.cfg": "# working values\nk = 8\nn = 12\nb_mu = 0.80\n"},
                            BASELINE_REPORT),
    "certify-flags-override-config": ("certify --config run.cfg --b-mu 0.22",
                                      {"run.cfg": "b_mu = 0.80\n"}, WORKING_REPORT),
    # Excel's "CSV UTF-8" export and Windows Notepad start a file with a byte order mark
    "certify-config-byte-order-mark": ("certify --config run.cfg",
                                       {"run.cfg": b"\xef\xbb\xbfb_mu = 0.8\n"}, BASELINE_REPORT),
    "burnin-running-example": (
        "burnin --eps 0.2 --delta 0.01 --gap 0.2 --k 8", {},
        "effective_prior_weight = 0.0833333\nbinary_kl = 1.99825 nats\n"
        "burn_in_cycles = 0.347361\n" + ASSUMPTION_FLAG),
    "burnin-assumption-flag": (
        "burnin --eps 0.15 --delta 0.10 --gap 0.2 --k 8", {},
        "effective_prior_weight = 0.0731707\nbinary_kl = 2.16742 nats\n"
        "burn_in_cycles = 0.151069\n" + ASSUMPTION_FLAG),
    "burnin-degenerate-flag": (
        "burnin --eps 0.9 --delta 0.3 --gap 0.2 --k 8", {},
        "effective_prior_weight = 0.123288\nburn_in_cycles = 0\n"
        "flag = degenerate regime (delta >= 1 - epsilon); bound is 0\n" + ASSUMPTION_FLAG),
    # kl(eps_k, 1 - eps_k) is taken from eps and k: eps_k near 0 or 1/2 keeps its digits
    "burnin-eps-underflow": (
        "burnin --eps 1e-300 --delta 0.01 --gap 0.2", {},
        "effective_prior_weight = 1e-300\nbinary_kl = 690.776 nats\nburn_in_cycles = 0.00132\n"),
    "burnin-k-overflow": (
        "burnin --eps 0.2 --delta 0.01 --gap 0.2 --k 100000000000000000000", {},
        "effective_prior_weight = 1e-20\nbinary_kl = 46.0517 nats\n"
        "burn_in_cycles = 0.0150725\n" + ASSUMPTION_FLAG),
    "burnin-eps-near-1": (
        "burnin --eps 0.999999998 --delta 1e-12 --gap 1 --k 2", {},
        "effective_prior_weight = 0.5\nbinary_kl = 2e-18 nats\n"
        "burn_in_cycles = 7.6009e+09\n" + ASSUMPTION_FLAG),
    "burnin-eps-nearer-1": (
        "burnin --eps 0.9999999998 --delta 1e-12 --gap 1 --k 2", {},
        "effective_prior_weight = 0.5\nbinary_kl = 2e-20 nats\n"
        "burn_in_cycles = 5.29832e+10\n" + ASSUMPTION_FLAG),
    "shift-retention-report": ("shift --r-train 1.6 --k 8 --delta-pi 0.5", {},
                               "threshold = 0.00462526 nats\nretained = OutOfScope\n"),
    "shift-guaranteed": ("shift --r-train 1.6 --k 12 --delta-pi 0.0", {},
                         "threshold = 0.00143955 nats\nretained = Guaranteed\n"),
    "shift-independent-joint": (
        "shift --joint uniform.joint", {"uniform.joint": "10\n" + ("0.01," * 9 + "0.01\n") * 10},
        "cond_entropy_residual = 4.44089e-16\nkl_residual = 2.22045e-16\nmi_excess = 0\n"
        "shift_divergence = 0 nats\nmutual_information_test = 0 nats\n"),
    "shift-joint-byte-order-mark": (
        "shift --joint diag.csv", {"diag.csv": b"\xef\xbb\xbf2\n0.5,0\n0,0.5\n"},
        "cond_entropy_residual = 5.55112e-17\nkl_residual = 0\nmi_excess = 0\n"
        "shift_divergence = 0.346574 nats\nmutual_information_test = 0.215762 nats\n"),
    "prior-table2-level": ("prior --k 8 --r-mech 1.9", {}, "beta = 0.972502\nalpha = 0.00392825\n"),
    "prior-uniform": ("prior --k 8 --r-mech 0", {}, "beta = 0.125\nalpha = 0.125\n"),
    # r_mech = ln 8
    "prior-point-mass": ("prior --k 8 --r-mech 2.0794415416798357", {}, "beta = 1\nalpha = 0\n"),
}


@pytest.mark.parametrize("argv,files,stdout", CLOSED_FORM_OUTPUTS.values(),
                         ids=CLOSED_FORM_OUTPUTS)
def test_closed_form_output(capsys, monkeypatch, tmp_path, argv, files, stdout):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path, files)
    assert run(capsys, *shlex.split(argv)) == (0, stdout, "")


class TestCertify:
    def test_bits_display(self, capsys):
        _, nats_out, _ = run(capsys, "certify")
        _, bits_out, _ = run(capsys, "certify", "--bits")
        def grab(text, key):
            line = next(l for l in text.splitlines() if l.startswith(key))
            return float(line.split("=")[1].split()[0])
        assert grab(bits_out, "capacity") == pytest.approx(
            grab(nats_out, "capacity") / math.log(2), rel=1e-4)

    def test_report_file(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, out, _ = run(capsys, "certify", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "certify.txt").read_text().strip() == out.strip()


class TestSimulate:
    def test_table1_smoke(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--table", "1", "--trials", "40",
                           "--seed", "42", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("r_mech,h_mech,")
        assert out.splitlines()[0] == lines[0]

    def test_table2_smoke(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--table", "2", "--trials", "30",
                         "--seed", "7", "--out", str(tmp_path))
        assert code == 0
        assert len((tmp_path / "table2.csv").read_text().splitlines()) == 6

    @pytest.mark.parametrize("table", ["1", "2"])
    def test_stdout_is_the_csv(self, capsys, tmp_path, table):
        code, out, _ = run(capsys, "simulate", "--table", table, "--trials", "40",
                           "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        assert out == (tmp_path / f"table{table}.csv").read_text()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "simulate", "--table", "1", "--trials", "60", "--seed", "5",
            "--out", str(a))
        run(capsys, "simulate", "--table", "1", "--trials", "60", "--seed", "5",
            "--out", str(b))
        assert (a / "table1.csv").read_bytes() == (b / "table1.csv").read_bytes()

    # 300 trials are two blocks and 600 are three, the last one partial, so two
    # workers start one pool whatever the CPU count
    @pytest.mark.parametrize("table,trials", [
        pytest.param("1", "300", id="1"), pytest.param("2", "300", id="2"),
        pytest.param("1", "600", id="1-600"), pytest.param("2", "600", id="2-600")])
    def test_workers_do_not_change_output(self, capsys, tmp_path, monkeypatch, started_pools,
                                          table, trials):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        csv = f"table{table}.csv"
        for workers, out in (("1", tmp_path / "a"), ("2", tmp_path / "b")):
            code, _, _ = run(capsys, "simulate", "--table", table, "--trials", trials,
                             "--seed", "5", "--workers", workers, "--out", str(out))
            assert code == 0
        assert started_pools == [2]
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()

    # the largest strength whose pseudo-counts s * K stay finite: each arm's
    # pair has at most one shape near 1e308, and a ratio G_a / G_b that overflows
    # is inf, which ranks its arm first without a warning
    @pytest.mark.parametrize("table", ["1", "2"])
    def test_largest_accepted_strength(self, capsys, tmp_path, table):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "simulate", "--table", table, "--trials", "40",
                                 "--seed", "3", "--strength", "2e307", "--out", str(tmp_path))
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        means = [i for i, name in enumerate(header.split(",")) if name.endswith("_mean")]
        assert len(rows) == 5 and len(means) >= 2
        assert all(math.isfinite(float(row.split(",")[i])) for row in rows for i in means)



# a valid 8x8 joint table, the diagonal at 1/8, for calls that fail on another input
DIAG8 = "8\n" + "".join(",".join("0.125" if i == j else "0" for j in range(8)) + "\n"
                        for i in range(8))
# finite inputs whose arithmetic overflows or divides by zero
OVERFLOW = "a parameter is out of numeric range (OverflowError)"
ZERO_DIVISION = "a parameter is out of numeric range (ZeroDivisionError)"

# case id: (argv, input files written to the working directory, exit code, the whole
# message after "error: "). Every failing CLI call is a row of one of the three tables
# below, and `check_cli_error` checks each row. A row's --out names a directory the
# call must not make, or the file `taken`.

# exit 2: a value outside its domain
DOMAIN_ERRORS = {
    "burnin-eps": ("burnin --eps 1.5 --delta 0.01 --gap 0.2", {}, 2,
                   "epsilon must lie in (0, 1), got 1.5"),
    "burnin-eps-nan": ("burnin --eps nan --delta 0.01 --gap 0.2", {}, 2,
                       "epsilon must lie in (0, 1), got nan"),
    "burnin-delta-nan": ("burnin --eps 0.2 --delta nan --gap 0.2", {}, 2,
                         "delta must lie in (0, 0.5), got nan"),
    "burnin-gap-nan": ("burnin --eps 0.2 --delta 0.01 --gap nan", {}, 2,
                       "gap must lie in [0, inf), got nan"),
    "burnin-k-zero": ("burnin --eps 0.2 --delta 0.01 --gap 0.2 --k 0", {}, 2,
                      "k must be >= 2, got 0"),
    "burnin-cycles-overflow": ("burnin --eps 0.45 --delta 1e-300 --gap 1e308", {}, 2, OVERFLOW),
    "certify-b-mu-nan": ("certify --b-mu nan", {}, 2, "b_mu must lie in [0, inf), got nan"),
    "certify-sigma-nan": ("certify --sigma nan", {}, 2, "sigma must lie in (0, inf), got nan"),
    "certify-kappa-mu-nan": ("certify --kappa-mu nan", {}, 2,
                             "kappa_mu must lie in (0, inf), got nan"),
    "certify-d-f-nan": ("certify --d-f nan", {}, 2, "d_f must lie in (0, inf), got nan"),
    "certify-target-nan": ("certify --target nan", {}, 2, "target must lie in (0, inf), got nan"),
    "certify-k-zero": ("certify --k 0", {}, 2, "k must be >= 2, got 0"),
    "certify-kappa-mu-overflow": ("certify --kappa-mu 1e200", {}, 2, OVERFLOW),
    "certify-sigma-overflow": ("certify --sigma 1e200", {}, 2, OVERFLOW),
    "certify-sigma-underflow": ("certify --sigma 1e-200", {}, 2, ZERO_DIVISION),
    "certify-d-f-underflow": ("certify --d-f 1e-300", {}, 2, OVERFLOW),
    "certify-d-f-overflow": ("certify --d-f 1e-320", {}, 2, OVERFLOW),
    "certify-target-overflow": ("certify --target 1e-320", {}, 2, OVERFLOW),
    "certify-capacity-overflow": ("certify --d-f 1e-308", {}, 2, OVERFLOW),
    "certify-capacity-overflow-subnormal-d-f": ("certify --d-f 5e-309", {}, 2, OVERFLOW),
    # the report directory is not made when no report is written
    "certify-unreachable-n": ("certify --n 1 --out report", {}, 2,
                              "target unreachable: target 2.07944 nats exceeds zero-bias "
                              "capacity 1.30461 nats"),
    "certify-unreachable-target": ("certify --target 5 --out report", {}, 2,
                                   "target unreachable: target 5 nats exceeds zero-bias "
                                   "capacity 1.30461 nats"),
    "prior-k-zero": ("prior --k 0 --r-mech 1.9", {}, 2, "k must be >= 2, got 0"),
    "prior-r-mech-nan": ("prior --r-mech nan", {}, 2, "r_mech must lie in [0, 2.07944], got nan"),
    "prior-r-mech-out-of-range": ("prior --k 8 --r-mech 5.0", {}, 2,
                                  "r_mech must lie in [0, 2.07944], got 5.0"),
    "shift-r-train-nan": ("shift --r-train nan --delta-pi 0.005", {}, 2,
                          "r_train must lie in [0, inf), got nan"),
    "shift-delta-pi-nan": ("shift --r-train 1.6 --delta-pi nan", {}, 2,
                           "delta_pi must lie in [0, inf), got nan"),
    "shift-k-zero": ("shift --r-train 1.6 --delta-pi 0.005 --k 0", {}, 2, "k must be >= 2, got 0"),
    "shift-r-train-overflow": ("shift --r-train 1e300 --delta-pi 0 --k 12", {}, 2, OVERFLOW),
    "shift-joint-nan": ("shift --joint nan.joint", {"nan.joint": "2\nnan,0.5\n0.25,0.25\n"}, 2,
                        "probs entry must lie in [0, inf), got nan"),
    "shift-joint-empty": ("shift --joint empty.joint", {"empty.joint": ""}, 2,
                          "empty.joint: expected k on the first line, then k rows of k "
                          "comma-separated probabilities (invalid literal for int() with base 10: "
                          "'')"),
    "shift-joint-malformed": ("shift --joint malformed.joint",
                              {"malformed.joint": "two\n0.5,0\n0,0.5\n"}, 2,
                              "malformed.joint: expected k on the first line, then k rows of k "
                              "comma-separated probabilities (invalid literal for int() with "
                              "base 10: 'two')"),
    "shift-joint-ragged": ("shift --joint ragged.joint",
                           {"ragged.joint": "2\n0.5,0\n0,0.25,0.25\n"}, 2,
                           "ragged.joint: expected k on the first line, then k rows of k "
                           "comma-separated probabilities; got k = 2 and 2 rows of lengths "
                           "[2, 3]"),
    "shift-subset-repeated": ("shift --joint diag8.joint --subset 0,0,1,2,3",
                              {"diag8.joint": DIAG8}, 2, "subset entry 0 is repeated"),
    "simulate-strength-nan": ("simulate --table 1 --trials 10 --strength nan", {}, 2,
                              "prior_strength must lie in [0, 2.24712e+307], got nan"),
    "simulate-strength-negative": ("simulate --table 1 --trials 10 --strength -1", {}, 2,
                                   "prior_strength must lie in [0, 2.24712e+307], got -1.0"),
    "simulate-strength-overflow": ("simulate --table 1 --trials 3 --strength 1e308", {}, 2,
                                   "prior_strength must lie in [0, 2.24712e+307], got 1e+308"),
    "simulate-workers-negative": ("simulate --table 1 --trials 10 --workers -3", {}, 2,
                                  "workers must be >= 1, got -3"),
    "simulate-workers-zero": ("simulate --table 1 --trials 10 --workers 0", {}, 2,
                              "workers must be >= 1, got 0"),
    "simulate-trials-zero": ("simulate --table 1 --trials 0", {}, 2, "trials must be >= 1, got 0"),
    "simulate-seed-negative": ("simulate --table 1 --trials 10 --seed -1", {}, 2,
                               "seed must be >= 0, got -1"),
    "sweep-grid-steps-zero": ("sweep --grid kappa_mu b_mu --steps 0", {}, 2,
                              "steps must be >= 1, got 0"),
    "sweep-param-steps-zero": ("sweep --param sigma --min 0.3 --max 0.5 --steps 0", {}, 2,
                               "steps must be >= 1, got 0"),
    "sweep-invalid-k-cell": ("sweep --param k --values 1.5,8", {}, 2,
                             "k must be an integer, got 1.5"),
    "sweep-non-integer-k": ("sweep --param k --values 8,8.7", {}, 2,
                            "k must be an integer, got 8.7"),
    "sweep-k-zero": ("sweep --k 0 --param b_mu --values 0.2", {}, 2, "k must be >= 2, got 0"),
    "sweep-grid-sigma-p-opt": ("sweep --grid sigma p_opt --steps 3", {}, 2,
                               "grid axes sigma and p_opt set the same quantity"),
    "sweep-grid-same-axis": ("sweep --grid b_mu b_mu --steps 3", {}, 2,
                             "grid axes b_mu and b_mu set the same quantity"),
    "sweep-p-opt-out-of-range": ("sweep --param p_opt --values 1.5", {}, 2,
                                 "p_opt must lie in (0, 1), got 1.5"),
    "sweep-sigma-underflow": ("sweep --param sigma --values 1e-200", {}, 2, ZERO_DIVISION),
    "sweep-d-f-overflow": ("sweep --param d_f --values 1e-320", {}, 2, OVERFLOW),
}

# exit 1: a flag the chosen mode never reads, or a flag it needs and lacks
MODE_FLAG_ERRORS = {
    # a flag the chosen mode never reads, given on the command line or in the config file
    "shift-joint-r-train": ("shift --joint joint.csv --r-train 1 --delta-pi 0.1",
                            {"joint.csv": DIAG8}, 1,
                            "argument --r-train: not allowed with argument --joint"),
    "shift-joint-k": ("shift --joint joint.csv --k 12", {"joint.csv": DIAG8}, 1,
                      "argument --k: not allowed with argument --joint"),
    "shift-joint-config-k": ("shift --joint joint.csv --config run.cfg",
                             {"joint.csv": DIAG8, "run.cfg": "k = 12\n"}, 1,
                             "argument --k: not allowed with argument --joint"),
    "shift-subset-without-joint": ("shift --r-train 1.6 --delta-pi 0.005 --subset 0,1", {}, 1,
                                   "argument --subset: not allowed without argument --joint"),
    "sweep-param-with-grid": ("sweep --param sigma --grid kappa_mu b_mu --steps 2 --out sweeps",
                              {}, 1, "argument --grid: not allowed with argument --param"),
    "sweep-grid-values": ("sweep --grid kappa_mu b_mu --values 1,2 --out sweeps", {}, 1,
                          "argument --values: not allowed with argument --grid"),
    "sweep-grid-config-values": ("sweep --grid kappa_mu b_mu --config run.cfg --out sweeps",
                                 {"run.cfg": "values = 1,2\n"}, 1,
                                 "argument --values: not allowed with argument --grid"),
    "sweep-grid-range": ("sweep --grid kappa_mu b_mu --min 0 --max 9 --out sweeps", {}, 1,
                         "argument --min: not allowed with argument --grid"),
    "sweep-values-range": ("sweep --param b_mu --values 0.2,0.3 --min 0 --max 1 --out sweeps", {},
                           1, "argument --min: not allowed with argument --values"),
    "sweep-values-steps": ("sweep --param b_mu --values 0.2,0.3 --steps 5 --out sweeps", {}, 1,
                           "argument --steps: not allowed with argument --values"),
    # the flag of the field a swept parameter sets, the first grid axis's checked first
    "sweep-grid-own-flag": ("sweep --grid kappa_mu b_mu --steps 5 --b-mu 0.35 --out sweeps", {},
                            1, "argument --b-mu: not allowed with a sweep over b_mu"),
    "sweep-grid-x-flag-first": ("sweep --grid kappa_mu b_mu --steps 5 --b-mu 0.35 --kappa-mu 0.7 "
                                "--out sweeps", {}, 1,
                                "argument --kappa-mu: not allowed with a sweep over kappa_mu"),
    "sweep-p-opt-sigma": ("sweep --grid p_opt b_mu --sigma 0.3 --out sweeps", {}, 1,
                          "argument --sigma: not allowed with a sweep over p_opt"),
    "sweep-param-own-flag": ("sweep --param k --min 2 --max 5 --steps 4 --k 30 --out sweeps", {},
                             1, "argument --k: not allowed with a sweep over k"),
    "sweep-grid-config-own-key": ("sweep --grid b_mu k --config run.cfg --out sweeps",
                                  {"run.cfg": "b_mu = 0.35\n"}, 1,
                                  "argument --b-mu: not allowed with a sweep over b_mu"),
    "sweep-param-config-sigma": ("sweep --param p_opt --values 0.6 --config run.cfg --out sweeps",
                                 {"run.cfg": "sigma = 0.3\n"}, 1,
                                 "argument --sigma: not allowed with a sweep over p_opt"),
    # a flag the mode needs, missing
    "shift-missing-delta-pi": ("shift --r-train 1.6", {}, 1,
                               "shift requires --r-train and --delta-pi (or --joint)"),
    "sweep-no-mode": ("sweep --out sweeps", {}, 1, "sweep requires --param or --grid"),
    "sweep-missing-range": ("sweep --param sigma --out sweeps", {}, 1,
                            "sweep needs --values or --min/--max"),
    # a required flag has no config key: the command line must give it, and wins
    "simulate-config-table": ("simulate --table 1 --trials 1 --config run.cfg",
                              {"run.cfg": "table = 2\n"}, 1, "unknown config key 'table'"),
    "simulate-config-table-not-a-choice": ("simulate --table 1 --trials 1 --config run.cfg",
                                           {"run.cfg": "table = 3\n"}, 1,
                                           "unknown config key 'table'"),
    "prior-config-r-mech": ("prior --r-mech 1 --config run.cfg", {"run.cfg": "r_mech = 1.9\n"}, 1,
                            "unknown config key 'r_mech'"),
}

# exit 1: any other usage or I/O error
USAGE_ERRORS = {
    # a bad entry of a list flag is a usage error naming the flag
    "subset-letters": ("shift --joint joint.csv --subset a,b,c,d", {"joint.csv": DIAG8}, 1,
                       "argument --subset: expected comma-separated integers, got 'a,b,c,d'"),
    "subset-float": ("shift --joint joint.csv --subset 0,1.5", {"joint.csv": DIAG8}, 1,
                     "argument --subset: expected comma-separated integers, got '0,1.5'"),
    "subset-config": ("shift --joint joint.csv --config run.cfg",
                      {"joint.csv": DIAG8, "run.cfg": "subset = 0,x\n"}, 1,
                      "argument --subset: expected comma-separated integers, got '0,x'"),
    "values-letter": ("sweep --param b_mu --values x", {}, 1,
                      "argument --values: expected comma-separated numbers, got 'x'"),
    "values-empty-entry": ("sweep --param b_mu --values 0.2,,0.3", {}, 1,
                           "argument --values: expected comma-separated numbers, got '0.2,,0.3'"),
    "values-config": ("sweep --param b_mu --config run.cfg", {"run.cfg": "values = 0.2;0.3\n"}, 1,
                      "argument --values: expected comma-separated numbers, got '0.2;0.3'"),
    "k-letter": ("certify --k x", {}, 1, "argument --k: invalid int value: 'x'"),
    # flags and config keys that no longer exist
    "certify-sigma-f2-flag": ("certify --sigma-f2 1", {}, 1,
                              "unrecognized arguments: --sigma-f2 1"),
    "certify-sigma-f2-config": ("certify --config run.cfg", {"run.cfg": "sigma_f2 = 1\n"}, 1,
                                "unknown config key 'sigma_f2'"),
    "sweep-k-sweep-flag": ("sweep --param b_mu --values 0.22 --out sweeps --k-sweep", {}, 1,
                           "unrecognized arguments: --k-sweep"),
    "sweep-sigma-f2-flag": ("sweep --param b_mu --values 0.22 --out sweeps --sigma-f2 0.5", {}, 1,
                            "unrecognized arguments: --sigma-f2 0.5"),
    "sweep-sigma-f2-config": ("sweep --param b_mu --values 0.22 --out sweeps --config run.cfg",
                              {"run.cfg": "sigma_f2 = 0.5\n"}, 1, "unknown config key 'sigma_f2'"),
    # nor has a flag of another command a config key
    "simulate-config-k": ("simulate --table 1 --trials 10 --config run.cfg --out tables",
                          {"run.cfg": "k = 8\n"}, 1, "unknown config key 'k'"),
    "sweep-config-param-not-a-choice": ("sweep --config run.cfg --values 1 --out sweeps",
                                        {"run.cfg": "param = foo\n"}, 1,
                                        "config param = foo: choose from sigma, kappa_mu, d_f, k, "
                                        "p_opt, b_mu"),
    # a config file that cannot be read or parsed
    "unknown-key": ("certify --config run.cfg", {"run.cfg": "horizon = 12\n"}, 1,
                    "unknown config key 'horizon'"),
    "bad-value": ("certify --config run.cfg", {"run.cfg": "k = x\n"}, 1,
                  "argument --k: invalid int value: 'x'"),
    # one value per key: a later line does not silently replace an earlier one
    "duplicate-key": ("certify --config run.cfg",
                      {"run.cfg": "b_mu = 0.9\n# a second value\nb_mu = 0.1\n"}, 1,
                      "run.cfg:3: duplicate config key 'b_mu' (first set on line 1)"),
    "line-without-equals": ("certify --config run.cfg", {"run.cfg": "k = 8\nb_mu 0.9\n"}, 1,
                            "run.cfg:2: expected 'key = value', got 'b_mu 0.9'"),
    "missing-file": ("certify --config run.cfg", {}, 1,
                     "cannot read config file run.cfg: [Errno 2] No such file or directory: "
                     "'run.cfg'"),
    "undecodable": ("certify --config run.cfg", {"run.cfg": b"b_mu = 0.8\xff\n"}, 1,
                    "cannot read config file run.cfg: 'utf-8' codec can't decode byte 0xff in "
                    "position 10: invalid start byte"),
    # --out names a file: checked before anything is printed
    "certify": ("certify --out taken", {"taken": "a file\n"}, 1,
                "cannot create output directory taken: [Errno 17] File exists: 'taken'"),
    "simulate": ("simulate --table 1 --trials 3 --out taken", {"taken": "a file\n"}, 1,
                 "cannot create output directory taken: [Errno 17] File exists: 'taken'"),
    "sweep": ("sweep --param b_mu --values 0.2 --out taken", {"taken": "a file\n"}, 1,
              "cannot create output directory taken: [Errno 17] File exists: 'taken'"),
}


def snapshot(root):
    """Every path under root, with a file's bytes (None for a directory)."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


def check_cli_error(capsys, monkeypatch, tmp_path, argv, files, code, message):
    """A failing call prints one error line to stderr and nothing to stdout, and
    leaves its working directory as it found it: no file written or changed, no
    directory made."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path, files)
    before = snapshot(tmp_path)
    assert run(capsys, *shlex.split(argv)) == (code, "", f"error: {message}\n")
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("row", DOMAIN_ERRORS.values(), ids=DOMAIN_ERRORS)
def test_domain_error_exit_2(capsys, monkeypatch, tmp_path, row):
    check_cli_error(capsys, monkeypatch, tmp_path, *row)


@pytest.mark.parametrize("row", MODE_FLAG_ERRORS.values(), ids=MODE_FLAG_ERRORS)
def test_flag_the_mode_never_reads_exit_1(capsys, monkeypatch, tmp_path, row):
    check_cli_error(capsys, monkeypatch, tmp_path, *row)


@pytest.mark.parametrize("row", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exit_1(capsys, monkeypatch, tmp_path, row):
    check_cli_error(capsys, monkeypatch, tmp_path, *row)


def test_list_flags_from_config_take_effect(capsys, tmp_path):
    (tmp_path / "run.cfg").write_text("values = 0.6,3.0\n")
    code, _, _ = run(capsys, "sweep", "--param", "kappa_mu", "--config",
                     str(tmp_path / "run.cfg"), "--out", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run(capsys, "sweep", "--param", "kappa_mu", "--values", "0.6,3.0",
                     "--out", str(tmp_path / "b"))
    assert code == 0
    assert ((tmp_path / "a" / "sweep1d.csv").read_bytes()
            == (tmp_path / "b" / "sweep1d.csv").read_bytes())


def test_import_loads_only_what_the_command_runs(tmp_path):
    """The package is six modules. `cli` loads `certificates` alone and none of
    numpy, scipy, multiprocessing or dataclasses; the bare package loads none of
    its modules; the Monte Carlo engine needs neither dataclasses nor `sweep`.
    A fresh call loads only the modules its command runs, and only `simulate`
    loads numpy. Reading `cli.solve_prior_for_r_mech` is what loads `prior`,
    and any other missing name of `cli` is an AttributeError."""
    import mechcert
    assert importlib.util.find_spec("mechcert.misspec") is None
    assert sorted(p.stem for p in Path(mechcert.__file__).parent.glob("*.py")) == [
        "__init__", "certificates", "cli", "prior", "sim", "sweep"]
    env = package_env()
    heavy = ("m.split('.')[0] in ('numpy', 'scipy') or m in ('concurrent.futures.process', "
             "'dataclasses')")
    cli_loads = ["mechcert", "mechcert.certificates", "mechcert.cli"]
    for module, shown, loaded in (
            ("mechcert", f"{heavy} or m.startswith('mechcert.')", []),
            ("mechcert.cli", f"{heavy} or m.split('.')[0] == 'mechcert'", cli_loads),
            ("mechcert.sim", "m in ('dataclasses', 'mechcert.sweep')", [])):
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if {shown}))"
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, timeout=60, check=True)
        assert result.stdout.strip() == str(loaded), module
    probe = ("import contextlib, io, sys\nfrom mechcert.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n    main(sys.argv[1:])\n"
             "print(sorted(m for m in sys.modules if m == 'numpy' or "
             "m.split('.')[0] == 'mechcert'))")
    prior = ["mechcert.prior"]
    for argv, added in ((["certify"], []), (["prior", "--r-mech", "1.9"], prior),
                        (["burnin", "--eps", "0.05", "--delta", "0.1", "--gap", "0.3"], prior),
                        (["shift", "--r-train", "1.6", "--delta-pi", "0.5"], prior),
                        (["sweep", "--param", "b_mu", "--values", "0.2", "--out", str(tmp_path)],
                         ["mechcert.sweep"]),
                        (["simulate", "--table", "1", "--trials", "1", "--out", str(tmp_path)],
                         [*prior, "mechcert.sim", "numpy"])):
        result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.strip() == str(cli_loads + added), argv
    probe = ("import sys\nfrom mechcert import cli\n"
             "loaded = ['mechcert.prior' in sys.modules]\nseam = cli.solve_prior_for_r_mech\n"
             "loaded.append('mechcert.prior' in sys.modules)\nfrom mechcert import prior\n"
             "print(loaded, seam is prior.solve_prior_for_r_mech, hasattr(cli, 'no_such_name'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[False, True] True False"


@pytest.mark.parametrize("argv", [("-h",), (), *((name, "-h") for name in COMMANDS),
                                  ("certfy",), ("certify", "extra"), ("simulate",)],
                         ids=lambda argv: " ".join(argv) or "no-args")
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, argv):
    """`main` builds only the named command's parser; its help, usage errors
    and exit codes read exactly as those of the parser with all six."""

    def call():
        try:
            code = main(list(argv))
        except SystemExit as exc:  # -h exits from inside argparse
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    own = call()
    monkeypatch.setattr(cli, "build_parser", lambda names: build_parser())
    assert call() == own


def test_action_table_pinned():
    """No flag, default, choice or help text of the six subcommands moves: a
    hash of every flag's attributes and mutually exclusive group."""
    rows = []
    for command, parser in build_parser().commands.items():
        groups = parser._mutually_exclusive_groups
        for a in parser._actions:
            if a.dest == "help":
                continue
            group = next((i for i, g in enumerate(groups) if a in g._group_actions), None)
            rows.append((command, tuple(a.option_strings), a.dest,
                         getattr(a.type, "__name__", None), a.default, a.choices, a.required,
                         a.nargs, a.metavar, a.help, group))
    assert len(rows) == 47
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "f8c9346124c0426a1e2fbde72a5b5485c626dd2009a9439400764b66b2183fd6")


def test_closed_form_commands_run_without_site_packages(tmp_path, joint_csv):
    """Every closed-form command exits 0 under `python -S`: no site-packages, so
    no numpy."""
    for argv in (["certify"], ["prior", "--r-mech", "1.9"],
                 ["burnin", "--eps", "0.05", "--delta", "0.1", "--gap", "0.3"],
                 ["shift", "--r-train", "1.6", "--delta-pi", "0.5"],
                 ["shift", "--joint", "joint.csv"],
                 ["sweep", "--grid", "kappa_mu", "b_mu", "--steps", "3"],
                 ["sweep", "--param", "k", "--min", "2", "--max", "20", "--steps", "19"]):
        result = subprocess.run([sys.executable, "-S", "-m", "mechcert.cli", *argv],
                                env=package_env(), cwd=tmp_path,
                                capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, ""), argv


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_not_an_error(unbuffered):
    """A reader that closes the pipe before mechcert writes, as `grep -q` may after
    its match: exit 0 and nothing on stderr, whether stdout is buffered or not."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "mechcert.cli", "burnin", "--eps",
                                 "0.9999999998", "--delta", "1e-12", "--gap", "1", "--k", "2"],
                                env=package_env(PYTHONUNBUFFERED=unbuffered),
                                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


class TestShift:
    def test_impossibility_mode(self, capsys, tmp_path, two_level_joint):
        joint = two_level_joint(8, 0.972)
        path = tmp_path / "joint.csv"
        path.write_text("8\n" + "".join(",".join(str(float(x)) for x in row) + "\n"
                                        for row in joint.probs))
        code, out, _ = run(capsys, "shift", "--joint", str(path),
                           "--subset", "0,1,2,3")
        assert code == 0
        for key in ("cond_entropy_residual", "kl_residual", "mi_excess"):
            line = next(l for l in out.splitlines() if l.startswith(key))
            assert float(line.split("=")[1].split()[0]) < 1e-9


class TestSweepCommand:
    def test_1d(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--param", "kappa_mu",
                         "--values", "0.6,3.0", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep1d.csv").read_text().splitlines()
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "kappa_mu"
        assert float(fields[1]) == 0.6
        assert float(fields[2]) == pytest.approx(1.22, abs=0.01)
        assert fields[5] == "DataEfficient"

    def test_grid(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--grid", "kappa_mu", "b_mu",
                         "--steps", "5", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep2d.csv").read_text().splitlines()
        assert len(lines) == 26

    def test_k_sweep(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--param", "k", "--min", "2", "--max", "20",
                         "--steps", "19", "--out", str(tmp_path))
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep1d.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [str(k) for k in range(2, 21)]

    def test_config_param_yields_to_explicit_grid(self, capsys, tmp_path):
        # a config-file param is a default, so an explicit --grid still wins
        cfg = tmp_path / "run.cfg"
        cfg.write_text("param = sigma\n")
        out = tmp_path / "out"
        assert run(capsys, "sweep", "--config", str(cfg), "--grid", "kappa_mu", "b_mu",
                   "--steps", "2", "--out", str(out)) == (
            0, f"wrote {out / 'sweep2d.csv'} (4 rows)\n", "")
        assert sorted(f.name for f in out.iterdir()) == ["sweep2d.csv"]

    @pytest.mark.parametrize("grid,digest", [
        (("kappa_mu", "b_mu"), "eefc77cc7ff83cbf5be9214c883e9bb6861c4be52209eae5b09e1ab4f07078f8"),
        (("b_mu", "k"), "5f572f8ff781e03e31158c6aba703055dcbab94464e7898fb1ffcb78ffd6e233"),
        (("p_opt", "kappa_mu"), "0adf1ab6088542ad2d9891cd0fc865f1f0641fa92aeb6eb2da058f39c66fd62c"),
    ], ids=["kappa_mu-b_mu", "b_mu-k", "p_opt-kappa_mu"])
    def test_grid_csv_bytes_pinned(self, capsys, tmp_path, grid, digest):
        # b_mu as the inner and as the outer axis, and no b_mu axis (every cell solved,
        # p_opt setting sigma on a grid axis), at the default 60 steps
        code, _, _ = run(capsys, "sweep", "--grid", *grid, "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / "sweep2d.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (("b_mu", "--values", "0.1,0.2,0.9,2"),
         "e6a6ce5a01f67702fa91f9e41ae48617ed0870b4c34b2af96d76a0b1cd8e7f4e"),
        (("p_opt", "--min", "0.5", "--max", "0.95"),
         "1ac9062dbf4f0849ffb60ed2b938ef14f71b3bdb336b212dc94da67f13350a3d"),
        (("kappa_mu", "--values", "0.6,1.8,3", "--n", "1"),
         "b8b1a1ceb523d45c4a77f2b608253e17bc0545645063e3786fe470f440245330"),
    ], ids=["b_mu", "p_opt", "kappa_mu-unreachable"])
    def test_1d_csv_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # both regimes, the p_opt -> sigma cells, and Unreachable rows at n = 1
        code, _, _ = run(capsys, "sweep", "--param", *argv, "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / "sweep1d.csv").read_bytes()).hexdigest() == digest

    def test_grid_k_axis_is_integral(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--grid", "k", "b_mu", "--out", str(tmp_path))
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep2d.csv").read_text().splitlines()[1:]]
        assert len(rows) == 13 * 60
        assert sorted({int(r[2]) for r in rows}) == list(range(4, 17))
        assert all(r[2] == str(int(r[2])) for r in rows)

    def test_config_param_among_choices_takes_effect(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("param = sigma\n")
        assert run(capsys, "sweep", "--config", str(cfg), "--values", "0.4", "--out",
                   str(tmp_path)) == (0, f"wrote {tmp_path / 'sweep1d.csv'} (1 rows)\n", "")
        assert (tmp_path / "sweep1d.csv").read_text().splitlines()[1].startswith("sigma,0.4,")


@pytest.mark.parametrize("argv", [
    ("burnin", "--eps", "0.2", "--delta", "0.01", "--gap", "0.2"),
    ("shift", "--r-train", "1.6", "--delta-pi", "0.0"),
    ("prior", "--r-mech", "1.9"),
])
def test_config_k_takes_effect(capsys, tmp_path, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 12\n")
    code, from_config, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    _, explicit, _ = run(capsys, *argv, "--k", "12")
    _, default, _ = run(capsys, *argv)
    assert from_config == explicit
    assert from_config != default


def test_readme_cli_lines_parse(capsys, monkeypatch, tmp_path, joint_csv):
    """Every `mechcert ...` line of the README's CLI block parses, and all but
    `simulate` (the acceptance gate runs its 10,000-trial tables) exit 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("mechcert ")]
    assert len(lines) >= 6
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("# working point\nn = 24\nb_mu = 0.5\n")
    for line in lines:
        argv = shlex.split(line)[1:]
        build_parser().parse_args(argv)
        if argv[0] != "simulate":
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), line


def test_readme_burnin_table_is_what_burnin_prints(capsys):
    """The README's table of the burn-in bound against --eps, which shows the
    bound shrinking as the prior grows more confidently wrong, is `burnin`'s
    own output at --delta 0.01 --gap 0.65 --k 8."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    eps_row, _, cycles_row = readme.split("\n| `--eps` |", 1)[1].splitlines()[:3]
    eps = eps_row.strip(" |").split(" | ")
    cycles = cycles_row.split("| cycles |", 1)[1].strip(" |").split(" | ")
    assert len(eps) == len(cycles) == 8
    for e, want in zip(eps, cycles):
        code, out, _ = run(capsys, "burnin", "--eps", e, "--delta", "0.01", "--gap", "0.65")
        assert code == 0 and f"burn_in_cycles = {want}\n" in out, e
    # from eps = 0.2 on, the bound falls with every step toward a point-mass prior
    assert [float(c) for c in cycles[1:]] == sorted(map(float, cycles[1:]), reverse=True)


def test_readme_reproducibility_promises_name_their_tests():
    """Every promise, a bullet of the README's "Reproducibility" section, names
    at least one test, and each test it names (`Class::test_x` or `test_x`) is
    defined under tests/, so renaming or deleting one fails here."""
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Reproducibility\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    promises = re.findall(r"^- .*(?:\n  .*)*", section, re.M)
    defined = set()
    for path in (root / "tests").glob("test_*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defined.update(f"{prefix}{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               for prefix in ("", f"{node.name}::"))
            elif isinstance(node, ast.FunctionDef):
                defined.add(node.name)
    assert len(promises) >= 9
    for promise in promises:
        named = re.findall(r"`((?:Test\w+::)?test_\w+)`", promise)
        assert named, promise
        assert set(named) <= defined, sorted(set(named) - defined)
