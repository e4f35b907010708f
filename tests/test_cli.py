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


class TestCertify:
    def test_working_values(self, capsys):
        code, out, err = run(capsys, "certify")
        assert code == 0
        # the whole output, pinned: no warning line at k = 8
        assert out == ("sigma_f2 = 0.068459\ncapacity = 0.796042 nats\n"
                       "h_mech_floor = 1.2834 nats\ncritical_bias = 0.71389\n"
                       "bias_ratio_crit_over_b = 3.24496\nregime = DataEfficient\n"
                       "sample_ratio = 1.62026\nlb_envelope = 7.69738\nub_envelope = 11.0998\n")
        assert err == ""

    def test_crossed_envelopes_warn(self, capsys):
        # the envelopes' ratio ub/lb is sqrt(ln k), below 1 when k < e
        code, out, err = run(capsys, "certify", "--k", "2", "--n", "1000000")
        assert code == 0
        assert out.endswith("lb_envelope = 1045.07\nub_envelope = 870.081\n"
                            "warning = lb_envelope exceeds ub_envelope "
                            "(constant-free envelopes cross when ln k < 1)\n")
        assert err == ""

    def test_baseline_regime(self, capsys):
        code, out, _ = run(capsys, "certify", "--b-mu", "0.80")
        assert code == 0
        assert "Baseline" in out

    def test_unreachable_exit_2(self, capsys, tmp_path):
        for argv, target in [(("--n", "1"), "2.07944"), (("--target", "5"), "5")]:
            code, out, err = run(capsys, "certify", *argv, "--out", str(tmp_path))
            assert code == 2
            assert out == ""
            assert err == (f"error: target unreachable: target {target} nats exceeds "
                           "zero-bias capacity 1.30461 nats\n")
            assert not (tmp_path / "certify.txt").exists()

    def test_sigma_f2_is_derived_not_an_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "certify", "--sigma-f2", "1")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --sigma-f2 1" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma_f2 = 1\n")
        code, out, err = run(capsys, "certify", "--config", str(cfg))
        assert (code, out, err) == (1, "", "error: unknown config key 'sigma_f2'\n")

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

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# working values\nk = 8\nn = 12\nb_mu = 0.80\n")
        code, out, _ = run(capsys, "certify", "--config", str(cfg))
        assert code == 0
        assert "Baseline" in out

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b_mu = 0.80\n")
        code, out, _ = run(capsys, "certify", "--config", str(cfg), "--b-mu", "0.22")
        assert code == 0
        assert "DataEfficient" in out

    @pytest.mark.parametrize("content,message", [
        (b"horizon = 12\n", "unknown config key 'horizon'"),
        (b"k = x\n", "argument --k: invalid int value: 'x'"),
        # one value per key: a later line does not silently replace an earlier one
        (b"b_mu = 0.9\n# a second value\nb_mu = 0.1\n",
         "{cfg}:3: duplicate config key 'b_mu' (first set on line 1)"),
        (b"k = 8\nb_mu 0.9\n", "{cfg}:2: expected 'key = value', got 'b_mu 0.9'"),
        # None: no file at the path
        (None, "cannot read config file {cfg}: [Errno 2] No such file or directory: '{cfg}'"),
        (b"b_mu = 0.8\xff\n", "cannot read config file {cfg}: 'utf-8' codec can't decode "
                              "byte 0xff in position 10: invalid start byte"),
    ], ids=["unknown-key", "bad-value", "duplicate-key", "line-without-equals", "missing-file",
            "undecodable"])
    def test_bad_config_file_exit_1(self, capsys, tmp_path, content, message):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        code, out, err = run(capsys, "certify", "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: {message.format(cfg=cfg)}\n")

    def test_config_file_with_byte_order_mark(self, capsys, tmp_path):
        # Excel's "CSV UTF-8" export and Windows Notepad start a file with one
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfb_mu = 0.8\n")
        code, out, err = run(capsys, "certify", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert "regime = Baseline" in out.splitlines()


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

    def test_config_key_of_another_command_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 8\n")
        code, _, err = run(capsys, "simulate", "--table", "1", "--trials", "10",
                           "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "unknown config key" in err

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


class TestBurnin:
    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "burnin", "--eps", "0.2", "--delta", "0.01",
                           "--gap", "0.2", "--k", "8")
        assert code == 0
        assert "0.347" in out
        assert "0.0833" in out

    def test_assumption_flag(self, capsys):
        code, out, _ = run(capsys, "burnin", "--eps", "0.15", "--delta", "0.10",
                           "--gap", "0.2", "--k", "8")
        assert code == 0
        assert "0.151" in out
        assert "assumption" in out

    def test_degenerate_flag(self, capsys):
        code, out, _ = run(capsys, "burnin", "--eps", "0.9", "--delta", "0.3",
                           "--gap", "0.2", "--k", "8")
        assert code == 0
        assert "burn_in_cycles = 0" in out
        assert "degenerate" in out

    @pytest.mark.parametrize("argv,kl,cycles", [
        (("--eps", "1e-300", "--delta", "0.01", "--gap", "0.2"), "690.776", "0.00132"),
        (("--eps", "0.2", "--delta", "0.01", "--gap", "0.2", "--k", "1" + "0" * 20),
         "46.0517", "0.0150725"),
        (("--eps", "0.999999998", "--delta", "1e-12", "--gap", "1", "--k", "2"),
         "2e-18", "7.6009e+09"),
        (("--eps", "0.9999999998", "--delta", "1e-12", "--gap", "1", "--k", "2"),
         "2e-20", "5.29832e+10"),
    ], ids=["burnin-eps-underflow", "burnin-k-overflow", "burnin-eps-near-1",
            "burnin-eps-nearer-1"])
    def test_finite_bound_at_extreme_inputs(self, capsys, argv, kl, cycles):
        # kl(eps_k, 1 - eps_k) is taken from eps and k: eps_k near 0 or 1/2 keeps its digits
        code, out, err = run(capsys, "burnin", *argv)
        assert (code, err) == (0, "")
        assert f"\nbinary_kl = {kl} nats\nburn_in_cycles = {cycles}\n" in out


# --joint files read by the exit-2 cases below
BAD_JOINTS = {"nan.joint": "2\nnan,0.5\n0.25,0.25\n", "empty.joint": "",
              "malformed.joint": "two\n0.5,0\n0,0.5\n", "ragged.joint": "2\n0.5,0\n0,0.25,0.25\n",
              # a valid 8x8 diagonal table, for a bad --subset
              "diag8.joint": "8\n" + "".join(",".join("0.125" if i == j else "0" for j in range(8))
                                             + "\n" for i in range(8))}
# finite inputs whose arithmetic overflows, underflows or divides by zero
OUT_OF_RANGE = "a parameter is out of numeric range"


@pytest.mark.parametrize("argv,message", [
    (("burnin", "--eps", "1.5", "--delta", "0.01", "--gap", "0.2"), "epsilon must lie in (0, 1)"),
    (("certify", "--b-mu", "nan"), "b_mu must lie in [0, inf), got nan"),
    (("certify", "--sigma", "nan"), "sigma must lie in (0, inf), got nan"),
    (("certify", "--kappa-mu", "nan"), "kappa_mu must lie in (0, inf), got nan"),
    (("certify", "--d-f", "nan"), "d_f must lie in (0, inf), got nan"),
    (("certify", "--target", "nan"), "target must lie in (0, inf), got nan"),
    (("simulate", "--table", "1", "--trials", "10", "--strength", "nan"),
     "prior_strength must lie in [0, 2.24712e+307], got nan"),
    (("simulate", "--table", "1", "--trials", "10", "--strength", "-1"),
     "prior_strength must lie in [0, 2.24712e+307], got -1.0"),
    (("simulate", "--table", "1", "--trials", "10", "--workers", "-3"), "workers must be >= 1"),
    (("simulate", "--table", "1", "--trials", "10", "--workers", "0"), "workers must be >= 1"),
    (("simulate", "--table", "1", "--trials", "0"), "trials must be >= 1, got 0"),
    (("simulate", "--table", "1", "--trials", "10", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("burnin", "--eps", "0.2", "--delta", "0.01", "--gap", "nan"),
     "gap must lie in [0, inf), got nan"),
    (("shift", "--r-train", "nan", "--delta-pi", "0.005"), "r_train must lie in [0, inf), got nan"),
    (("shift", "--r-train", "1.6", "--delta-pi", "nan"), "delta_pi must lie in [0, inf), got nan"),
    (("burnin", "--eps", "0.2", "--delta", "0.01", "--gap", "0.2", "--k", "0"),
     "k must be >= 2, got 0"),
    (("shift", "--r-train", "1.6", "--delta-pi", "0.005", "--k", "0"), "k must be >= 2, got 0"),
    (("prior", "--k", "0", "--r-mech", "1.9"), "k must be >= 2, got 0"),
    (("sweep", "--grid", "kappa_mu", "b_mu", "--steps", "0"), "steps must be >= 1"),
    (("sweep", "--param", "sigma", "--min", "0.3", "--max", "0.5", "--steps", "0"),
     "steps must be >= 1"),
    (("sweep", "--param", "k", "--values", "1.5,8"), "k must be an integer, got 1.5"),
    (("certify", "--k", "0"), "k must be >= 2, got 0"),
    (("sweep", "--k", "0", "--param", "b_mu", "--values", "0.2"), "k must be >= 2, got 0"),
    (("sweep", "--param", "k", "--values", "8,8.7"), "k must be an integer, got 8.7"),
    (("sweep", "--grid", "sigma", "p_opt", "--steps", "3"), "set the same quantity"),
    (("sweep", "--grid", "b_mu", "b_mu", "--steps", "3"), "set the same quantity"),
    (("shift", "--joint", "nan.joint"), "probs entry must lie in [0, inf), got nan"),
    (("shift", "--joint", "empty.joint"), "expected k on the first line, then k rows"),
    (("shift", "--joint", "malformed.joint"), "expected k on the first line, then k rows"),
    (("shift", "--joint", "ragged.joint"), "expected k on the first line, then k rows"),
    (("certify", "--kappa-mu", "1e200"), OUT_OF_RANGE),
    (("certify", "--sigma", "1e200"), OUT_OF_RANGE),
    (("certify", "--sigma", "1e-200"), OUT_OF_RANGE),
    (("certify", "--d-f", "1e-300"), OUT_OF_RANGE),
    (("shift", "--r-train", "1e300", "--delta-pi", "0", "--k", "12"), OUT_OF_RANGE),
    (("sweep", "--param", "sigma", "--values", "1e-200"), OUT_OF_RANGE),
    (("simulate", "--table", "1", "--trials", "3", "--strength", "1e308"),
     "prior_strength must lie in [0, 2.24712e+307], got 1e+308"),
    (("certify", "--d-f", "1e-320"), OUT_OF_RANGE),
    (("sweep", "--param", "d_f", "--values", "1e-320"), OUT_OF_RANGE),
    (("certify", "--target", "1e-320"), OUT_OF_RANGE),
    (("certify", "--d-f", "1e-308"), OUT_OF_RANGE),
    (("certify", "--d-f", "5e-309"), OUT_OF_RANGE),
    (("burnin", "--eps", "0.45", "--delta", "1e-300", "--gap", "1e308"), OUT_OF_RANGE),
    (("prior", "--r-mech", "nan"), "r_mech must lie in [0, 2.07944], got nan"),
    (("burnin", "--eps", "nan", "--delta", "0.01", "--gap", "0.2"),
     "epsilon must lie in (0, 1), got nan"),
    (("burnin", "--eps", "0.2", "--delta", "nan", "--gap", "0.2"),
     "delta must lie in (0, 0.5), got nan"),
    (("sweep", "--param", "p_opt", "--values", "1.5"), "p_opt must lie in (0, 1), got 1.5"),
    (("shift", "--joint", "diag8.joint", "--subset", "0,0,1,2,3"), "subset entry 0 is repeated"),
    (("prior", "--k", "8", "--r-mech", "5.0"), "r_mech must lie in [0, 2.07944], got 5.0"),
], ids=["burnin-eps", "certify-b-mu-nan", "certify-sigma-nan", "certify-kappa-mu-nan",
        "certify-d-f-nan", "certify-target-nan", "simulate-strength-nan",
        "simulate-strength-negative", "simulate-workers-negative", "simulate-workers-zero",
        "simulate-trials-zero", "simulate-seed-negative", "burnin-gap-nan", "shift-r-train-nan",
        "shift-delta-pi-nan", "burnin-k-zero", "shift-k-zero", "prior-k-zero",
        "sweep-grid-steps-zero", "sweep-param-steps-zero",
        "sweep-invalid-k-cell", "certify-k-zero", "sweep-k-zero", "sweep-non-integer-k",
        "sweep-grid-sigma-p-opt", "sweep-grid-same-axis", "shift-joint-nan", "shift-joint-empty",
        "shift-joint-malformed", "shift-joint-ragged", "certify-kappa-mu-overflow",
        "certify-sigma-overflow", "certify-sigma-underflow", "certify-d-f-underflow",
        "shift-r-train-overflow", "sweep-sigma-underflow", "simulate-strength-overflow",
        "certify-d-f-overflow", "sweep-d-f-overflow", "certify-target-overflow",
        "certify-capacity-overflow", "certify-capacity-overflow-subnormal-d-f",
        "burnin-cycles-overflow", "prior-r-mech-nan", "burnin-eps-nan", "burnin-delta-nan",
        "sweep-p-opt-out-of-range", "shift-subset-repeated", "prior-r-mech-out-of-range"])
def test_domain_error_exit_2(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_JOINTS.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert message in err
    assert "nan" not in out
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv,flag,config", [
    (("shift", "--joint", "joint.csv", "--subset", "a,b,c,d"), "--subset", None),
    (("shift", "--joint", "joint.csv", "--subset", "0,1.5"), "--subset", None),
    (("shift", "--joint", "joint.csv"), "--subset", "subset = 0,x\n"),
    (("sweep", "--param", "b_mu", "--values", "x"), "--values", None),
    (("sweep", "--param", "b_mu", "--values", "0.2,,0.3"), "--values", None),
    (("sweep", "--param", "b_mu"), "--values", "values = 0.2;0.3\n"),
    (("certify", "--k", "x"), "--k", None),
], ids=["subset-letters", "subset-float", "subset-config", "values-letter", "values-empty-entry",
        "values-config", "k-letter"])
def test_bad_list_entry_is_usage_error_naming_flag(capsys, monkeypatch, tmp_path, argv, flag,
                                                   config):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = (*argv, "--config", "run.cfg")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: argument {flag}:")
    assert out == ""
    assert not list(tmp_path.glob("*.csv"))


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


@pytest.mark.parametrize("argv,message,config", [
    (("shift", "--joint", "joint.csv", "--r-train", "1", "--delta-pi", "0.1"),
     "argument --r-train: not allowed with argument --joint", None),
    (("shift", "--r-train", "1.6", "--delta-pi", "0.005", "--subset", "0,1"),
     "argument --subset: not allowed without argument --joint", None),
    (("sweep", "--grid", "kappa_mu", "b_mu", "--values", "1,2"),
     "argument --values: not allowed with argument --grid", None),
    (("sweep", "--grid", "kappa_mu", "b_mu", "--min", "0", "--max", "9"),
     "argument --min: not allowed with argument --grid", None),
    (("sweep", "--param", "b_mu", "--values", "0.2,0.3", "--min", "0", "--max", "1"),
     "argument --min: not allowed with argument --values", None),
    (("sweep", "--param", "b_mu", "--values", "0.2,0.3", "--steps", "5"),
     "argument --steps: not allowed with argument --values", None),
    (("sweep", "--grid", "kappa_mu", "b_mu"),
     "argument --values: not allowed with argument --grid", "values = 1,2\n"),
    (("shift", "--joint", "joint.csv", "--k", "12"),
     "argument --k: not allowed with argument --joint", None),
    (("shift", "--joint", "joint.csv"),
     "argument --k: not allowed with argument --joint", "k = 12\n"),
    (("sweep", "--grid", "kappa_mu", "b_mu", "--steps", "5", "--b-mu", "0.35"),
     "argument --b-mu: not allowed with a sweep over b_mu", None),
    (("sweep", "--grid", "kappa_mu", "b_mu", "--steps", "5", "--b-mu", "0.35",
      "--kappa-mu", "0.7"),
     "argument --kappa-mu: not allowed with a sweep over kappa_mu", None),
    (("sweep", "--grid", "p_opt", "b_mu", "--sigma", "0.3"),
     "argument --sigma: not allowed with a sweep over p_opt", None),
    (("sweep", "--param", "k", "--min", "2", "--max", "5", "--steps", "4", "--k", "30"),
     "argument --k: not allowed with a sweep over k", None),
    (("sweep", "--grid", "b_mu", "k"),
     "argument --b-mu: not allowed with a sweep over b_mu", "b_mu = 0.35\n"),
    (("sweep", "--param", "p_opt", "--values", "0.6"),
     "argument --sigma: not allowed with a sweep over p_opt", "sigma = 0.3\n"),
    # a required flag has no config key: the command line must give it, and wins
    (("simulate", "--table", "1", "--trials", "1"), "unknown config key 'table'", "table = 2\n"),
    (("simulate", "--table", "1", "--trials", "1"), "unknown config key 'table'", "table = 3\n"),
    (("prior", "--r-mech", "1"), "unknown config key 'r_mech'", "r_mech = 1.9\n"),
    # a flag the mode needs, missing
    (("shift", "--r-train", "1.6"), "shift requires --r-train and --delta-pi (or --joint)", None),
    (("sweep",), "sweep requires --param or --grid", None),
    (("sweep", "--param", "sigma"), "sweep needs --values or --min/--max", None),
], ids=["shift-joint-r-train", "shift-subset-without-joint", "sweep-grid-values",
        "sweep-grid-range", "sweep-values-range", "sweep-values-steps", "sweep-grid-config-values",
        "shift-joint-k", "shift-joint-config-k", "sweep-grid-own-flag", "sweep-grid-x-flag-first",
        "sweep-p-opt-sigma", "sweep-param-own-flag", "sweep-grid-config-own-key",
        "sweep-param-config-sigma", "simulate-config-table", "simulate-config-table-not-a-choice",
        "prior-config-r-mech", "shift-missing-delta-pi", "sweep-no-mode", "sweep-missing-range"])
def test_flag_the_mode_never_reads_exit_1(capsys, monkeypatch, tmp_path, joint_csv, argv,
                                          message, config):
    # a config-file value counts as given; nothing is written, the CSV's directory included
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = (*argv, "--config", "run.cfg")
    if argv[0] == "sweep":
        argv = (*argv, "--out", "sweeps")
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {message}\n"
    assert out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ("certify",),
    ("simulate", "--table", "1", "--trials", "3"),
    ("sweep", "--param", "b_mu", "--values", "0.2"),
], ids=lambda argv: argv[0])
def test_out_not_a_directory_exit_1(capsys, tmp_path, argv):
    # checked before anything is printed
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    code, out, err = run(capsys, *argv, "--out", str(blocker))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot create output directory {blocker}: ")
    assert blocker.read_text() == "a file\n"


def test_import_loads_only_what_the_command_runs(tmp_path):
    """The package is six modules. `cli` loads the other closed-form ones and none
    of numpy, scipy, multiprocessing or dataclasses; the bare package loads none
    of its modules; the Monte Carlo engine needs neither dataclasses nor `sweep`,
    and only `simulate` loads numpy."""
    import mechcert
    assert importlib.util.find_spec("mechcert.misspec") is None
    assert sorted(p.stem for p in Path(mechcert.__file__).parent.glob("*.py")) == [
        "__init__", "certificates", "cli", "prior", "sim", "sweep"]
    env = package_env()
    heavy = ("m.split('.')[0] in ('numpy', 'scipy') or m in ('concurrent.futures.process', "
             "'dataclasses')")
    cli_loads = sorted(["mechcert", *(f"mechcert.{m}" for m in ("certificates", "prior",
                                                                 "sweep", "cli"))])
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
             "print(sorted(m for m in sys.modules if m == 'numpy'))")
    for argv, loaded in ((["certify"], []), (["prior", "--r-mech", "1.9"], []),
                         (["burnin", "--eps", "0.05", "--delta", "0.1", "--gap", "0.3"], []),
                         (["shift", "--r-train", "1.6", "--delta-pi", "0.5"], []),
                         (["sweep", "--param", "b_mu", "--values", "0.2", "--out", str(tmp_path)],
                          []),
                         (["simulate", "--table", "1", "--trials", "1", "--out", str(tmp_path)],
                          ["numpy"])):
        result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.strip() == str(loaded), argv


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
    def test_retention_report(self, capsys):
        code, out, _ = run(capsys, "shift", "--r-train", "1.6", "--k", "8",
                           "--delta-pi", "0.5")
        assert code == 0
        assert "0.0046" in out
        assert "OutOfScope" in out

    def test_guaranteed(self, capsys):
        code, out, _ = run(capsys, "shift", "--r-train", "1.6", "--k", "12",
                           "--delta-pi", "0.0")
        assert code == 0
        assert "Guaranteed" in out

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

    def test_independent_joint_prints_zero_information(self, capsys, tmp_path):
        path = tmp_path / "uniform.joint"
        path.write_text("10\n" + (",".join(["0.01"] * 10) + "\n") * 10)
        code, out, _ = run(capsys, "shift", "--joint", str(path))
        assert code == 0
        assert "mutual_information_test = 0 nats" in out.splitlines()

    def test_joint_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_bytes(b"\xef\xbb\xbf2\n0.5,0\n0,0.5\n")
        code, out, err = run(capsys, "shift", "--joint", str(path))
        assert (code, err) == (0, "")
        assert "shift_divergence = 0.346574 nats" in out.splitlines()


class TestPrior:
    def test_table2_level(self, capsys):
        code, out, _ = run(capsys, "prior", "--k", "8", "--r-mech", "1.9")
        assert code == 0
        assert "beta = 0.9725" in out

    def test_uniform(self, capsys):
        code, out, _ = run(capsys, "prior", "--k", "8", "--r-mech", "0")
        assert code == 0
        assert "beta = 0.125" in out

    def test_point_mass(self, capsys):
        code, out, _ = run(capsys, "prior", "--k", "8", "--r-mech", str(math.log(8)))
        assert code == 0
        assert "beta = 1" in out


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

    def test_removed_flags_exit_1(self, capsys, tmp_path):
        one_row = ("--param", "b_mu", "--values", "0.22", "--out", str(tmp_path))
        for argv in (("--k-sweep",), ("--sigma-f2", "0.5")):
            code, _, err = run(capsys, "sweep", *one_row, *argv)
            assert code == 1
            assert "unrecognized arguments" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma_f2 = 0.5\n")
        code, _, err = run(capsys, "sweep", *one_row, "--config", str(cfg))
        assert code == 1
        assert "unknown config key 'sigma_f2'" in err

    def test_param_with_grid_exit_1(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run(capsys, "sweep", "--param", "sigma", "--grid", "kappa_mu", "b_mu",
                           "--steps", "2", "--out", str(out))
        assert code == 1
        assert "argument --grid: not allowed with argument --param" in err
        assert not out.exists()
        # a config-file param is a default, so an explicit --grid still wins
        cfg = tmp_path / "run.cfg"
        cfg.write_text("param = sigma\n")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--grid", "kappa_mu", "b_mu",
                         "--steps", "2", "--out", str(out))
        assert code == 0
        assert sorted(f.name for f in out.iterdir()) == ["sweep2d.csv"]

    @pytest.mark.parametrize("grid,digest", [
        (("kappa_mu", "b_mu"), "eefc77cc7ff83cbf5be9214c883e9bb6861c4be52209eae5b09e1ab4f07078f8"),
        (("b_mu", "k"), "5f572f8ff781e03e31158c6aba703055dcbab94464e7898fb1ffcb78ffd6e233"),
        (("p_opt", "kappa_mu"), "0adf1ab6088542ad2d9891cd0fc865f1f0641fa92aeb6eb2da058f39c66fd62c"),
    ], ids="-".join)
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

    def test_config_value_outside_choices_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("param = foo\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--values", "1",
                           "--out", str(tmp_path))
        assert code == 1
        assert "param = foo" in err
        cfg.write_text("param = sigma\n")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--values", "0.4",
                         "--out", str(tmp_path))
        assert code == 0


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
