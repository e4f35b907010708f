import math

import pytest

from mechcert.certificates import CalibrationParams
from mechcert.sweep import (
    KSWEEP_HEADER,
    SWEEP1D_HEADER,
    SWEEP2D_HEADER,
    SweepSpec,
    k_sweep,
    linear_grid,
    sweep_1d,
    sweep_2d,
    write_ksweep_csv,
    write_sweep1d_csv,
    write_sweep2d_csv,
)

BASE = CalibrationParams.canonical(k=8, n=12, sigma=0.40, kappa_mu=1.8,
                                   d_f=3.0, b_mu=0.22)


def one_param(param, values):
    return sweep_1d(SweepSpec(parameter=param, values=list(values), base=BASE))


class TestSweep1D:
    def test_kappa_endpoints(self):
        lo, hi = one_param("kappa_mu", [0.6, 3.0])
        assert lo.capacity == pytest.approx(1.22, abs=0.01)
        assert lo.critical_bias == pytest.approx(2.14, abs=0.01)
        assert hi.capacity == pytest.approx(0.47, abs=0.01)
        assert hi.critical_bias == pytest.approx(0.43, abs=0.01)

    def test_d_f_endpoints(self):
        lo, hi = one_param("d_f", [2.0, 5.0])
        assert lo.capacity == pytest.approx(0.72, abs=0.01)
        assert hi.capacity == pytest.approx(0.88, abs=0.01)

    def test_b_mu_leaves_critical_bias_constant(self):
        rows = one_param("b_mu", linear_grid(0.10, 0.40, 7))
        for row in rows:
            assert row.critical_bias == pytest.approx(0.714, abs=1e-3)

    def test_sigma_linear_scaling(self):
        rows = one_param("sigma", [0.357, 0.40, 0.50])
        for row in rows:
            assert row.critical_bias == pytest.approx(0.71389 * row.value / 0.40, abs=1e-3)

    def test_p_opt_couples_through_sigma(self):
        lo, hi = one_param("p_opt", [0.50, 0.95])
        assert lo.capacity == pytest.approx(0.92, abs=0.01)
        assert hi.capacity == pytest.approx(0.42, abs=0.01)
        assert lo.critical_bias == pytest.approx(0.89, abs=0.01)
        assert hi.critical_bias == pytest.approx(0.39, abs=0.01)

    def test_all_cells_data_efficient(self):
        for param, values in [("sigma", linear_grid(0.357, 0.50, 9)),
                              ("kappa_mu", linear_grid(0.6, 3.0, 9)),
                              ("d_f", [2.0, 3.0, 4.0, 5.0]),
                              ("k", [4, 6, 8, 10, 12, 16]),
                              ("p_opt", linear_grid(0.50, 0.95, 9)),
                              ("b_mu", linear_grid(0.10, 0.40, 9))]:
            for row in one_param(param, values):
                assert row.regime == "DataEfficient", (param, row)

    def test_invalid_value_raises(self):
        with pytest.raises(ValueError):
            one_param("p_opt", [0.5, 1.5, 0.8])
        with pytest.raises(ValueError):
            one_param("k", [1.5, 8])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(parameter="horizon", values=[1.0], base=BASE)
        with pytest.raises(ValueError):
            SweepSpec(parameter="sigma", values=[], base=BASE)


class TestSweep2D:
    def test_working_point_ratio(self):
        rows = sweep_2d(SweepSpec(parameter="kappa_mu", values=[1.8], base=BASE),
                        SweepSpec(parameter="b_mu", values=[0.22], base=BASE))
        assert len(rows) == 1
        assert rows[0].ratio == pytest.approx(1 / 3.24, abs=0.01)

    def test_zero_bias_cell(self):
        rows = sweep_2d(SweepSpec(parameter="kappa_mu", values=[1.8], base=BASE),
                        SweepSpec(parameter="b_mu", values=[0.0], base=BASE))
        assert rows[0].ratio == 0.0

    def test_high_kappa_high_bias_cell(self):
        rows = sweep_2d(SweepSpec(parameter="kappa_mu", values=[3.0], base=BASE),
                        SweepSpec(parameter="b_mu", values=[0.40], base=BASE))
        assert rows[0].ratio == pytest.approx(0.93, abs=0.01)
        assert rows[0].ratio < 1.0

    def test_full_grid_size_and_order(self):
        rows = sweep_2d(SweepSpec(parameter="sigma", values=[0.357, 0.50], base=BASE),
                        SweepSpec(parameter="b_mu", values=[0.10, 0.25, 0.40], base=BASE))
        assert len(rows) == 6
        assert [(r.x, r.y) for r in rows[:3]] == [(0.357, 0.10), (0.357, 0.25), (0.357, 0.40)]


class TestKSweep:
    def test_published_points(self):
        rows = k_sweep(BASE, [4, 8, 16])
        by_k = {r.k: r for r in rows}
        assert by_k[8].critical_bias == pytest.approx(0.714, abs=1e-3)
        assert by_k[16].critical_bias == pytest.approx(0.706, abs=5e-3)
        assert by_k[4].capacity_at_base_bias == pytest.approx(0.57, abs=0.01)

    def test_flat_across_small_k(self):
        rows = k_sweep(BASE, range(2, 21))
        biases = [r.critical_bias for r in rows]
        assert max(biases) - min(biases) < 0.05

    def test_range_guard(self):
        with pytest.raises(ValueError):
            k_sweep(BASE, [65])


class TestCsvWriters:
    def test_sweep1d_csv(self, tmp_path):
        rows = one_param("kappa_mu", [0.6, 3.0])
        path = tmp_path / "sweep1d.csv"
        write_sweep1d_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP1D_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("kappa_mu,0.6,")

    def test_sweep2d_csv(self, tmp_path):
        rows = sweep_2d(SweepSpec(parameter="kappa_mu", values=[1.8], base=BASE),
                        SweepSpec(parameter="b_mu", values=[0.22], base=BASE))
        path = tmp_path / "sweep2d.csv"
        write_sweep2d_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP2D_HEADER
        assert lines[1].split(",")[:2] == ["kappa_mu", "b_mu"]

    def test_ksweep_csv(self, tmp_path):
        rows = k_sweep(BASE, [8])
        path = tmp_path / "ksweep.csv"
        write_ksweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == KSWEEP_HEADER
        assert lines[1].startswith("8,")
