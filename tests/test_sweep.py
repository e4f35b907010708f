import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechcert import certificates, sweep
from mechcert.certificates import (GRID_RANGES, SWEEP_PARAMETERS, WORKING, CalibrationParams,
                                   certificate_report, critical_bias, write_csv)
from mechcert.sweep import SweepSpec, grid_axis, linear_grid, sweep_1d, sweep_2d


def one_param(param, values):
    return sweep_1d(SweepSpec(parameter=param, values=list(values), base=WORKING))


def expected_cell(base, overrides):
    """The cell a sweep should evaluate, built directly with the plain constructor."""
    fields = dict(k=base.k, n=base.n, sigma=base.sigma, kappa_mu=base.kappa_mu,
                  d_f=base.d_f, b_mu=base.b_mu)
    for name, value in overrides.items():
        if name == "p_opt":
            fields["sigma"] = math.sqrt(value * (1.0 - value))
        else:
            fields[name] = value
    return CalibrationParams(**fields)


# valid values of each sweep parameter
CELL_VALUES = {
    "sigma": st.floats(0.05, 2.0),
    "kappa_mu": st.floats(0.1, 5.0),
    "d_f": st.floats(0.5, 10.0),
    "k": st.integers(2, 64),
    "p_opt": st.floats(0.01, 0.99),
    "b_mu": st.floats(0.0, 3.0),
}
# n = 1 leaves the working target unreachable, so Unreachable rows are drawn too
bases = st.builds(CalibrationParams, k=st.integers(2, 32), n=st.integers(1, 60),
                  sigma=st.floats(0.05, 2.0), kappa_mu=st.floats(0.1, 5.0),
                  d_f=st.floats(0.5, 10.0), b_mu=st.floats(0.0, 3.0))


@st.composite
def one_d_specs(draw):
    param = draw(st.sampled_from(SWEEP_PARAMETERS))
    values = draw(st.lists(CELL_VALUES[param], min_size=1, max_size=5))
    return SweepSpec(parameter=param, values=values, base=draw(bases))


class TestSingleRule:
    """Every sweep row is the certificate of its cell."""

    @settings(max_examples=200, deadline=None)
    @given(one_d_specs())
    def test_sweep_1d_rows_are_certificate_reports(self, spec):
        rows = sweep_1d(spec)
        assert [r.value for r in rows] == spec.values
        for row in rows:
            cell = expected_cell(spec.base, {spec.parameter: row.value})
            rep = certificate_report(cell)
            assert row.capacity_nats == rep.capacity_at_bias
            if rep.critical_bias is None:
                assert math.isnan(row.critical_bias)
                assert row.regime == "Unreachable"
                assert row.ratio == math.inf
            else:
                assert row.critical_bias == rep.critical_bias
                assert row.regime == rep.regime.value

    @pytest.mark.parametrize("n", [1, 12])
    @pytest.mark.parametrize("b_mu", [0.0, 0.22])
    def test_sweep_2d_ratio_is_b_mu_over_critical_bias(self, n, b_mu):
        base = WORKING._replace(n=n, b_mu=b_mu)
        pairs = [(x, y) for x, y in itertools.permutations(SWEEP_PARAMETERS, 2)
                 if {x, y} != {"sigma", "p_opt"}]
        for x_param, y_param in pairs:
            rows = sweep_2d(grid_axis(x_param, base, 4), grid_axis(y_param, base, 4))
            assert len(rows) == 16
            for row in rows:
                cell = expected_cell(base, {x_param: row.x, y_param: row.y})
                b_crit = critical_bias(cell)
                expected = cell.b_mu / b_crit if b_crit else math.inf
                assert row.ratio == expected, (x_param, y_param, row)


class TestSweep1D:
    def test_kappa_endpoints(self):
        lo, hi = one_param("kappa_mu", [0.6, 3.0])
        assert lo.capacity_nats == pytest.approx(1.22, abs=0.01)
        assert lo.critical_bias == pytest.approx(2.14, abs=0.01)
        assert hi.capacity_nats == pytest.approx(0.47, abs=0.01)
        assert hi.critical_bias == pytest.approx(0.43, abs=0.01)

    def test_d_f_endpoints(self):
        lo, hi = one_param("d_f", [2.0, 5.0])
        assert lo.capacity_nats == pytest.approx(0.72, abs=0.01)
        assert hi.capacity_nats == pytest.approx(0.88, abs=0.01)

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
        assert lo.capacity_nats == pytest.approx(0.92, abs=0.01)
        assert hi.capacity_nats == pytest.approx(0.42, abs=0.01)
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

    def test_invalid_b_mu_raises_before_any_solve(self, monkeypatch):
        # every b_mu value is checked first, so no row is computed before the bad one is
        # reported; the count is taken where every critical-bias solve passes
        solved = []
        solve = certificates.solve_bias_for_capacity
        monkeypatch.setattr(certificates, "solve_bias_for_capacity",
                            lambda target, params: solved.append(params) or solve(target, params))
        with pytest.raises(ValueError, match=r"^b_mu must lie in \[0, inf\), got -0.1$"):
            one_param("b_mu", [0.2, 0.3, -0.1])
        assert solved == []
        one_param("b_mu", [0.2, 0.3])
        assert len(solved) == 1

    def test_non_integer_k_rejected(self):
        assert [r.value for r in one_param("k", [8, 8.0, 12])] == [8, 8.0, 12]
        for bad in (8.7, math.inf, math.nan):
            with pytest.raises(ValueError, match="integer"):
                one_param("k", [8, bad])

    def test_unknown_parameter_rejected(self):
        message = ("unknown sweep parameter 'horizon'; choose from "
                   "('sigma', 'kappa_mu', 'd_f', 'k', 'p_opt', 'b_mu')")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(parameter="horizon", values=[1.0], base=WORKING)


class TestSweep2D:
    def test_working_point_ratio(self):
        rows = sweep_2d(SweepSpec(parameter="kappa_mu", values=[1.8], base=WORKING),
                        SweepSpec(parameter="b_mu", values=[0.22], base=WORKING))
        assert len(rows) == 1
        assert rows[0].ratio == pytest.approx(1 / 3.24, abs=0.01)

    def test_zero_bias_cell(self):
        rows = sweep_2d(SweepSpec(parameter="kappa_mu", values=[1.8], base=WORKING),
                        SweepSpec(parameter="b_mu", values=[0.0], base=WORKING))
        assert rows[0].ratio == 0.0

    def test_high_kappa_high_bias_cell(self):
        rows = sweep_2d(SweepSpec(parameter="kappa_mu", values=[3.0], base=WORKING),
                        SweepSpec(parameter="b_mu", values=[0.40], base=WORKING))
        assert rows[0].ratio == pytest.approx(0.93, abs=0.01)
        assert rows[0].ratio < 1.0

    def test_full_grid_size_and_order(self):
        rows = sweep_2d(SweepSpec(parameter="sigma", values=[0.357, 0.50], base=WORKING),
                        SweepSpec(parameter="b_mu", values=[0.10, 0.25, 0.40], base=WORKING))
        assert len(rows) == 6
        assert [(r.x, r.y) for r in rows[:3]] == [(0.357, 0.10), (0.357, 0.25), (0.357, 0.40)]


    @pytest.mark.parametrize("x_param,y_param", [
        ("sigma", "p_opt"), ("p_opt", "sigma"), ("b_mu", "b_mu"), ("k", "k"), ("p_opt", "p_opt"),
    ])
    def test_axes_setting_the_same_quantity_rejected(self, x_param, y_param):
        with pytest.raises(ValueError, match="same quantity"):
            sweep_2d(grid_axis(x_param, WORKING, 3), grid_axis(y_param, WORKING, 3))

    @pytest.mark.parametrize("axes,solves", [
        ((grid_axis("kappa_mu", WORKING), grid_axis("b_mu", WORKING)), 60),
        ((grid_axis("b_mu", WORKING), grid_axis("k", WORKING)), 13),
        ((grid_axis("kappa_mu", WORKING), grid_axis("d_f", WORKING)), 3600),
        ((SweepSpec("b_mu", linear_grid(0.10, 0.40, 50), WORKING),), 1),
        ((SweepSpec("kappa_mu", linear_grid(0.6, 3.0, 50), WORKING),), 50),
        ((SweepSpec("k", [8, 8.0, 12], WORKING),), 2),
    ], ids=["kappa_mu-b_mu", "b_mu-k", "kappa_mu-d_f", "1d-b_mu", "1d-kappa_mu", "1d-k-8-8.0-12"])
    def test_grid_solves_each_critical_bias_once(self, monkeypatch, axes, solves):
        # the critical bias never reads b_mu, so a b_mu axis adds no solves, and equal
        # values (k = 8 and 8.0) make one cell; sweep_1d reads the same walk as sweep_2d
        solved = []
        monkeypatch.setattr(sweep, "critical_bias",
                            lambda params: solved.append(params) or critical_bias(params))
        (sweep_1d if len(axes) == 1 else sweep_2d)(*axes)
        assert len(solved) == solves
        assert len(set(solved)) == solves

    def test_b_mu_checked_before_any_solve(self):
        # both axes hold an invalid value: the b_mu one is reported; other invalid b_mu
        # values on either axis are cases of tests/test_certificates.py's REAL_SITES
        with pytest.raises(ValueError, match=r"^b_mu must lie in \[0, inf\), got -0.1$"):
            sweep_2d(SweepSpec(parameter="kappa_mu", values=[-1.0], base=WORKING),
                     SweepSpec(parameter="b_mu", values=[0.2, -0.1], base=WORKING))

    def test_axes_on_different_bases_rejected(self):
        other = WORKING._replace(n=24)
        with pytest.raises(ValueError, match="both sweep axes must share the same base"):
            sweep_2d(grid_axis("kappa_mu", WORKING, 3), grid_axis("b_mu", other, 3))


class TestGridAxis:
    def test_ranges_and_default_steps(self):
        for param, (lo, hi) in GRID_RANGES.items():
            axis = grid_axis(param, WORKING)
            assert axis.parameter == param and axis.base is WORKING
            if param != "k":
                assert axis.values == linear_grid(lo, hi, 60)

    def test_default_k_axis_is_the_integers_4_to_16(self):
        assert grid_axis("k", WORKING).values == list(range(4, 17))

    @pytest.mark.parametrize("steps", [2, 3, 4, 5, 7, 13])
    def test_integral_k_axis_unchanged(self, steps):
        assert grid_axis("k", WORKING, steps).values == linear_grid(4, 16, steps)

    def test_non_integral_k_axis_is_rounded(self):
        # linspace(4, 16, 6) = 4, 6.4, 8.8, 11.2, 13.6, 16
        assert grid_axis("k", WORKING, 6).values == [4, 6, 9, 11, 14, 16]


class TestLinearGrid:
    """linear_grid is numpy's linspace bit for bit, so no sweep CSV changes."""

    @pytest.mark.parametrize("steps", [1, 2, 13, 50, 60])
    @pytest.mark.parametrize("lo, hi", [*GRID_RANGES.values(), (0.22, 0.22), (2, 20),
                                        (0.5, -1.3)])
    def test_matches_numpy_linspace(self, lo, hi, steps):
        grid = linear_grid(lo, hi, steps)
        assert grid == np.linspace(lo, hi, steps).tolist()
        assert all(type(x) is float for x in grid)


class TestKSweep:
    def test_published_points(self):
        rows = one_param("k", [4, 8, 16])
        by_k = {r.value: r for r in rows}
        assert by_k[8].critical_bias == pytest.approx(0.714, abs=1e-3)
        assert by_k[16].critical_bias == pytest.approx(0.706, abs=5e-3)
        assert by_k[4].capacity_nats == pytest.approx(0.57, abs=0.01)

    def test_flat_across_small_k(self):
        rows = one_param("k", linear_grid(2, 20, 19))
        assert len(rows) == 19
        biases = [r.critical_bias for r in rows]
        assert max(biases) - min(biases) < 0.05


class TestCsvWriters:
    def test_sweep1d_csv(self, tmp_path):
        write_csv(tmp_path / "sweep1d.csv", one_param("kappa_mu", [0.6, 3.0]))
        header, *rows = (tmp_path / "sweep1d.csv").read_text().splitlines()
        assert header == "param,value,capacity_nats,critical_bias,ratio,regime"
        assert len(rows) == 2 and rows[0].startswith("kappa_mu,0.6,")

    def test_sweep2d_csv(self, tmp_path):
        write_csv(tmp_path / "sweep2d.csv",
                  sweep_2d(SweepSpec(parameter="kappa_mu", values=[1.8], base=WORKING),
                           SweepSpec(parameter="b_mu", values=[0.22], base=WORKING)))
        assert (tmp_path / "sweep2d.csv").read_text() == (
            "x_param,y_param,x,y,ratio\nkappa_mu,b_mu,1.8,0.22,0.308171\n")
