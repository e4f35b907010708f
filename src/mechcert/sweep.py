"""Sensitivity sweeps of the certificate over calibration parameters.

Each swept cell is the base parameter vector with the swept values
applied: the prior entropy tracks k, the noise scale tracks p_opt
through the Bernoulli standard deviation, and the canonical residual
variance is recomputed in every cell. The critical bias never reads
b_mu, so a grid with a b_mu axis solves it once per value of the other
axis; every swept value is still checked. Output is CSV rows; plotting
is left to external tools: `certificates.write_csv` writes the rows,
whose fields are the columns.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .certificates import (CalibrationParams, certificate_report, checked_record, critical_bias,
                           ratio, real, whole)

# Axis range of each sweep parameter in a 2-D grid; the keys are the parameters.
GRID_RANGES = {"sigma": (0.357, 0.50), "kappa_mu": (0.6, 3.0), "d_f": (2.0, 5.0),
               "k": (4, 16), "p_opt": (0.50, 0.95), "b_mu": (0.10, 0.40)}
SWEEP_PARAMETERS = tuple(GRID_RANGES)
GRID_STEPS = 60    # points per 2-D grid axis
PARAM_STEPS = 50   # points of a 1-D sweep over a range


def linear_grid(lo: float, hi: float, steps: int) -> list[float]:
    """`steps` evenly spaced points from lo to hi, bit for bit numpy's linspace."""
    steps = whole("steps", steps, 1)
    if steps == 1:
        return [float(lo)]
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [float(hi)]


class SweepSpec(checked_record("SweepSpec", "parameter values base")):
    __slots__ = ()

    def __new__(cls, parameter: str, values: list, base: CalibrationParams):
        if parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {parameter!r}; "
                             f"choose from {SWEEP_PARAMETERS}")
        if not values:
            raise ValueError("sweep values must be non-empty")
        return super().__new__(cls, parameter, values, base)


def grid_axis(parameter: str, base: CalibrationParams, steps: int = GRID_STEPS) -> SweepSpec:
    """A 2-D grid axis: `steps` points over GRID_RANGES[parameter].

    The k axis keeps the distinct rounded values, so every cell is
    computed at the k its row is labelled with.
    """
    values = linear_grid(*GRID_RANGES[parameter], steps)
    if parameter == "k":
        values = sorted({round(v) for v in values})
    return SweepSpec(parameter=parameter, values=values, base=base)


def _cell(base: CalibrationParams, overrides: dict) -> CalibrationParams:
    """One sweep cell: the base params with every {parameter: value} override applied."""
    values = {}
    for name, value in overrides.items():
        if name == "p_opt":
            value = real("p_opt", value, 0, 1, open=True)
            name, value = "sigma", math.sqrt(value * (1.0 - value))
        values[name] = value
    return base._replace(**values)


class Sweep1DRow(NamedTuple):
    param: str
    value: float
    capacity_nats: float
    critical_bias: float | None
    ratio: float
    regime: str  # a Regime value


def sweep_1d(spec: SweepSpec) -> list[Sweep1DRow]:
    """The certificate's capacity, critical bias and regime at each value.

    An invalid value raises ValueError, as in sweep_2d.
    """
    rows = []
    for value in spec.values:
        params = _cell(spec.base, {spec.parameter: value})
        report = certificate_report(params)
        rows.append(Sweep1DRow(
            param=spec.parameter, value=value, capacity_nats=report.capacity_at_bias,
            critical_bias=report.critical_bias, ratio=ratio(params.b_mu, report.critical_bias),
            regime=report.regime.value))
    return rows


class Sweep2DRow(NamedTuple):
    x_param: str
    y_param: str
    x: float
    y: float
    ratio: float  # b_mu / critical_bias; inf when the target is unreachable


def sweep_2d(x_spec: SweepSpec, y_spec: SweepSpec) -> list[Sweep2DRow]:
    """Certificate ratio over the full Cartesian grid of two parameters.

    The ratio-equals-one contour is the boundary between the
    data-efficient and baseline regimes. Two axes that set the same
    quantity (b_mu twice, or sigma and p_opt) raise ValueError, as does
    an invalid value. The critical bias never reads b_mu, so it is
    solved once per distinct cell of the other values (60 solves, not
    3,600, on the default kappa_mu x b_mu grid); each b_mu value is
    checked once, before any solve.
    """
    if x_spec.base != y_spec.base:
        raise ValueError("both sweep axes must share the same base parameters")
    x_param, y_param = x_spec.parameter, y_spec.parameter
    if {x_param, y_param} <= {"sigma", "p_opt"} or x_param == y_param:
        raise ValueError(f"grid axes {x_param} and {y_param} set the same quantity")
    base = x_spec.base
    # Check each b_mu value once; the other values are checked in the solve cells below.
    for spec in (x_spec, y_spec):
        if spec.parameter == "b_mu":
            for value in spec.values:
                real("b_mu", value, 0)
    solved = {}  # critical bias by the cell's values other than b_mu, which it never reads
    rows = []
    for x in x_spec.values:
        for y in y_spec.values:
            others = {x_param: x, y_param: y}
            b_mu = others.pop("b_mu", base.b_mu)
            key = tuple(others.values())
            if key not in solved:
                solved[key] = critical_bias(_cell(base, others))
            rows.append(Sweep2DRow(x_param, y_param, x, y, ratio(b_mu, solved[key])))
    return rows
