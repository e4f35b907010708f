"""Sensitivity sweeps of the certificate over calibration parameters.

Each swept cell is the base parameter vector with the swept values
applied: the prior entropy tracks k, the noise scale tracks p_opt
through the Bernoulli standard deviation (`SETS`), and the canonical
residual variance is recomputed in every cell. Both sweeps read one grid
walk. The critical bias never reads b_mu, so any sweep solves it once per
distinct cell of its values other than b_mu (once for a b_mu sweep, once
per value of the other axis on a grid with a b_mu axis); every swept value
is still checked. Output is CSV rows; plotting is left to external tools:
`certificates.write_csv` writes the rows, whose fields are the columns.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

from .certificates import (CalibrationParams, channel_capacity, checked_record, critical_bias,
                           ratio, real, regime, whole)

# Axis range of each sweep parameter in a 2-D grid; the keys are the parameters.
GRID_RANGES = {"sigma": (0.357, 0.50), "kappa_mu": (0.6, 3.0), "d_f": (2.0, 5.0),
               "k": (4, 16), "p_opt": (0.50, 0.95), "b_mu": (0.10, 0.40)}
SWEEP_PARAMETERS = tuple(GRID_RANGES)
GRID_STEPS = 60    # points per 2-D grid axis
PARAM_STEPS = 50   # points of a 1-D sweep over a range
# What a swept value sets: (calibration field, the field's value at that swept value).
# Each parameter sets its own field, except p_opt, the optimal arm's success
# probability, which sets sigma to its Bernoulli standard deviation.
SETS = {name: (name, lambda value: value) for name in SWEEP_PARAMETERS}
SETS["p_opt"] = ("sigma", lambda p: math.sqrt(real("p_opt", p, 0, 1, open=True) * (1.0 - p)))


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


class Sweep1DRow(NamedTuple):
    param: str
    value: float
    capacity_nats: float
    critical_bias: float | None
    ratio: float
    regime: str  # a Regime value


class Sweep2DRow(NamedTuple):
    x_param: str
    y_param: str
    x: float
    y: float
    ratio: float  # b_mu / critical_bias; inf when the target is unreachable


def _walk(*specs: SweepSpec):
    """(values, b_mu, cell, critical bias) over the specs' Cartesian product, in row order.

    The axes share one base and set distinct fields. Every b_mu value is checked before any
    solve; the cell (at the base b_mu) and its critical bias, which never reads b_mu, are
    made once per distinct tuple of the other values, when first met in row order.
    """
    base = specs[0].base
    if any(spec.base != base for spec in specs):
        raise ValueError("both sweep axes must share the same base parameters")
    params = [spec.parameter for spec in specs]
    if len({SETS[param][0] for param in params}) < len(params):
        raise ValueError(f"grid axes {' and '.join(params)} set the same quantity")
    at = params.index("b_mu") if "b_mu" in params else None
    others = [SETS[param] for param in params if param != "b_mu"]
    if at is not None:
        for value in specs[at].values:
            real("b_mu", value, 0)
    solved = {}  # (cell, critical bias) by the values other than b_mu
    for values in product(*(spec.values for spec in specs)):
        if at is None:
            b_mu, key = base.b_mu, values
        else:
            b_mu, key = values[at], values[:at] + values[at + 1:]
        try:
            cell, b_crit = solved[key]
        except KeyError:
            cell = base._replace(**{field: to(v) for (field, to), v in zip(others, key)})
            cell, b_crit = solved[key] = cell, critical_bias(cell)
        yield values, b_mu, cell, b_crit


def sweep_1d(spec: SweepSpec) -> list[Sweep1DRow]:
    """The capacity, critical bias, ratio and regime at each value; an invalid value
    raises ValueError, as in sweep_2d."""
    return [Sweep1DRow(spec.parameter, value, channel_capacity(b_mu, cell), b_crit,
                       ratio(b_mu, b_crit), regime(b_mu, b_crit).value)
            for (value,), b_mu, cell, b_crit in _walk(spec)]


def sweep_2d(x_spec: SweepSpec, y_spec: SweepSpec) -> list[Sweep2DRow]:
    """Certificate ratio over the full Cartesian grid of two parameters.

    The ratio-equals-one contour is the boundary between the data-efficient and
    baseline regimes. Two axes that set the same quantity (b_mu twice, or sigma and
    p_opt) raise ValueError, as does an invalid value.
    """
    return [Sweep2DRow(x_spec.parameter, y_spec.parameter, x, y, ratio(b_mu, b_crit))
            for (x, y), b_mu, _, b_crit in _walk(x_spec, y_spec)]
