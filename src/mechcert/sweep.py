"""Sensitivity sweeps of the certificate over calibration parameters.

Each swept cell is the base parameter vector with the swept values
applied: the prior entropy tracks k, the noise scale tracks p_opt
through the Bernoulli standard deviation (`SETS`), and the canonical
residual variance is recomputed in every cell. The critical bias never
reads b_mu, so any sweep solves it once per distinct cell of its values
other than b_mu (once for a b_mu sweep, once per value of the other axis on
a grid with a b_mu axis); every swept value is still checked. Both sweeps
read one structure, `_cells`: it checks the axes, solves each distinct cell,
and hands back each row's b_mu and solved cell in row order, from which a
sweep builds its rows in one pass. Output is CSV rows; plotting is left to
external tools: `certificates.write_csv` writes the rows, whose fields are
the columns. No row holds None: an unreachable cell's critical bias is nan
in a 1-D row, and its ratio is inf in both.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import product
from typing import NamedTuple

from .certificates import (GRID_RANGES, GRID_STEPS, SWEEP_PARAMETERS, CalibrationParams,
                           channel_capacity, checked_record, critical_bias, ratio, real, regime,
                           whole)

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
    critical_bias: float  # nan when the target is unreachable
    ratio: float
    regime: str  # a Regime value


class Sweep2DRow(NamedTuple):
    x_param: str
    y_param: str
    x: float
    y: float
    ratio: float  # b_mu / critical_bias; inf when the target is unreachable


def _cells(*specs: SweepSpec) -> tuple[list, list]:
    """Each row's b_mu and (cell, critical bias), in row order, over the specs' product.

    The axes share one base and set distinct fields, and every b_mu value is checked,
    in that order, before any solve. The cell (at the base b_mu) and its critical bias,
    which never reads b_mu, are then made once per distinct tuple of the other values,
    in the order rows first meet them, so an invalid cell raises where row order first
    meets it. A b_mu axis is the first or the last axis; the rows of one b_mu value meet
    every cell when it is the first, and each cell meets every b_mu value in turn when
    it is the last.
    """
    base = specs[0].base
    if any(spec.base != base for spec in specs):
        raise ValueError("both sweep axes must share the same base parameters")
    params = [spec.parameter for spec in specs]
    if len({SETS[param][0] for param in params}) < len(params):
        raise ValueError(f"grid axes {' and '.join(params)} set the same quantity")
    b_mus = [base.b_mu]
    if "b_mu" in params:
        b_mus = specs[params.index("b_mu")].values
        for value in b_mus:
            real("b_mu", value, 0)
    others = [spec for spec in specs if spec.parameter != "b_mu"]
    sets = [SETS[spec.parameter] for spec in others]
    made, solved = {}, []  # (cell, critical bias) by key, and in the keys' product order
    for key in product(*(spec.values for spec in others)):
        if key not in made:
            cell = base._replace(**{field: to(v) for (field, to), v in zip(sets, key)})
            made[key] = cell, critical_bias(cell)
        solved.append(made[key])
    if params[0] == "b_mu" and len(params) == 2:
        return [b_mu for b_mu in b_mus for _ in solved], solved * len(b_mus)
    return b_mus * len(solved), [cell for cell in solved for _ in b_mus]


def sweep_1d(spec: SweepSpec) -> list[Sweep1DRow]:
    """The capacity, critical bias (nan when unreachable), ratio and regime at each
    value; an invalid value raises ValueError, as in sweep_2d."""
    return [Sweep1DRow(spec.parameter, value, channel_capacity(b_mu, cell),
                       math.nan if b_crit is None else b_crit,
                       ratio(b_mu, b_crit), regime(b_mu, b_crit).value)
            for value, b_mu, (cell, b_crit) in zip(spec.values, *_cells(spec))]


# A Sweep2DRow from a tuple, built in C: a grid makes thousands of rows, and the
# class's own __new__ is a Python function.
_row2d = partial(tuple.__new__, Sweep2DRow)


def sweep_2d(x_spec: SweepSpec, y_spec: SweepSpec) -> list[Sweep2DRow]:
    """Certificate ratio over the full Cartesian grid of two parameters.

    The ratio-equals-one contour is the boundary between the data-efficient and
    baseline regimes. Two axes that set the same quantity (b_mu twice, or sigma and
    p_opt) raise ValueError, as does an invalid value.
    """
    x_param, y_param = x_spec.parameter, y_spec.parameter
    return [_row2d((x_param, y_param, x, y, ratio(b_mu, b_crit)))
            for (x, y), b_mu, (_, b_crit)
            in zip(product(x_spec.values, y_spec.values), *_cells(x_spec, y_spec))]
