"""Sensitivity sweeps of the certificate over calibration parameters.

Each swept cell rebuilds the parameter vector from scratch: the prior
entropy tracks k, the noise scale tracks p_opt through the Bernoulli
standard deviation, and the canonical residual variance is recomputed
in every cell. Output is CSV rows; plotting is left to external tools.
`write_csv` is the one CSV writer, shared with the simulation tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificates import CalibrationParams, certificate_report, critical_bias

# Axis range of each sweep parameter in a 2-D grid; the keys are the parameters.
GRID_RANGES = {"sigma": (0.357, 0.50), "kappa_mu": (0.6, 3.0), "d_f": (2.0, 5.0),
               "k": (4, 16), "p_opt": (0.50, 0.95), "b_mu": (0.10, 0.40)}
SWEEP_PARAMETERS = tuple(GRID_RANGES)
GRID_STEPS = 60    # points per 2-D grid axis
PARAM_STEPS = 50   # points of a 1-D sweep over a range

SWEEP1D_HEADER = "param,value,capacity_nats,critical_bias,ratio,regime"
SWEEP2D_HEADER = "x_param,y_param,x,y,ratio"


def linear_grid(lo: float, hi: float, steps: int) -> list[float]:
    """`steps` evenly spaced points from lo to hi, bit for bit numpy's linspace."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return [float(lo)]
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps - 1)] + [float(hi)]


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: list
    base: CalibrationParams

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}; "
                             f"choose from {SWEEP_PARAMETERS}")
        if not self.values:
            raise ValueError("sweep values must be non-empty")


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
    values = dict(k=base.k, n=base.n, sigma=base.sigma, kappa_mu=base.kappa_mu,
                  d_f=base.d_f, b_mu=base.b_mu)
    for name, value in overrides.items():
        if name == "k":
            if not float(value).is_integer():
                raise ValueError(f"k must be an integer, got {value}")
            value = int(value)
        elif name == "p_opt":
            if not 0.0 < value < 1.0:
                raise ValueError(f"p_opt must lie in (0, 1), got {value}")
            name, value = "sigma", math.sqrt(value * (1.0 - value))
        values[name] = value
    return CalibrationParams(**values)


def _ratio(b_mu: float, b_crit: float | None) -> float:
    """b_mu / b_crit; inf when there is no critical bias or it is 0."""
    return b_mu / b_crit if b_crit else math.inf


@dataclass(frozen=True)
class Sweep1DRow:
    param: str
    value: float
    capacity: float
    critical_bias: float | None
    ratio: float
    regime: str  # Regime value or "Unreachable"


def sweep_1d(spec: SweepSpec) -> list[Sweep1DRow]:
    """The certificate's capacity, critical bias and regime at each value.

    An invalid value raises ValueError, as in sweep_2d.
    """
    rows = []
    for value in spec.values:
        params = _cell(spec.base, {spec.parameter: value})
        report = certificate_report(params)
        b_crit = report.critical_bias
        rows.append(Sweep1DRow(
            param=spec.parameter, value=value, capacity=report.capacity_at_bias,
            critical_bias=b_crit, ratio=_ratio(params.b_mu, b_crit),
            regime="Unreachable" if b_crit is None else report.regime.value))
    return rows


@dataclass(frozen=True)
class Sweep2DRow:
    x_param: str
    y_param: str
    x: float
    y: float
    ratio: float  # b_mu / critical_bias; inf when the target is unreachable


def sweep_2d(x_spec: SweepSpec, y_spec: SweepSpec) -> list[Sweep2DRow]:
    """Certificate ratio over the full Cartesian grid of two parameters.

    The ratio-equals-one contour is the boundary between the
    data-efficient and baseline regimes. Two axes that set the same
    quantity (b_mu twice, or sigma and p_opt) raise ValueError.
    """
    if x_spec.base is not y_spec.base and x_spec.base != y_spec.base:
        raise ValueError("both sweep axes must share the same base parameters")
    x_param, y_param = x_spec.parameter, y_spec.parameter
    if {x_param, y_param} <= {"sigma", "p_opt"} or x_param == y_param:
        raise ValueError(f"grid axes {x_param} and {y_param} set the same quantity")
    rows = []
    for x in x_spec.values:
        for y in y_spec.values:
            params = _cell(x_spec.base, {x_param: x, y_param: y})
            rows.append(Sweep2DRow(x_param=x_param, y_param=y_param, x=x, y=y,
                                   ratio=_ratio(params.b_mu, critical_bias(params))))
    return rows


def _fmt(x) -> str:
    """One CSV field: strings pass through, None is nan, numbers take 6 significant digits."""
    if isinstance(x, str):
        return x
    return "nan" if x is None else f"{x:.6g}"


def write_csv(path, header: str, rows) -> str:
    """Write the header line, then one line per sequence of fields; return the text."""
    text = "\n".join([header, *(",".join(map(_fmt, fields)) for fields in rows)]) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def write_sweep1d_csv(rows: list[Sweep1DRow], path) -> None:
    write_csv(path, SWEEP1D_HEADER, ((r.param, r.value, r.capacity, r.critical_bias,
                                      r.ratio, r.regime) for r in rows))


def write_sweep2d_csv(rows: list[Sweep2DRow], path) -> None:
    write_csv(path, SWEEP2D_HEADER, ((r.x_param, r.y_param, r.x, r.y, r.ratio) for r in rows))
