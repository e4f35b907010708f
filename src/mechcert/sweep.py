"""Sensitivity sweeps of the certificate over calibration parameters.

Each swept cell rebuilds the parameter vector from scratch: the prior
entropy tracks k, the noise scale tracks p_opt through the Bernoulli
standard deviation, and the canonical residual variance is recomputed
in every cell. Output is CSV rows; plotting is left to external tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import (
    CalibrationParams,
    Regime,
    UnreachableTarget,
    channel_capacity,
    critical_bias,
)

__all__ = [
    "SWEEP_PARAMETERS",
    "SweepSpec",
    "Sweep1DRow",
    "Sweep2DRow",
    "KSweepRow",
    "linear_grid",
    "sweep_1d",
    "sweep_2d",
    "k_sweep",
    "write_sweep1d_csv",
    "write_sweep2d_csv",
    "write_ksweep_csv",
]

SWEEP_PARAMETERS = ("sigma", "kappa_mu", "d_f", "k", "p_opt", "b_mu")

SWEEP1D_HEADER = "param,value,capacity_nats,critical_bias,ratio,regime"
SWEEP2D_HEADER = "x_param,y_param,x,y,ratio"
KSWEEP_HEADER = "k,critical_bias,capacity_at_base_bias"


def linear_grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return [float(x) for x in np.linspace(lo, hi, steps)]


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


def _rebuild(base: CalibrationParams, parameter: str, value: float) -> CalibrationParams:
    """Base params with one parameter replaced; canonical variance recomputed."""
    k, sigma, kappa_mu, d_f, b_mu = base.k, base.sigma, base.kappa_mu, base.d_f, base.b_mu
    if parameter == "sigma":
        sigma = value
    elif parameter == "kappa_mu":
        kappa_mu = value
    elif parameter == "d_f":
        d_f = value
    elif parameter == "k":
        k = int(value)
    elif parameter == "p_opt":
        # p_opt enters only through the Bernoulli noise scale
        if not 0.0 < value < 1.0:
            raise ValueError(f"p_opt must lie in (0, 1), got {value}")
        sigma = math.sqrt(value * (1.0 - value))
    elif parameter == "b_mu":
        b_mu = value
    else:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    return CalibrationParams.canonical(k=k, n=base.n, sigma=sigma,
                                       kappa_mu=kappa_mu, d_f=d_f, b_mu=b_mu)


@dataclass(frozen=True)
class Sweep1DRow:
    param: str
    value: float
    capacity: float
    critical_bias: float | None
    ratio: float
    regime: str  # Regime value or "Unreachable"


def _evaluate_cell(params: CalibrationParams) -> tuple:
    """(capacity at the cell's bias, critical bias or None)."""
    cap = channel_capacity(params.b_mu, params)
    try:
        b_crit = critical_bias(params)
    except UnreachableTarget:
        b_crit = None
    return cap, b_crit


def sweep_1d(spec: SweepSpec) -> list[Sweep1DRow]:
    """Capacity and critical bias at each value of one parameter.

    An invalid value raises ValueError, as in sweep_2d.
    """
    rows = []
    for value in spec.values:
        params = _rebuild(spec.base, spec.parameter, value)
        cap, b_crit = _evaluate_cell(params)
        if b_crit is None:
            rows.append(Sweep1DRow(param=spec.parameter, value=value,
                                   capacity=cap, critical_bias=None,
                                   ratio=math.inf, regime="Unreachable"))
            continue
        ratio = params.b_mu / b_crit if b_crit > 0 else math.inf
        regime = Regime.DATA_EFFICIENT if params.b_mu < b_crit else Regime.BASELINE
        rows.append(Sweep1DRow(param=spec.parameter, value=value, capacity=cap,
                               critical_bias=b_crit, ratio=ratio,
                               regime=regime.value))
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
    data-efficient and baseline regimes.
    """
    if x_spec.base is not y_spec.base and x_spec.base != y_spec.base:
        raise ValueError("both sweep axes must share the same base parameters")
    rows = []
    for x in x_spec.values:
        for y in y_spec.values:
            params = _rebuild(_rebuild(x_spec.base, x_spec.parameter, x),
                              y_spec.parameter, y)
            _, b_crit = _evaluate_cell(params)
            if b_crit is None or b_crit == 0:
                ratio = math.inf
            else:
                ratio = params.b_mu / b_crit
            rows.append(Sweep2DRow(x_param=x_spec.parameter, y_param=y_spec.parameter,
                                   x=x, y=y, ratio=ratio))
    return rows


@dataclass(frozen=True)
class KSweepRow:
    k: int
    critical_bias: float | None
    capacity_at_base_bias: float


def k_sweep(base: CalibrationParams, k_values) -> list[KSweepRow]:
    """Critical bias as the arm count varies, entropy tracking ln k."""
    rows = []
    for k in k_values:
        if not 2 <= k <= 64:
            raise ValueError(f"k sweep values must lie in [2, 64], got {k}")
        params = CalibrationParams.canonical(
            k=int(k), n=base.n, sigma=base.sigma,
            kappa_mu=base.kappa_mu, d_f=base.d_f, b_mu=base.b_mu)
        cap, b_crit = _evaluate_cell(params)
        rows.append(KSweepRow(k=int(k), critical_bias=b_crit, capacity_at_base_bias=cap))
    return rows


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{x:.6g}"


def write_sweep1d_csv(rows: list[Sweep1DRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(SWEEP1D_HEADER + "\n")
        for r in rows:
            fh.write(",".join([r.param, _fmt(r.value), _fmt(r.capacity),
                               _fmt(r.critical_bias), _fmt(r.ratio),
                               r.regime]) + "\n")


def write_sweep2d_csv(rows: list[Sweep2DRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(SWEEP2D_HEADER + "\n")
        for r in rows:
            fh.write(",".join([r.x_param, r.y_param, _fmt(r.x), _fmt(r.y),
                               _fmt(r.ratio)]) + "\n")


def write_ksweep_csv(rows: list[KSweepRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(KSWEEP_HEADER + "\n")
        for r in rows:
            fh.write(",".join([str(r.k), _fmt(r.critical_bias),
                               _fmt(r.capacity_at_base_bias)]) + "\n")
