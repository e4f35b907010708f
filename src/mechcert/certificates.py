"""Closed-form certificate quantities for hybrid mechanistic priors.

The certificate is a pure function of a calibration parameter vector:
channel capacity of the model-to-policy channel, the residual entropy
left for the learner, the critical bias threshold, and the regret
envelopes. All entropies and information quantities are in nats.

It also holds the record helpers the other modules share: the count rule
`whole`, the `ratio` rule, `checked_record` and the table writer `write_csv`.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from enum import Enum
from typing import NamedTuple


class Regime(Enum):
    DATA_EFFICIENT = "DataEfficient"
    BASELINE = "Baseline"
    UNREACHABLE = "Unreachable"  # no bias meets the target, so there is no critical bias


def whole(name: str, value, minimum: int) -> int:
    """The one rule for every count: an integer (8.0 passes; 8.5, nan and inf
    do not) of at least `minimum`, returned as an int; otherwise ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def ratio(a: float, b: float | None) -> float:
    """The one ratio rule: a / b, or inf when there is nothing to divide by (b is 0 or None)."""
    return a / b if b else math.inf


def checked_record(name: str, fields: str):
    """A namedtuple base for an immutable type that checks its fields in `__new__`.

    `_make`, and `_replace` through it, build by calling the subclass, so
    no way of making an instance skips the checks.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def _fmt(record) -> str:
    """CSV text of a record (a row, or a summary nested in one): its fields in
    order, where strings pass through, None is nan, a nested record is its own
    fields, and numbers take 6 significant digits."""
    return ",".join([x if isinstance(x, str) else "nan" if x is None
                     else _fmt(x) if isinstance(x, tuple) else f"{x:.6g}" for x in record])


def _header(record, prefix: str = "") -> str:
    """Column names in `_fmt`'s order: a nested record's are `<field>_<subfield>`."""
    return ",".join([_header(x, f"{prefix}{name}_") if isinstance(x, tuple) else prefix + name
                     for name, x in zip(record._fields, record)])


def write_csv(path, rows) -> str:
    """Write the first row's column names, then one line per row record; return the text."""
    text = "\n".join([_header(rows[0]), *map(_fmt, rows)]) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


class CalibrationParams(checked_record("CalibrationParams",
                                       "k n sigma kappa_mu d_f b_mu sigma_f2")):
    """Full parameter vector of the certificate, checked once here.

    The prior entropy h_mu is the uniform-prior entropy ln k. The field
    sigma_f2 stores an override (>= 0), or None for the canonical residual
    variance 2*sigma^2*h_mu / (kappa_mu^2 * d_f), under which a perfect
    model's capacity approaches the prior entropy; the property reads
    either, so `_replace` rederives a canonical value. Every count is an
    integer of at least its minimum (k >= 2, n >= 1) and is stored as an int.
    """

    __slots__ = ()

    def __new__(cls, k: int, n: int, sigma: float, kappa_mu: float, d_f: float, b_mu: float,
                sigma_f2: float | None = None):
        k, n = whole("k", k, 2), whole("n", n, 1)
        for name, value in zip(("sigma", "kappa_mu", "d_f", "b_mu"), (sigma, kappa_mu, d_f, b_mu)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if b_mu < 0:
            raise ValueError(f"b_mu must be non-negative, got {b_mu}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        if kappa_mu <= 0:
            raise ValueError(f"kappa_mu must be positive, got {kappa_mu}")
        if d_f <= 0:
            raise ValueError(f"d_f must be positive, got {d_f}")
        if sigma_f2 is not None and not (math.isfinite(sigma_f2) and sigma_f2 >= 0):
            raise ValueError(f"sigma_f2 must be finite and non-negative, got {sigma_f2}")
        self = super().__new__(cls, k, n, sigma, kappa_mu, d_f, b_mu, sigma_f2)
        if not math.isfinite(self.sigma_f2):  # only a canonical value can overflow
            raise OverflowError(f"canonical sigma_f2 overflows: {self.sigma_f2}")
        return self

    @property
    def h_mu(self) -> float:
        """Prior entropy of the optimal arm, ln k."""
        return math.log(self.k)

    @property
    def sigma_f2(self) -> float:
        """Residual variance: the stored override, or the canonical value when it is None."""
        override = super().sigma_f2
        return (2.0 * self.sigma**2 * self.h_mu / (self.kappa_mu**2 * self.d_f)
                if override is None else override)

    @classmethod
    def canonical(cls, k: int, n: int, sigma: float, kappa_mu: float,
                  d_f: float, b_mu: float) -> "CalibrationParams":
        """Uniform-prior entropy ln k and canonical residual variance."""
        return cls(k=k, n=n, sigma=sigma, kappa_mu=kappa_mu, d_f=d_f, b_mu=b_mu)


class CertificateReport(NamedTuple):
    """Composite certificate evaluated at a working point."""

    target: float                # information target of the critical bias, nats
    capacity_at_bias: float
    residual_entropy_floor: float
    critical_bias: float | None  # None when the target is unreachable
    bias_ratio: float | None     # critical_bias / b_mu; inf at b_mu = 0
    regime: Regime
    sample_ratio: float
    lb_envelope: float
    ub_envelope: float
    capacity_exceeds_entropy: bool  # flags non-canonical sigma_f2 with C > H


def channel_capacity(b_mu: float, p: CalibrationParams) -> float:
    """Capacity of the mechanistic channel at bias b_mu, in nats.

    (d_f/2) * ln(1 + kappa^2*sigma_f2 / (kappa^2*b_mu^2 + sigma^2));
    strictly decreasing in b_mu with limit 0.
    """
    if b_mu < 0:
        raise ValueError(f"b_mu must be non-negative, got {b_mu}")
    snr = p.kappa_mu**2 * p.sigma_f2 / (p.kappa_mu**2 * b_mu**2 + p.sigma**2)
    return 0.5 * p.d_f * math.log1p(snr)


def residual_entropy(h_mu: float, r_mech: float) -> float:
    """Entropy left after the model's information, clamped at zero."""
    if h_mu < 0 or r_mech < 0:
        raise ValueError("entropies must be non-negative")
    return max(h_mu - r_mech, 0.0)


def solve_bias_for_capacity(target: float, p: CalibrationParams) -> float | None:
    """Invert the capacity curve: the bias b with capacity(b) == target.

    Returns None when target > capacity at zero bias, i.e. no model,
    however unbiased, can transmit that much information.
    """
    if not (math.isfinite(target) and target > 0):
        raise ValueError(f"target must be positive and finite, got {target}")
    denom = math.expm1(2.0 * target / p.d_f)
    snr_ratio = (p.kappa_mu**2 * p.sigma_f2 / p.sigma**2) / denom
    if not math.isfinite(snr_ratio):
        raise OverflowError(f"capacity inversion overflows: ratio {snr_ratio}")
    radicand = snr_ratio - 1.0
    if -1e-12 * (1.0 + snr_ratio) <= radicand < 0.0:
        radicand = 0.0  # roundoff at the zero-bias endpoint
    if radicand < 0:
        return None
    return (p.sigma / p.kappa_mu) * math.sqrt(radicand)


def critical_bias(p: CalibrationParams) -> float | None:
    """Bias at which capacity meets the default working target h_mu/n.

    Below this threshold the model certifiably saves at least one cycle
    at horizon n. Returns None when even a perfect model cannot meet the
    target (e.g. n = 1 at the working values).
    """
    return solve_bias_for_capacity(p.h_mu / p.n, p)


def _check_envelope_args(k: int, n: int, h_mech: float) -> None:
    whole("k", k, 2)
    whole("n", n, 1)
    if h_mech < 0:
        raise ValueError(f"h_mech must be non-negative, got {h_mech}")


def lb_envelope(k: int, n: int, h_mech: float) -> float:
    """Lower regret envelope sqrt(k*n*h_mech / ln k), constant-free."""
    _check_envelope_args(k, n, h_mech)
    return math.sqrt(k * n * h_mech / math.log(k))


def ub_envelope(k: int, n: int, h_mech: float) -> float:
    """Upper regret envelope sqrt(k*n*h_mech), constant-free."""
    _check_envelope_args(k, n, h_mech)
    return math.sqrt(k * n * h_mech)


def sample_complexity_ratio(h_mu: float, h_mech: float) -> float:
    """Asymptotic sample-complexity ratio h_mu / h_mech.

    Returns math.inf when h_mech == 0 (fully identified optimum).
    """
    if h_mech < 0 or h_mu < h_mech:
        raise ValueError("require 0 <= h_mech <= h_mu")
    return ratio(h_mu, h_mech)


def certificate_report(p: CalibrationParams, target: float | None = None) -> CertificateReport:
    """Evaluate the full composite certificate at p's working point.

    The critical bias is solved once, for `target` nats of information
    (default h_mu/n, the target of critical_bias); the regime and the
    bias ratio follow from it.
    """
    target = p.h_mu / p.n if target is None else target
    cap = channel_capacity(p.b_mu, p)
    floor = residual_entropy(p.h_mu, cap)
    b_crit = solve_bias_for_capacity(target, p)
    if b_crit is None:
        bias_ratio, regime = None, Regime.UNREACHABLE
    else:
        bias_ratio = ratio(b_crit, p.b_mu)
        regime = Regime.DATA_EFFICIENT if p.b_mu < b_crit else Regime.BASELINE
    return CertificateReport(
        target=target,
        capacity_at_bias=cap,
        residual_entropy_floor=floor,
        critical_bias=b_crit,
        bias_ratio=bias_ratio,
        regime=regime,
        sample_ratio=sample_complexity_ratio(p.h_mu, floor),
        lb_envelope=lb_envelope(p.k, p.n, floor),
        ub_envelope=ub_envelope(p.k, p.n, floor),
        capacity_exceeds_entropy=cap > p.h_mu + 1e-12,
    )
