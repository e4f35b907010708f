"""Closed-form certificate quantities for hybrid mechanistic priors.

The certificate is a pure function of a calibration parameter vector:
channel capacity of the model-to-policy channel, the residual entropy
left for the learner, the critical bias threshold, and the regret
envelopes. All entropies and information quantities are in nats.

It also holds the regime rule `regime` and the helpers the other modules
share: the count rule `whole`, the real-number rule `real`, the `ratio` rule,
`checked_record` and the table writer `write_csv`, which writes every row of a
table through one `%` format.
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


def real(name: str, value, lo: float, hi: float = math.inf, open: bool = False) -> float:
    """The one rule for every real-valued input: a finite number in [lo, hi], or in
    (lo, hi) when `open` is set, returned as given; otherwise ValueError."""
    if math.isfinite(value) and (lo < value < hi if open else lo <= value <= hi):
        return value
    left, right = ("(", ")") if open else ("[", ")" if hi == math.inf else "]")
    raise ValueError(f"{name} must lie in {left}{lo:g}, {hi:g}{right}, got {value}")


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


def _columns(record, prefix: str = ""):
    """Each column's name and value, in field order; a nested record's fields take its
    place, named `<field>_<subfield>`."""
    for name, x in zip(record._fields, record):
        if isinstance(x, tuple):
            yield from _columns(x, f"{prefix}{name}_")
        else:
            yield prefix + name, x


def write_csv(path, rows) -> str:
    """Write the first row's column names, then one line per row record; return the text.

    The header and one `%` format come from the first row's columns: `%s` for text
    and `%.6g` for any other value. Every row has the first row's shape, and a column
    holds text in every row or in none. Rows are flattened through the same columns
    only when the first row nests a record. A row with a different number of columns,
    or a None, text or record in a number column, raises TypeError.
    """
    names, values = zip(*_columns(rows[0]))
    line = ",".join(["%s" if isinstance(x, str) else "%.6g" for x in values])
    if any(isinstance(x, tuple) for x in rows[0]):
        rows = [tuple(x for _, x in _columns(row)) for row in rows]
    text = "\n".join([",".join(names), *[line % row for row in rows]]) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


class CalibrationParams(checked_record("CalibrationParams", "k n sigma kappa_mu d_f b_mu")):
    """Full parameter vector of the certificate, checked once here.

    The prior entropy h_mu is the uniform-prior entropy ln k, and the
    residual variance sigma_f2 is derived from the fields, so `_replace`
    rederives both. Every count is an integer of at least its minimum
    (k >= 2, n >= 1) and is stored as an int; sigma, kappa_mu and d_f lie
    in (0, inf) and b_mu in [0, inf).
    """

    __slots__ = ()

    def __new__(cls, k: int, n: int, sigma: float, kappa_mu: float, d_f: float, b_mu: float):
        self = super().__new__(cls, whole("k", k, 2), whole("n", n, 1),
                               real("sigma", sigma, 0, open=True),
                               real("kappa_mu", kappa_mu, 0, open=True),
                               real("d_f", d_f, 0, open=True), real("b_mu", b_mu, 0))
        if not math.isfinite(self.sigma_f2):
            raise OverflowError(f"canonical sigma_f2 overflows: {self.sigma_f2}")
        return self

    @property
    def h_mu(self) -> float:
        """Prior entropy of the optimal arm, ln k."""
        return math.log(self.k)

    @property
    def sigma_f2(self) -> float:
        """Canonical residual variance 2*sigma^2*h_mu / (kappa_mu^2 * d_f), under which
        a perfect model's capacity approaches the prior entropy."""
        return 2.0 * self.sigma**2 * self.h_mu / (self.kappa_mu**2 * self.d_f)

    @classmethod
    def canonical(cls, k: int, n: int, sigma: float, kappa_mu: float,
                  d_f: float, b_mu: float) -> "CalibrationParams":
        """The plain constructor by a second name: ln k and the canonical sigma_f2.

        `mechbench/run.py` and `tests/test_acceptance.py` build their working
        point through it, so it goes with ROADMAP item 9's benchmark refit.
        """
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


def channel_capacity(b_mu: float, p: CalibrationParams) -> float:
    """Capacity of the mechanistic channel at bias b_mu, in nats.

    (d_f/2) * ln(1 + kappa^2*sigma_f2 / (kappa^2*b_mu^2 + sigma^2));
    strictly decreasing in b_mu with limit 0. Raises OverflowError when it is
    not finite.
    """
    b_mu = real("b_mu", b_mu, 0)
    snr = p.kappa_mu**2 * p.sigma_f2 / (p.kappa_mu**2 * b_mu**2 + p.sigma**2)
    capacity = 0.5 * p.d_f * math.log1p(snr)
    if not math.isfinite(capacity):
        raise OverflowError(f"capacity is not finite: {capacity}")
    return capacity


def residual_entropy(h_mu: float, r_mech: float) -> float:
    """Entropy left after the model's information, clamped at zero."""
    return max(real("h_mu", h_mu, 0) - real("r_mech", r_mech, 0), 0.0)


def solve_bias_for_capacity(target: float, p: CalibrationParams) -> float | None:
    """Invert the capacity curve: the bias b with capacity(b) == target.

    Returns None when target > capacity at zero bias, i.e. no model,
    however unbiased, can transmit that much information.
    """
    denom = math.expm1(2.0 * real("target", target, 0, open=True) / p.d_f)
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


def regime(b_mu: float, b_crit: float | None) -> Regime:
    """The one regime rule: DataEfficient below b_crit, Baseline at or above it."""
    if b_crit is None:
        return Regime.UNREACHABLE
    return Regime.DATA_EFFICIENT if b_mu < b_crit else Regime.BASELINE


def _envelope_radicand(k: int, n: int, h_mech: float) -> float:
    """k*n*h_mech, each input checked by its rule."""
    return whole("k", k, 2) * whole("n", n, 1) * real("h_mech", h_mech, 0)


def lb_envelope(k: int, n: int, h_mech: float) -> float:
    """Lower regret envelope sqrt(k*n*h_mech / ln k), constant-free."""
    return math.sqrt(_envelope_radicand(k, n, h_mech) / math.log(k))


def ub_envelope(k: int, n: int, h_mech: float) -> float:
    """Upper regret envelope sqrt(k*n*h_mech), constant-free."""
    return math.sqrt(_envelope_radicand(k, n, h_mech))


def sample_complexity_ratio(h_mu: float, h_mech: float) -> float:
    """Asymptotic sample-complexity ratio h_mu / h_mech.

    Returns math.inf when h_mech == 0 (fully identified optimum).
    """
    h_mu = real("h_mu", h_mu, 0)
    return ratio(h_mu, real("h_mech", h_mech, 0, h_mu))


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
    return CertificateReport(
        target=target,
        capacity_at_bias=cap,
        residual_entropy_floor=floor,
        critical_bias=b_crit,
        bias_ratio=None if b_crit is None else ratio(b_crit, p.b_mu),
        regime=regime(p.b_mu, b_crit),
        sample_ratio=sample_complexity_ratio(p.h_mu, floor),
        lb_envelope=lb_envelope(p.k, p.n, floor),
        ub_envelope=ub_envelope(p.k, p.n, floor),
    )
