"""Closed-form certificate quantities for hybrid mechanistic priors.

Everything here is a pure function of a calibration parameter vector:
channel capacity of the model-to-policy channel, the residual entropy
left for the learner, the critical bias threshold, and the regret
envelopes. All entropies and information quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class UnreachableTarget(Exception):
    """The requested information target exceeds the zero-bias capacity."""


class Regime(Enum):
    DATA_EFFICIENT = "DataEfficient"
    BASELINE = "Baseline"


def canonical_sigma_f2(sigma: float, h_mu: float, kappa_mu: float, d_f: float) -> float:
    """Residual marginal variance tying channel capacity to prior entropy.

    Returns 2*sigma^2*h_mu / (kappa_mu^2 * d_f), the normalization under
    which a perfect model's capacity approaches the prior entropy.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if kappa_mu <= 0:
        raise ValueError(f"kappa_mu must be positive, got {kappa_mu}")
    if d_f <= 0:
        raise ValueError(f"d_f must be positive, got {d_f}")
    if h_mu < 0:
        raise ValueError(f"h_mu must be non-negative, got {h_mu}")
    return 2.0 * sigma**2 * h_mu / (kappa_mu**2 * d_f)


@dataclass(frozen=True)
class CalibrationParams:
    """Full parameter vector of the certificate.

    The prior entropy h_mu is the uniform-prior entropy ln k. sigma_f2
    defaults to the canonical residual variance; pass it to override it
    (sigma_f2 >= 0). k is checked before ln k is taken.
    """

    k: int
    n: int
    sigma: float
    kappa_mu: float
    d_f: float
    b_mu: float
    sigma_f2: float | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("sigma", "kappa_mu", "d_f", "b_mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.b_mu < 0:
            raise ValueError(f"b_mu must be non-negative, got {self.b_mu}")
        # canonical_sigma_f2 range-checks sigma, kappa_mu and d_f
        canonical = canonical_sigma_f2(self.sigma, self.h_mu, self.kappa_mu, self.d_f)
        if self.sigma_f2 is None:
            object.__setattr__(self, "sigma_f2", canonical)
        elif not (math.isfinite(self.sigma_f2) and self.sigma_f2 >= 0):
            raise ValueError(f"sigma_f2 must be finite and non-negative, got {self.sigma_f2}")

    @property
    def h_mu(self) -> float:
        """Prior entropy of the optimal arm, ln k."""
        return math.log(self.k)

    @classmethod
    def canonical(cls, k: int, n: int, sigma: float, kappa_mu: float,
                  d_f: float, b_mu: float) -> "CalibrationParams":
        """Uniform-prior entropy ln k and canonical residual variance."""
        return cls(k=k, n=n, sigma=sigma, kappa_mu=kappa_mu, d_f=d_f, b_mu=b_mu)


@dataclass(frozen=True)
class CertificateReport:
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


def solve_bias_for_capacity(target: float, p: CalibrationParams) -> float:
    """Invert the capacity curve: the bias b with capacity(b) == target.

    Raises UnreachableTarget when target > capacity at zero bias, i.e.
    no model, however unbiased, can transmit that much information.
    """
    if not (math.isfinite(target) and target > 0):
        raise ValueError(f"target must be positive and finite, got {target}")
    denom = math.expm1(2.0 * target / p.d_f)
    ratio = (p.kappa_mu**2 * p.sigma_f2 / p.sigma**2) / denom
    radicand = ratio - 1.0
    if -1e-12 * (1.0 + ratio) <= radicand < 0.0:
        radicand = 0.0  # roundoff at the zero-bias endpoint
    if radicand < 0:
        raise UnreachableTarget(
            f"target {target:.6g} nats exceeds zero-bias capacity "
            f"{channel_capacity(0.0, p):.6g} nats")
    return (p.sigma / p.kappa_mu) * math.sqrt(radicand)


def critical_bias(p: CalibrationParams) -> float:
    """Bias at which capacity meets the default working target h_mu/n.

    Below this threshold the model certifiably saves at least one cycle
    at horizon n. Raises UnreachableTarget when even a perfect model
    cannot meet the target (e.g. n = 1 at the working values).
    """
    return solve_bias_for_capacity(p.h_mu / p.n, p)


def _check_envelope_args(k: int, n: int, h_mech: float) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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
    if h_mech == 0:
        return math.inf
    return h_mu / h_mech


def certificate_report(p: CalibrationParams, target: float | None = None) -> CertificateReport:
    """Evaluate the full composite certificate at p's working point.

    The critical bias is solved once, for `target` nats of information
    (default h_mu/n, the target of critical_bias); the regime and the
    bias ratio follow from it.
    """
    target = p.h_mu / p.n if target is None else target
    cap = channel_capacity(p.b_mu, p)
    floor = residual_entropy(p.h_mu, cap)
    try:
        b_crit: float | None = solve_bias_for_capacity(target, p)
    except UnreachableTarget:
        b_crit, ratio, regime = None, None, Regime.BASELINE
    else:
        ratio = b_crit / p.b_mu if p.b_mu > 0 else math.inf
        regime = Regime.DATA_EFFICIENT if p.b_mu < b_crit else Regime.BASELINE
    return CertificateReport(
        target=target,
        capacity_at_bias=cap,
        residual_entropy_floor=floor,
        critical_bias=b_crit,
        bias_ratio=ratio,
        regime=regime,
        sample_ratio=sample_complexity_ratio(p.h_mu, floor),
        lb_envelope=lb_envelope(p.k, p.n, floor),
        ub_envelope=ub_envelope(p.k, p.n, floor),
        capacity_exceeds_entropy=cap > p.h_mu + 1e-12,
    )
