"""Mechanistic-information certificates for hybrid priors in sequential dosing.

Closed-form channel-capacity and regret certificates, two-level prior
construction, burn-in and distribution-shift bounds, and the seeded
Monte Carlo bandit experiments that validate them.

Import each name from the module that defines it, e.g.
`from mechcert.certificates import certificate_report`. `sim`, the Monte
Carlo engine, is the only module that imports numpy, so the closed-form
calculator needs the standard library only.
"""

__version__ = "0.1.0"
