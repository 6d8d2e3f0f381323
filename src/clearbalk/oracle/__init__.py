"""Ground-truth engines independent from the closed-form modules.

Two numerical oracles and a best-response checker:

* :mod:`.balance` solves the truncated balance equations of the
  level/environment chain directly, from the transition rates alone.
* :mod:`.simulate` runs an event-driven simulation of the same chain and
  reports cross-replication estimates with standard errors.
* :mod:`.verify` combines the balance oracle with the clearing-time
  means to check the best-response sign pattern of a candidate
  equilibrium strategy.
"""

from .balance import TruncatedSolution, solve_truncated_balance
from .simulate import SimEstimates, simulate
from .verify import CheckRecord, VerificationReport, verify_equilibrium

__all__ = [
    "TruncatedSolution",
    "solve_truncated_balance",
    "SimEstimates",
    "simulate",
    "CheckRecord",
    "VerificationReport",
    "verify_equilibrium",
]
