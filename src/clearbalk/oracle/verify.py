"""Oracle-based best-response check for candidate equilibrium strategies.

The check rebuilds everything it needs from the balance-equation solve:
stationary masses give arrival-weighted (Palm) environment frequencies
at each observed level, the clearing property gives the conditional mean
sojourn as the Palm mixture of the per-environment clearing times, and
the net benefit of joining follows. A strategy is a best response
against itself exactly when no reachable level offers a profitable
deviation: joining must not win where the strategy balks with positive
probability, balking must not win where it joins with positive
probability.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..codec import Wire, decode
from ..model import RewardCost, ValidatedModel
from ..strategies import Strategy, format_strategy
from .balance import solve_truncated_balance

#: Sign tolerance for the best-response inequalities.
VERIFY_TOLERANCE = 1e-8

#: Levels with less stationary mass than this are treated as unreachable.
MASS_FLOOR = 1e-9


@dataclass(frozen=True)
class CheckRecord(Wire):
    """Best-response check at one reachable level."""

    level: int
    join_prob: float
    mass: float
    net_benefit: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class VerificationReport(Wire):
    strategy: str
    passed: bool
    checks: tuple[CheckRecord, ...]
    tolerance: float
    mass_floor: float

    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if not c.ok)


#: Rebuild a VerificationReport from its JSON dictionary form.
verification_from_dict = functools.partial(decode, VerificationReport)


def verify_equilibrium(model: ValidatedModel, rc: RewardCost, strategy: Strategy,
                       tol: float = VERIFY_TOLERANCE,
                       mass_floor: float = MASS_FLOOR) -> VerificationReport:
    """Check the equilibrium sign pattern at every reachable level.

    A level counts as reachable when its stationary mass under the
    strategy exceeds ``mass_floor``. At each such level the expected
    sojourn is the arrival-weighted mixture of the per-environment mean
    clearing times, and the margin is the distance to the nearest
    violated inequality (negative when violated).
    """
    p = model.params
    lam = (p.lambda1, p.lambda2)
    mean_s = model.mean_clearing
    solution = solve_truncated_balance(model, strategy)

    checks: list[CheckRecord] = []
    for n in range(solution.level + 1):
        m1 = float(solution.masses[n, 0])
        m2 = float(solution.masses[n, 1])
        mass = m1 + m2
        if mass < mass_floor:
            continue
        w1 = lam[0] * m1
        w2 = lam[1] * m2
        sojourn = (w1 * mean_s[0] + w2 * mean_s[1]) / (w1 + w2)
        net = rc.reward - rc.cost * sojourn
        jp = strategy.join_prob(n)
        margin = tol - abs(net)
        if jp >= 1.0:
            margin = net + tol
        elif jp <= 0.0:
            margin = tol - net
        checks.append(CheckRecord(level=n, join_prob=jp, mass=mass,
                                  net_benefit=net, margin=margin,
                                  ok=margin >= 0.0))

    return VerificationReport(
        strategy=format_strategy(strategy),
        passed=all(c.ok for c in checks),
        checks=tuple(checks),
        tolerance=tol,
        mass_floor=mass_floor,
    )
