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

Levels before the balance solve's constant-step run, and its top level,
are checked one by one. Along the run ``p(n) = p(n0) T^(n-n0)``, and both
eigenvalues of ``T`` are positive, so each component of ``p(n)`` is
``a r1^n + b r2^n`` with ``0 < r2 < r1 < 1``. The level mass is then
unimodal, and the levels with mass at least the floor form one interval.
The ratio of the two components is a Moebius function of ``(r2/r1)^n``,
so the Palm weights, the net benefit and the margin are monotone along
the run. Everyone joins there, so the reachable run splits into at most
a passing and a failing stretch. Each stretch is found by bisection and
reported as one :class:`CheckRecord` spanning ``level..last_level``, with
its worst margin and its summed mass.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from ..codec import Wire, decode
from ..model import RewardCost, ValidatedModel
from ..strategies import Strategy, format_strategy
from .balance import bisect_first, solve_truncated_balance

#: Sign tolerance for the best-response inequalities.
VERIFY_TOLERANCE = 1e-8

#: Levels with less stationary mass than this are treated as unreachable.
MASS_FLOOR = 1e-9


@dataclass(frozen=True)
class CheckRecord(Wire):
    """Best-response check over the reachable levels ``level..last_level``.

    A single level has ``last_level == level``. Over a stretch of the
    constant-step run, ``mass`` is the stretch's summed mass, and
    ``net_benefit`` and ``margin`` are taken at its worst level.
    """

    level: int
    last_level: int
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
                       tol: float = VERIFY_TOLERANCE) -> VerificationReport:
    """Check the equilibrium sign pattern at every reachable level.

    A level counts as reachable when its stationary mass under the
    strategy is at least ``MASS_FLOOR``. At each such level the expected
    sojourn is the arrival-weighted mixture of the per-environment mean
    clearing times, and the margin is the distance to the nearest
    violated inequality (negative when violated).
    """
    p = model.params
    lam = (p.lambda1, p.lambda2)
    mean_s = model.mean_clearing
    solution = solve_truncated_balance(model, strategy)

    def check(n: int) -> CheckRecord:
        m1, m2 = solution.row(n)
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
        return CheckRecord(level=n, last_level=n, join_prob=jp, mass=m1 + m2,
                           net_benefit=net, margin=margin, ok=margin >= 0.0)

    def stretch(first: int, last: int) -> CheckRecord:
        worst = min(check(first), check(last), key=lambda c: c.margin)
        mass = sum(solution.tail_row(first)) - sum(solution.tail_row(last + 1))
        return dataclasses.replace(worst, level=first, last_level=last, mass=mass)

    def mass(n: int) -> float:
        return sum(solution.row(n))

    checks = [check(n) for n in range(solution.run_start) if mass(n) >= MASS_FLOOR]
    first, last = solution.run_start, solution.level - 1
    if first <= last:
        peak = bisect_first(lambda n: mass(n + 1) < mass(n), first, last)
        if mass(peak) >= MASS_FLOOR:
            lo = bisect_first(lambda n: mass(n) >= MASS_FLOOR, first, peak)
            hi = bisect_first(lambda n: mass(n) < MASS_FLOOR, peak, last + 1) - 1
            ok = check(lo).ok
            cut = bisect_first(lambda n: check(n).ok != ok, lo, hi + 1)
            checks.append(stretch(lo, cut - 1))
            if cut <= hi:
                checks.append(stretch(cut, hi))
    if mass(solution.level) >= MASS_FLOOR:
        checks.append(check(solution.level))

    return VerificationReport(
        strategy=format_strategy(strategy),
        passed=all(c.ok for c in checks),
        checks=tuple(checks),
        tolerance=tol,
        mass_floor=MASS_FLOOR,
    )

