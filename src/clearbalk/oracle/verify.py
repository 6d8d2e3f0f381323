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

The balance solve walks a head and a cap of levels, and these are
checked one by one. Between them lies its constant-step run, where
everyone joins and ``p(n) = p(n0) T^(n-n0)``. Both eigenvalues of ``T``
are positive, so each component of ``p(n)`` is ``a r1^n + b r2^n`` with
``0 < r2 < r1 < 1``: the level mass is unimodal, and the levels with mass
at least the floor form one interval. The ratio of the two components is
a Moebius function of ``(r2/r1)^n``, so the Palm weights, the net benefit
and the margin are monotone along the run, which splits into at most a
passing and a failing stretch. Each is found by bisection and reported
as one :class:`CheckRecord` spanning ``level..last_level``, with its
worst margin and its summed mass. A threshold's run is the whole stretch
below n0, so its report has at most six checks at any n0.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from ..codec import Wire
from ..model import RewardCost, ValidatedModel
from ..strategies import Strategy, format_strategy
from .balance import bisect_first, solve_truncated_balance

#: Sign band of the best-response inequalities, as a share of the reward R.
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


def verify_equilibrium(model: ValidatedModel, rc: RewardCost,
                       strategy: Strategy) -> VerificationReport:
    """Check the equilibrium sign pattern at every reachable level.

    A level counts as reachable when its stationary mass under the
    strategy is at least ``MASS_FLOOR``. At each such level the expected
    sojourn is the arrival-weighted mixture of the per-environment mean
    clearing times, and the margin is the distance to the nearest
    violated inequality (negative when violated), plus the band ``VERIFY_TOLERANCE``*R.
    """
    p = model.params
    lam = (p.lambda1, p.lambda2)
    mean_s = model.mean_clearing
    band = VERIFY_TOLERANCE * rc.reward
    solution = solve_truncated_balance(model, strategy)

    @functools.cache   # the bisections revisit levels
    def check(n: int) -> CheckRecord:
        m1, m2 = solution.row(n)
        w1, w2 = lam[0] * m1, lam[1] * m2
        sojourn = (w1 * mean_s[0] + w2 * mean_s[1]) / (w1 + w2)
        net = rc.reward - rc.cost * sojourn
        jp = strategy.join_prob(n)
        margin = band + (net if jp >= 1.0 else -net if jp <= 0.0 else -abs(net))
        return CheckRecord(level=n, last_level=n, join_prob=jp, mass=m1 + m2,
                           net_benefit=net, margin=margin, ok=margin >= 0.0)

    def stretch(first: int, last: int) -> CheckRecord:
        worst = min(check(first), check(last), key=lambda c: c.margin)
        mass = sum(solution.tail_row(first)) - sum(solution.tail_row(last + 1))
        return dataclasses.replace(worst, level=first, last_level=last, mass=mass)

    def mass(n: int) -> float:
        return sum(solution.row(n))

    checks = [check(n) for n in range(solution.run_start) if mass(n) >= MASS_FLOOR]
    first, last = solution.run_start, solution.run_end - 1
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
    checks += [check(n) for n in range(solution.run_end, solution.level + 1)
               if mass(n) >= MASS_FLOOR]

    return VerificationReport(strategy=format_strategy(strategy), passed=all(c.ok for c in checks),
                              checks=tuple(checks), tolerance=VERIFY_TOLERANCE,
                              mass_floor=MASS_FLOOR)

