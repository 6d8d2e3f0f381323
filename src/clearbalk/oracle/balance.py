"""Stationary distribution from the balance equations: a level recursion and a constant tail step.

This module never touches the spectral closed forms. It works from the
raw transition rates alone (arrival with the strategy's joining
probability, clearing back to an empty system, environment switch) on
the chain truncated at a level ``N``, where arrivals out of ``N`` are
suppressed.

Clearing sends every level back to 0 at a rate that does not depend on
the level, so the balance equations are a chain of 2x2 systems. With
``S`` the off-diagonal switch matrix, ``pi`` the environment's
stationary law and ``j(n)`` the joining probability at level ``n``:

* level 0: ``p(0) [diag(lambda j(0) + mu + q) - S] = pi diag(mu)``;
* level ``1 <= n < N``: ``p(n) [diag(lambda j(n) + mu + q) - S]
  = p(n-1) diag(lambda j(n-1))``;
* top level ``N``: ``p(N) B = p(N-1) diag(lambda j(N-1))`` with
  ``B = diag(mu + q) - S``.

The top equation is the sum of the untruncated equations from ``N`` on,
so the top level holds exactly the untruncated mass at levels ``>= N``,
the lower levels are exact at every ``N`` and the total is 1 without
renormalising. The same sum gives the mass at and above any level ``m >= 1``
as ``p(m-1) diag(lambda j(m-1)) B^-1``. Every 2x2 inverse involved has
positive entries, so there is no cancellation.

Constant tail step. Every strategy without a support bound joins with
certainty from level 1 on (see :mod:`clearbalk.strategies`), so for
``n >= 2`` the level equation is ``p(n) A = p(n-1) diag(lambda)`` with
``A = diag(lambda + mu + q) - S``, and ``p(n) = p(1) T^(n-1)`` with
``T = diag(lambda) A^-1``: the matrix-geometric form of Neuts (1981). ``T``
is positive, with ``det T > 0`` and ``tr T > 0``, so both its eigenvalues
are positive and below 1. Only levels 0 and 1 are solved by the recursion;
``p(n)`` comes from ``T^(n-1)`` by repeated squaring, and the tail
``p(m) (I - T)^-1`` is evaluated as ``p(m-1) diag(lambda) B^-1``, since
``(I - T)^-1 = A B^-1``. The automatic truncation level is found by a
doubling search and a bisection over the decreasing tail, each probe
reached with the powers ``T^(2^k)``, so no level between 2 and ``N`` is
walked. Strategies with a support bound keep the level recursion up to
the bound plus two.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConsistencyError, SingularSystem
from ..model import ValidatedModel
from ..strategies import Strategy

#: Hard cap on the automatically chosen truncation level.
LEVEL_LIMIT = 1 << 26

#: Automatic truncation stops at the first level whose tail mass is below this.
TAIL_TARGET = 1e-12

Vec = tuple[float, float]
#: A 2x2 matrix, row-major.
Mat = tuple[float, float, float, float]


def _vecmat(v: Vec, m: Mat) -> Vec:
    return (v[0] * m[0] + v[1] * m[2], v[0] * m[1] + v[1] * m[3])


def _matmul(x: Mat, y: Mat) -> Mat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _inverse(c1: float, c2: float, q12: float, q21: float) -> Mat:
    """``[diag(c + q) - S]^-1``; every entry is positive."""
    det = c1 * c2 + c1 * q21 + c2 * q12
    return ((c2 + q21) / det, q12 / det, q21 / det, (c1 + q12) / det)


def _squares(step: Mat, count: int) -> tuple[Mat, ...]:
    """``(T, T^2, T^4, ..., T^(2^(count-1)))`` for ``T = step``."""
    powers = [step]
    while len(powers) < count:
        powers.append(_matmul(powers[-1], powers[-1]))
    return tuple(powers)


def _advance(v: Vec, powers: tuple[Mat, ...], k: int) -> Vec:
    """``v T^k`` from ``powers[b] = T^(2^b)``, for ``k < 2^len(powers)``."""
    b = 0
    while k:
        if k & 1:
            v = _vecmat(v, powers[b])
        k >>= 1
        b += 1
    return v


@dataclass(frozen=True)
class TruncatedSolution:
    """Solution of the balance equations truncated at ``level``.

    ``pmf(n, env)`` is the stationary probability of level ``n`` in
    environment ``env`` for ``n <= level``, where level ``level`` holds the
    whole mass at and above it; ``residual`` is the largest balance-equation
    violation of the solution over the levels listed in :func:`_residual`,
    and ``tail_mass`` is the mass at and above the truncation level
    (exactly 0.0 when the strategy's support ends at or below ``level``).

    Levels below ``run_start`` are stored (``head``, with ``head_tails[m]``
    the mass at and above ``m`` for ``m <= run_start``). From ``run_start``
    to ``level - 1`` each level is the previous one times the constant
    step ``T = powers[0]``, and ``tail_map`` maps a level to the mass
    above it. ``masses`` is the full ``(level + 1, 2)`` array of ``row``,
    built on first use.
    """

    level: int
    residual: float
    tail_mass: float
    head: tuple[Vec, ...]
    head_tails: tuple[Vec, ...]
    top: Vec
    powers: tuple[Mat, ...] = field(default=(), repr=False)
    tail_map: Mat | None = field(default=None, repr=False)

    @property
    def run_start(self) -> int:
        """First level of the constant-step run (``level`` when there is none)."""
        return len(self.head)

    def row(self, n: int) -> Vec:
        """``(p(n, 1), p(n, 2))``; zero outside ``0..level``."""
        if n < 0 or n > self.level:
            return (0.0, 0.0)
        if n == self.level:
            return self.top
        if n < self.run_start:
            return self.head[n]
        return _advance(self.head[-1], self.powers, n - self.run_start + 1)

    def tail_row(self, m: int) -> Vec:
        """Mass at levels ``>= m`` in each environment."""
        if m > self.level:
            return (0.0, 0.0)
        if m <= self.run_start:
            return self.head_tails[max(m, 0)]
        if m == self.level:
            return self.top
        return _vecmat(self.row(m - 1), self.tail_map)

    def pmf(self, n: int, env: int) -> float:
        return self.row(n)[_env_index(env)]

    def env_marginal(self, env: int) -> float:
        return self.head_tails[0][_env_index(env)]

    def tail(self, m: int, env: int) -> float:
        """Mass at levels >= m in the given environment (within truncation)."""
        return self.tail_row(m)[_env_index(env)]

    def total_mass(self) -> float:
        """Sum of the stored levels and the tail after them: 1 up to rounding."""
        return sum(map(sum, self.head)) + sum(self.tail_row(self.run_start))

    @functools.cached_property
    def masses(self) -> np.ndarray:
        """``masses[n, e]`` is ``pmf(n, e + 1)`` for ``n <= level``.

        Time and memory are linear in ``level``; ``pmf`` and ``tail`` need
        neither.
        """
        return np.array([self.row(n) for n in range(self.level + 1)])


def _env_index(env: int) -> int:
    if not 1 <= env <= 2:
        raise ValueError(f"environment must be 1 or 2, got {env}")
    return env - 1


def _walk(model: ValidatedModel, strategy: Strategy, inv_b: Mat,
          count: int) -> tuple[list[Vec], list[Vec]]:
    """Levels ``0..count-1`` by the level recursion, and the tails ``0..count``."""
    p = model.params
    lam1, lam2, mu1, mu2, q12, q21 = p.lambda1, p.lambda2, p.mu1, p.mu2, p.q12, p.q21
    # y(n-1) = p(n-1) diag(lambda j(n-1)) drives level n; pi diag(mu) drives level 0
    y = (model.env_stationary[0] * mu1, model.env_stationary[1] * mu2)
    rows: list[Vec] = []
    tails: list[Vec] = []
    for n in range(count):
        tails.append(_vecmat(y, inv_b))
        j = strategy.join_prob(n)
        x = _vecmat(y, _inverse(mu1 + lam1 * j, mu2 + lam2 * j, q12, q21))
        rows.append(x)
        y = (x[0] * lam1 * j, x[1] * lam2 * j)
    tails.append(_vecmat(y, inv_b))
    return rows, tails


def _residual(model: ValidatedModel, strategy: Strategy, sol: TruncatedSolution) -> float:
    """Largest |inflow - outflow| of ``sol`` on the truncated chain.

    Evaluated at level 0, every stored level, the last two levels and the
    run levels ``1 + 2^k``. The levels of the constant-step run share one
    equation, ``p(n) A = p(n-1) diag(lambda)``, but each level comes from
    its own product of the powers ``T^(2^b)``; at ``n = 1 + 2^k`` one
    squared power meets the product of all the smaller ones, which exposes
    the drift of the squaring at every scale of ``n``.
    """
    p = model.params
    lam, mu, q = (p.lambda1, p.lambda2), (p.mu1, p.mu2), (p.q12, p.q21)
    top = sol.level

    def join(n: int) -> float:
        return 0.0 if n == top else strategy.join_prob(n)

    p0, inflow = sol.row(0), sol.tail_row(1)
    worst = max(abs(p0[e] * (lam[e] * join(0) + q[e]) - p0[1 - e] * q[1 - e]
                    - mu[e] * inflow[e]) for e in (0, 1))
    levels = (set(range(1, min(sol.run_start, top) + 1)) | {top - 1, top}
              | {1 + (1 << k) for k in range(top.bit_length()) if 1 + (1 << k) < top})
    for n in levels - {-1, 0}:
        prev, cur, j_prev, j = sol.row(n - 1), sol.row(n), join(n - 1), join(n)
        worst = max(worst, *(abs(cur[e] * (lam[e] * j + mu[e] + q[e]) - cur[1 - e] * q[1 - e]
                                 - prev[e] * lam[e] * j_prev) for e in (0, 1)))
    return worst


def _require_certain_join(strategy: Strategy, n: int) -> None:
    """Spot-check the invariant the constant tail step rests on, at level ``n``.

    Every family in :mod:`clearbalk.strategies` without a support bound
    joins with certainty from level 1 on (a test pins this), so the guard
    can only fire for a strategy from outside them; it probes levels 1 and
    ``N - 1``, not every level between.
    """
    j = strategy.join_prob(n)
    if j != 1.0:
        raise ConsistencyError(
            f"strategy {strategy!r} has no support bound but joins with probability "
            f"{j!r} at level {n}; the constant tail step needs certain joining "
            f"from level 1 on")


def solve_truncated_balance(model: ValidatedModel, strategy: Strategy,
                            level: int | None = None) -> TruncatedSolution:
    """Solve the balance equations truncated at ``level``.

    With ``level=None`` the truncation is chosen automatically: the
    strategy's support bound plus a margin of two when joining stops at
    some finite level, otherwise the first level whose tail mass is below
    ``TAIL_TARGET``.

    Raises:
        SingularSystem: If a level mass comes out non-finite.
        ConsistencyError: If clearing is so slow that the tail mass is
            still above ``TAIL_TARGET`` at ``LEVEL_LIMIT``, or if a strategy
            without a support bound does not join with certainty from
            level 1 on.
    """
    p = model.params
    lam1, lam2, mu1, mu2, q12, q21 = p.lambda1, p.lambda2, p.mu1, p.mu2, p.q12, p.q21
    inv_b = _inverse(mu1, mu2, q12, q21)
    bound = strategy.support_bound()
    powers: tuple[Mat, ...] = ()
    tail_map = None
    if bound is not None:
        n = bound + 2 if level is None else level
        head, tails = _walk(model, strategy, inv_b, n)
    else:
        _require_certain_join(strategy, 1)
        head, tails = _walk(model, strategy, inv_b, 2 if level is None else min(level, 2))
        a_inv = _inverse(mu1 + lam1, mu2 + lam2, q12, q21)
        step = (lam1 * a_inv[0], lam1 * a_inv[1], lam2 * a_inv[2], lam2 * a_inv[3])
        powers = _squares(step, max(LEVEL_LIMIT, level or 0).bit_length())
        tail_map = (lam1 * inv_b[0], lam1 * inv_b[1], lam2 * inv_b[2], lam2 * inv_b[3])
        n = level
        if n is None:
            def tail(m: int) -> float:
                # p(m - 1) diag(lambda) B^-1, with p(m - 1) = p(1) T^(m - 2)
                if m < len(tails):
                    return sum(tails[m])
                return sum(_vecmat(_advance(head[1], powers, m - 2), tail_map))

            n = search_first(lambda m: tail(m) < TAIL_TARGET, LEVEL_LIMIT)
            if n > LEVEL_LIMIT:
                raise ConsistencyError(
                    f"clearing is too slow to truncate: at level {LEVEL_LIMIT} the mass "
                    f"{tail(LEVEL_LIMIT)!r} is still left at and above it, over the tail "
                    f"target {TAIL_TARGET!r}")
        head, tails = head[:n], tails[:n + 1]
        _require_certain_join(strategy, max(n - 1, 1))
    if len(head) < n:
        top = _vecmat(_advance(head[-1], powers, n - len(head)), tail_map)
    else:
        top = tails[n]
    if not np.isfinite([*head, top]).all():
        raise SingularSystem(f"balance recursion gave a non-finite mass by level {n}")
    exact = bound is not None and n >= bound
    sol = TruncatedSolution(level=n, residual=0.0, tail_mass=0.0 if exact else sum(top),
                            head=tuple(head), head_tails=tuple(tails), top=top,
                            powers=powers, tail_map=tail_map)
    return dataclasses.replace(sol, residual=_residual(model, strategy, sol))


def bisect_first(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest ``n`` in ``[lo, hi)`` with ``pred(n)``, else ``hi``; ``pred`` turns true once."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def search_first(pred: Callable[[int], bool], limit: int) -> int:
    """Smallest ``n`` in ``[0, limit]`` with ``pred(n)``, else ``limit + 1``.

    ``pred`` turns true once. Doubling, then bisection: about ``2 log2(n)`` probes.
    """
    hi = 1
    while hi < limit and not pred(hi):
        hi = min(2 * hi, limit)
    return bisect_first(pred, hi // 2, hi + 1)
