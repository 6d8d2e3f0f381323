"""Stationary distribution from the balance equations: a level recursion and a constant step.

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

One path serves every strategy. Levels 0 and 1 are walked, then comes
the stretch of certain joining that ``certain_until`` ends, then the
levels left up to ``N``. Along the stretch ``p(n) A = p(n-1) diag(lambda)``
with ``A = diag(lambda + mu + q) - S``, so ``p(n) = p(1) T^(n-1)`` with
``T = diag(lambda) A^-1``, the matrix-geometric form of Neuts (1981). With
``T = rho1 P1 + rho2 P2`` split into eigenvalues and eigenprojectors, this
run is ``p(1 + k) = w1 rho1^k + w2 rho2^k`` with ``w_i = p(1) P_i``, O(1)
at any level (:func:`constant_step`). A bounded strategy's ``N`` is its
bound plus two. An unbounded one joins with certainty from level 1 on, so
its run reaches ``N``; its tail ``p(m) (I - T)^-1`` is ``p(m-1) diag(lambda)
B^-1``, since ``(I - T)^-1 = A B^-1``, and summed it is ``c1 rho1^k + c2
rho2^k`` with ``c1 >= 0``: the automatic ``N`` lies between two logarithms,
and one bisection finds it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConsistencyError, FloatRangeError, SingularSystem
from ..model import ModelParams, ValidatedModel, env_index
from ..strategies import Strategy, certain_until

#: Automatic truncation stops at the first level whose tail mass is below this.
TAIL_TARGET = 1e-12

Vec = tuple[float, float]
#: A 2x2 matrix, row-major.
Mat = tuple[float, float, float, float]


def _vecmat(v: Vec, m: Mat) -> Vec:
    return (v[0] * m[0] + v[1] * m[2], v[0] * m[1] + v[1] * m[3])


def _inverse(c1: float, c2: float, q12: float, q21: float) -> Mat:
    """``[diag(c + q) - S]^-1``; every entry is positive."""
    det = c1 * c2 + c1 * q21 + c2 * q12
    return ((c2 + q21) / det, q12 / det, q21 / det, (c1 + q12) / det)


class _Run(NamedTuple):
    """``v T^k = w1 rho1^k + w2 rho2^k`` for the level mass ``v = w1 + w2`` it starts from."""

    w1: Vec
    w2: Vec
    log_rho1: float
    log_rho2: float

    def at(self, k: int) -> Vec:
        g1, g2 = math.exp(k * self.log_rho1), math.exp(k * self.log_rho2)
        return (self.w1[0] * g1 + self.w2[0] * g2, self.w1[1] * g1 + self.w2[1] * g2)


def constant_step(p: ModelParams, start: Vec) -> _Run:
    """The run from ``start`` under ``T = rho1 P1 + rho2 P2``, ``rho1 > rho2``, ``w_i = start P_i``.

    All come without cancellation from ``M = det(A) (I - T) = B adj(A)``:
    its diagonal is positive, its off-diagonal entries are ``-q12 lambda1``
    and ``-q21 lambda2``, ``det M = K det(A)``, and its discriminant is
    ``gap^2 + 4 lambda1 lambda2 q12 q21``. Its eigenvalues ``m1 < m2`` give
    ``rho_i = 1 - m_i / det(A)``, taken as ``-log1p((1 - rho_i) / rho_i)``
    so that rho near 1 and near 0 keep their digits, and
    ``P1 = (m2 I - M) / (m2 - m1)`` is nonnegative. ``T`` depends on the
    ratios of the rates only, so a power of two, which keeps every digit,
    scales the largest rate to 2^250, where no product of four overflows.
    """
    rates = (p.lambda1, p.lambda2, p.mu1, p.mu2, p.q12, p.q21)
    shift = 250 - math.frexp(max(rates))[1]
    lam1, lam2, mu1, mu2, q12, q21 = (math.ldexp(rate, shift) for rate in rates)
    a11, a22 = lam1 + mu1 + q12, lam2 + mu2 + q21
    det_a = (lam1 + mu1) * a22 + q12 * (lam2 + mu2)
    coupling = 4.0 * lam1 * lam2 * q12 * q21
    gap = lam2 * (mu1 + q12) - lam1 * (mu2 + q21)
    root = math.sqrt(gap * gap + coupling)
    m2 = (mu1 * a22 + q12 * (lam2 + mu2) + mu2 * a11 + q21 * (lam1 + mu1) + root) / 2.0
    m1 = (mu1 * mu2 + mu1 * q21 + mu2 * q12) / m2 * det_a
    scaled_rho1 = (lam1 * a22 + lam2 * a11 + root) / 2.0
    # (root - |gap|)/2 without the cancellation
    near, far = coupling / 2.0 / (root + abs(gap)), (root + abs(gap)) / 2.0
    diagonal = (near, far) if gap >= 0.0 else (far, near)
    w1 = _vecmat(start, (diagonal[0] / root, q12 * lam1 / root, q21 * lam2 / root,
                         diagonal[1] / root))
    return _Run(w1, (start[0] - w1[0], start[1] - w1[1]), -math.log1p(m1 / scaled_rho1),
                -math.log1p(m2 * scaled_rho1 / det_a / lam1 / lam2))


@dataclass(frozen=True)
class TruncatedSolution:
    """Solution of the balance equations truncated at ``level``.

    ``pmf(n, env)`` is the stationary probability of level ``n`` in
    environment ``env`` for ``n <= level``, where level ``level`` holds the
    whole mass at and above it; ``residual`` is the largest balance-equation
    violation of the solution over the levels listed in :func:`_residual`,
    and ``tail_mass`` is the mass at and above the truncation level
    (exactly 0.0 when the strategy's support ends at or below ``level``).

    Levels ``0..run_start - 1`` (``head``) and ``run_end..level`` (``cap``)
    are walked, with the mass at and above each and at ``run_start`` in
    ``head_tails`` and ``cap_tails``. Each level between them is the one
    before times the constant step ``T``, in closed form (``run``), and
    ``tail_map`` maps it to the mass above it. ``masses`` is the full
    ``(level + 1, 2)`` array of ``row``, built on first use.
    """

    level: int
    residual: float
    tail_mass: float
    head: tuple[Vec, ...]
    head_tails: tuple[Vec, ...]
    cap: tuple[Vec, ...]
    cap_tails: tuple[Vec, ...]
    run: _Run | None = field(default=None, repr=False)
    tail_map: Mat | None = field(default=None, repr=False)

    @property
    def run_start(self) -> int:
        """First level of the constant-step run."""
        return len(self.head)

    @property
    def run_end(self) -> int:
        """First level of the cap; ``run_start`` when the run is empty."""
        return self.level + 1 - len(self.cap)

    def row(self, n: int) -> Vec:
        """``(p(n, 1), p(n, 2))``; zero outside ``0..level``."""
        if n < 0 or n > self.level:
            return (0.0, 0.0)
        if n < self.run_start:
            return self.head[n]
        if n < self.run_end:
            return self.run.at(n - self.run_start + 1)
        return self.cap[n - self.run_end]

    def tail_row(self, m: int) -> Vec:
        """Mass at levels ``>= m`` in each environment."""
        if m > self.level:
            return (0.0, 0.0)
        if m >= self.run_end:
            return self.cap_tails[m - self.run_end]
        if m <= self.run_start:
            return self.head_tails[max(m, 0)]
        return _vecmat(self.row(m - 1), self.tail_map)

    def pmf(self, n: int, env: int) -> float:
        return self.row(n)[env_index(env)]

    def tail(self, m: int, env: int) -> float:
        """Mass at levels >= m in the given environment (within truncation)."""
        return self.tail_row(m)[env_index(env)]

    def total_mass(self) -> float:
        """Sum of the stored levels and the tail after them: 1 up to rounding."""
        return sum(map(sum, self.head)) + sum(self.tail_row(self.run_start))

    @functools.cached_property
    def masses(self) -> np.ndarray:
        """``masses[n, e]`` is ``pmf(n, e + 1)``: linear in ``level``, which ``pmf`` is not."""
        return np.array([self.row(n) for n in range(self.level + 1)])


def _walk(p: ModelParams, strategy: Strategy, inv_b: Mat, y: Vec,
          levels: range) -> tuple[list[Vec], list[Vec], Vec]:
    """Rows of ``levels`` from ``y``, the driver of the first; tails to one past; next driver."""
    lam1, lam2, mu1, mu2, q12, q21 = p.lambda1, p.lambda2, p.mu1, p.mu2, p.q12, p.q21
    rows, tails = [], []
    for n in levels:
        tails.append(_vecmat(y, inv_b))
        j = strategy.join_prob(n)
        x = _vecmat(y, _inverse(mu1 + lam1 * j, mu2 + lam2 * j, q12, q21))
        rows.append(x)
        y = (x[0] * lam1 * j, x[1] * lam2 * j)
    tails.append(_vecmat(y, inv_b))
    return rows, tails, y


def _residual(model: ValidatedModel, strategy: Strategy, sol: TruncatedSolution) -> float:
    """Largest |inflow - outflow| of ``sol`` on the truncated chain.

    Evaluated at every walked level, the last run level and the run levels
    ``1 + 2^k``. The run's levels share one equation, ``p(n) A = p(n-1)
    diag(lambda)``, but each takes its own powers ``rho^k`` as ``exp(k log
    rho)``, whose rounding grows with ``k``; ``1 + 2^k`` samples every scale.
    """
    p = model.params
    lam, mu, q = (p.lambda1, p.lambda2), (p.mu1, p.mu2), (p.q12, p.q21)
    top = sol.level

    def join(n: int) -> float:
        return 0.0 if n == top else strategy.join_prob(n)

    p0, inflow = sol.row(0), sol.tail_row(1)
    worst = max(abs(p0[e] * (lam[e] * join(0) + q[e]) - p0[1 - e] * q[1 - e]
                    - mu[e] * inflow[e]) for e in (0, 1))
    levels = (set(range(1, sol.run_start + 1)) | set(range(sol.run_end - 1, top + 1))
              | {1 + (1 << k) for k in range(top.bit_length()) if 1 + (1 << k) < top})
    for n in levels - {-1, 0}:
        prev, cur, j_prev, j = sol.row(n - 1), sol.row(n), join(n - 1), join(n)
        worst = max(worst, *(abs(cur[e] * (lam[e] * j + mu[e] + q[e]) - cur[1 - e] * q[1 - e]
                                 - prev[e] * lam[e] * j_prev) for e in (0, 1)))
    return worst


def _truncation_level(run: _Run, tails: list[Vec], tail_map: Mat) -> int:
    """The first level whose tail, ``p(m - 1) diag(lambda) B^-1`` summed, is below ``TAIL_TARGET``.

    Levels up to ``start = len(tails) - 1`` read the stored tails. After
    them the tail is ``c1 rho1^k + c2 rho2^k`` (``k = m - start``, ``c1 >= 0``),
    between ``(c1 + min(c2, 0)) rho1^k`` and ``(c1 + max(c2, 0)) rho1^k``;
    the bisection runs between the logarithms where those pass the target.

    Raises:
        FloatRangeError: If that level is past the range of floats.
    """
    start = len(tails) - 1
    c1, c2 = (sum(_vecmat(w, tail_map)) for w in (run.w1, run.w2))

    def passes(scale: float) -> int:   # the first k with scale * rho1^k < TAIL_TARGET
        if scale < TAIL_TARGET:
            return 0
        k = math.log(TAIL_TARGET / scale) / run.log_rho1
        if not math.isfinite(k):
            raise FloatRangeError(f"the truncation level is {k!r}, past the range of floats")
        return math.floor(k) + 1

    def tail(m: int) -> float:
        return sum(tails[m]) if m <= start else sum(_vecmat(run.at(m - start), tail_map))

    lo, hi = passes(c1 + min(c2, 0.0)), passes(c1 + max(c2, 0.0))
    # one level of slack at each end for the rounding of the bounds
    return bisect_first(lambda m: tail(m) < TAIL_TARGET, start + lo - 1 if lo else 0,
                        start + hi + 2)


def solve_truncated_balance(model: ValidatedModel, strategy: Strategy) -> TruncatedSolution:
    """Solve the balance equations truncated at an automatic level.

    The level is the strategy's support bound plus a margin of two when
    joining stops at some finite level, otherwise the first level whose
    tail mass is below ``TAIL_TARGET``.

    Raises:
        SingularSystem: If a level mass comes out non-finite.
        ConsistencyError: If a strategy without a support bound does not
            join with certainty from level 1 on.
        FloatRangeError: If the constant step or the automatic level is past
            the range of floats.
    """
    p = model.params
    inv_b = _inverse(p.mu1, p.mu2, p.q12, p.q21)
    tail_map = (p.lambda1 * inv_b[0], p.lambda1 * inv_b[1],
                p.lambda2 * inv_b[2], p.lambda2 * inv_b[3])
    drive = (model.env_stationary[0] * p.mu1, model.env_stationary[1] * p.mu2)   # of level 0
    head, head_tails, y = _walk(p, strategy, inv_b, drive, range(2))
    try:   # both terms of the discriminant underflow where rates lie some 1e160 apart
        run = constant_step(p, head[-1])
    except ZeroDivisionError:
        raise FloatRangeError("the constant step's discriminant underflows to 0.0") from None
    bound = strategy.support_bound()
    level = bound + 2 if bound is not None else _truncation_level(run, head_tails, tail_map)
    if level < len(head):   # the tail is below the target by level 1
        head, head_tails, y = _walk(p, strategy, inv_b, drive, range(level))
    end = certain_until(strategy, min(level, 1), level)
    if bound is None and end < level:
        raise ConsistencyError(f"strategy {strategy!r} has no support bound but joins with "
                               f"probability {strategy.join_prob(end)!r} at level {end}; the "
                               "constant tail step needs certain joining from level 1 on")
    end = max(len(head), end)
    if end > len(head):
        x = run.at(end - len(head))   # p(end - 1), where joining is certain
        y = (x[0] * p.lambda1, x[1] * p.lambda2)
    cap, cap_tails, _ = _walk(p, strategy, inv_b, y, range(end, level))
    cap.append(cap_tails[-1])
    if not np.isfinite([*head, *cap]).all():
        raise SingularSystem(f"balance recursion gave a non-finite mass by level {level}")
    sol = TruncatedSolution(level=level, residual=0.0,
                            tail_mass=0.0 if bound is not None else sum(cap[-1]),
                            head=tuple(head), head_tails=tuple(head_tails), cap=tuple(cap),
                            cap_tails=tuple(cap_tails), run=run, tail_map=tail_map)
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

