"""Stationary distribution by a forward level recursion of the balance equations.

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
* top level ``N``: ``p(N) [diag(mu + q) - S] = p(N-1) diag(lambda j(N-1))``.

The top level holds exactly the untruncated mass at levels ``>= N``,
because clearing does not depend on the level. So the lower levels are
exact at every ``N`` and the total is 1 without renormalising, and one
forward pass finds the first ``N`` whose top mass meets the tail target.
Each 2x2 solve involves only positive terms, so there is no cancellation
(the matrix-geometric structure of Neuts, 1981).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConsistencyError, SingularSystem
from ..model import ValidatedModel
from ..strategies import Strategy

#: Hard cap on the automatically chosen truncation level.
LEVEL_LIMIT = 1 << 20

#: Automatic truncation stops at the first level whose top mass is below this.
TAIL_TARGET = 1e-12


@dataclass(frozen=True)
class TruncatedSolution:
    """Solution of the truncated balance equations.

    ``masses[n, e]`` is the stationary probability of level ``n`` in
    environment ``e + 1`` for ``n <= level``; ``residual`` is the largest
    balance-equation violation of the returned vector, and ``tail_mass``
    estimates the probability beyond the truncation (exactly 0.0 when the
    strategy's support ends at or below ``level``).
    """

    level: int
    masses: np.ndarray
    residual: float
    tail_mass: float

    def pmf(self, n: int, env: int) -> float:
        if not 1 <= env <= 2:
            raise ValueError(f"environment must be 1 or 2, got {env}")
        if n < 0 or n > self.level:
            return 0.0
        return float(self.masses[n, env - 1])

    def env_marginal(self, env: int) -> float:
        if not 1 <= env <= 2:
            raise ValueError(f"environment must be 1 or 2, got {env}")
        return float(self.masses[:, env - 1].sum())

    def tail(self, m: int, env: int) -> float:
        """Mass at levels >= m in the given environment (within truncation)."""
        if not 1 <= env <= 2:
            raise ValueError(f"environment must be 1 or 2, got {env}")
        if m > self.level:
            return 0.0
        return float(self.masses[max(m, 0):, env - 1].sum())

    def total_mass(self) -> float:
        return float(self.masses.sum())


def _balance_residual(model: ValidatedModel, masses: np.ndarray,
                      joins: np.ndarray) -> float:
    """Largest |inflow - outflow| over the states of the truncated chain."""
    p = model.params
    lam = np.array([p.lambda1, p.lambda2])
    mu = np.array([p.mu1, p.mu2])
    q = np.array([p.q12, p.q21])
    arrive = masses * lam * joins[:, None]
    outflow = arrive + masses * q
    outflow[1:] += masses[1:] * mu
    inflow = masses[:, ::-1] * q[::-1]
    inflow[1:] += arrive[:-1]
    inflow[0] += masses[1:].sum(axis=0) * mu
    return float(np.max(np.abs(inflow - outflow)))


def solve_truncated_balance(model: ValidatedModel, strategy: Strategy,
                            level: int | None = None) -> TruncatedSolution:
    """Solve the balance equations truncated at ``level``.

    With ``level=None`` the truncation is chosen automatically: the
    strategy's support bound plus a margin of two when joining stops at
    some finite level, otherwise the first level whose top mass falls
    below ``TAIL_TARGET``.

    Raises:
        SingularSystem: If a level mass comes out non-finite.
        ConsistencyError: If clearing is so slow that the top mass is still
            above ``TAIL_TARGET`` at ``LEVEL_LIMIT``.
    """
    p = model.params
    lam1, lam2, mu1, mu2, q12, q21 = p.lambda1, p.lambda2, p.mu1, p.mu2, p.q12, p.q21
    bound = strategy.support_bound()
    adaptive = level is None and bound is None
    if level is None:
        level = LEVEL_LIMIT if bound is None else bound + 2

    # p(n) [diag(c + q) - S] = y solves as x1 = (y1 (c2 + q21) + y2 q21) / det,
    # x2 = (y2 (c1 + q12) + y1 q12) / det with det = c1 c2 + c1 q21 + c2 q12.
    top_det = mu1 * mu2 + mu1 * q21 + mu2 * q12
    y1, y2 = model.env_stationary[0] * mu1, model.env_stationary[1] * mu2
    rows: list[tuple[float, float]] = []
    joins: list[float] = []
    for n in range(level + 1):
        # mass at levels >= n if arrivals out of level n were suppressed
        t1 = (y1 * (mu2 + q21) + y2 * q21) / top_det
        t2 = (y2 * (mu1 + q12) + y1 * q12) / top_det
        if n == level or (adaptive and t1 + t2 < TAIL_TARGET):
            break
        j = strategy.join_prob(n)
        c1, c2 = mu1 + lam1 * j, mu2 + lam2 * j
        det = c1 * c2 + c1 * q21 + c2 * q12
        x1 = (y1 * (c2 + q21) + y2 * q21) / det
        x2 = (y2 * (c1 + q12) + y1 * q12) / det
        rows.append((x1, x2))
        joins.append(j)
        y1, y2 = x1 * lam1 * j, x2 * lam2 * j
    top = t1 + t2
    if adaptive and top >= TAIL_TARGET:
        raise ConsistencyError(
            f"clearing is too slow to truncate: at level {n} the mass "
            f"{top!r} is still left at and above it, over the tail target "
            f"{TAIL_TARGET!r}")
    rows.append((t1, t2))
    joins.append(0.0)

    masses = np.array(rows)
    if not np.isfinite(masses).all():
        raise SingularSystem(f"balance recursion gave a non-finite mass by level {n}")
    residual = _balance_residual(model, masses, np.array(joins))
    exact = bound is not None and n >= bound
    return TruncatedSolution(level=n, masses=masses, residual=residual,
                             tail_mass=0.0 if exact else top)
