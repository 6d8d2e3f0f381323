"""Event-driven simulation of the level/environment chain.

Each replication runs an exponential race among arrival, clearing, and
environment switch, with the arriving customer joining according to the
strategy's probability at the observed level. Clearings remove every
present customer at once, which is what makes a joiner's realized
sojourn simply the time to the next clearing. Statistics are collected
after a warm-up fraction of the horizon and merged across replications
in index order, so identical inputs give bit-identical estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import Wire
from ..model import RewardCost, ValidatedModel
from ..strategies import Strategy, format_strategy

_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class SimEstimates(Wire):
    """Cross-replication estimates with standard errors.

    Arrays indexed by level hold rows 0..track_levels plus one final
    lump row for everything above. ``palm_env[n]`` is the frequency of
    each environment among arrivals that observed level n; sojourn rows
    are conditional means for joiners (NaN where never observed).
    ``net_benefit_by_level`` is reward minus cost times the sojourn
    estimate.
    """

    strategy: str
    seed: int
    replications: int
    horizon: float
    warm_fraction: float
    track_levels: int
    event_count: int
    masses: np.ndarray
    masses_se: np.ndarray
    palm_env: np.ndarray
    palm_env_se: np.ndarray
    sojourn_by_level: np.ndarray
    sojourn_by_level_se: np.ndarray
    sojourn_by_env: np.ndarray
    sojourn_by_env_se: np.ndarray
    net_benefit_by_level: np.ndarray
    net_benefit_by_level_se: np.ndarray

    def pmf(self, n: int, env: int) -> float:
        """Estimated stationary mass of (n, env); lump row excluded."""
        if not 1 <= env <= 2:
            raise ValueError(f"environment must be 1 or 2, got {env}")
        if n < 0 or n > self.track_levels:
            raise ValueError(f"level {n} is outside the tracked range")
        return float(self.masses[n, env - 1])

    def pmf_se(self, n: int, env: int) -> float:
        if not 1 <= env <= 2:
            raise ValueError(f"environment must be 1 or 2, got {env}")
        return float(self.masses_se[n, env - 1])


def _run_replication(model: ValidatedModel, strategy: Strategy, horizon: float,
                     rng: np.random.Generator, warm_fraction: float,
                     track_levels: int):
    p = model.params
    lam = (p.lambda1, p.lambda2)
    mu = (p.mu1, p.mu2)
    switch = (p.q12, p.q21)
    totals = (lam[0] + mu[0] + switch[0], lam[1] + mu[1] + switch[1])
    inv_totals = (1.0 / totals[0], 1.0 / totals[1])

    lump = track_levels + 1
    occ = np.zeros((lump + 1, 2))
    palm = np.zeros((lump + 1, 2))
    soj_sum_level = np.zeros(lump + 1)
    soj_cnt_level = np.zeros(lump + 1)
    soj_sum_env = np.zeros(2)
    soj_cnt_env = np.zeros(2)

    join_prob = strategy.join_prob
    warm = warm_fraction * horizon
    t = 0.0
    level = 0
    env = 0
    events = 0
    # joiners pending the next clearing: (join time, observed row, env)
    pending: list[tuple[float, int, int]] = []

    exps: list[float] = []
    unis: list[float] = []
    ie = len(exps)
    iu = len(unis)
    lam_e, mu_e, tot_e, inv_e = lam[0], mu[0], totals[0], inv_totals[0]

    while True:
        if ie == len(exps):
            exps = rng.exponential(size=_BLOCK).tolist()
            ie = 0
        dt = exps[ie] * inv_e
        ie += 1
        t_next = t + dt
        start = t if t > warm else warm
        if t_next >= horizon:
            if horizon > start:
                occ[level if level <= track_levels else lump, env] += horizon - start
            break
        if t_next > start:
            occ[level if level <= track_levels else lump, env] += t_next - start
        t = t_next
        events += 1

        if iu == len(unis):
            unis = rng.random(size=_BLOCK).tolist()
            iu = 0
        u = unis[iu] * tot_e
        iu += 1

        if u < lam_e:
            row = level if level <= track_levels else lump
            if t >= warm:
                palm[row, env] += 1.0
            jp = join_prob(level)
            if jp >= 1.0:
                joined = True
            elif jp <= 0.0:
                joined = False
            else:
                if iu == len(unis):
                    unis = rng.random(size=_BLOCK).tolist()
                    iu = 0
                joined = unis[iu] < jp
                iu += 1
            if joined:
                pending.append((t, row, env))
                level += 1
        elif u < lam_e + mu_e:
            if level:
                for tau, row, e0 in pending:
                    if tau >= warm:
                        s = t - tau
                        soj_sum_level[row] += s
                        soj_cnt_level[row] += 1.0
                        soj_sum_env[e0] += s
                        soj_cnt_env[e0] += 1.0
                pending.clear()
                level = 0
        else:
            env = 1 - env
            lam_e, mu_e, tot_e, inv_e = lam[env], mu[env], totals[env], inv_totals[env]

    measured = occ.sum()
    with np.errstate(invalid="ignore", divide="ignore"):
        masses = occ / measured
        palm_rows = palm.sum(axis=1, keepdims=True)
        palm_freq = np.where(palm_rows > 0.0, palm / np.maximum(palm_rows, 1.0), np.nan)
        soj_level = np.where(soj_cnt_level > 0.0,
                             soj_sum_level / np.maximum(soj_cnt_level, 1.0), np.nan)
        soj_env = np.where(soj_cnt_env > 0.0,
                           soj_sum_env / np.maximum(soj_cnt_env, 1.0), np.nan)
    return masses, palm_freq, soj_level, soj_env, events


def _merge(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error across replications, NaN-aware."""
    valid = ~np.isnan(stack)
    count = valid.sum(axis=0)
    safe = np.maximum(count, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        total = np.where(valid, stack, 0.0).sum(axis=0)
        mean = np.where(count > 0, total / safe, np.nan)
        dev = np.where(valid, stack - mean, 0.0)
        var = np.where(count > 1, (dev ** 2).sum(axis=0) / np.maximum(count - 1, 1),
                       np.nan)
        se = np.sqrt(var / safe)
    return mean, se


def simulate(model: ValidatedModel, rc: RewardCost, strategy: Strategy,
             horizon: float = 1e5, seed: int = 0, replications: int = 16,
             warm_fraction: float = 0.1, track_levels: int = 40) -> SimEstimates:
    """Estimate stationary and arrival statistics by simulation.

    Output is bit-identical for identical (seed, replications, horizon)
    because each replication owns a stream spawned from the master seed
    and the merge folds replications in index order.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if not 0.0 <= warm_fraction < 1.0:
        raise ValueError("warm_fraction must lie in [0, 1)")

    streams = np.random.SeedSequence(seed).spawn(replications)
    masses_r, palm_r, sojl_r, soje_r = [], [], [], []
    events = 0
    for child in streams:
        rng = np.random.default_rng(child)
        masses, palm, sojl, soje, n_events = _run_replication(
            model, strategy, horizon, rng, warm_fraction, track_levels)
        masses_r.append(masses)
        palm_r.append(palm)
        sojl_r.append(sojl)
        soje_r.append(soje)
        events += n_events

    masses, masses_se = _merge(np.stack(masses_r))
    palm, palm_se = _merge(np.stack(palm_r))
    sojl, sojl_se = _merge(np.stack(sojl_r))
    soje, soje_se = _merge(np.stack(soje_r))
    net = rc.reward - rc.cost * sojl
    net_se = rc.cost * sojl_se

    return SimEstimates(
        strategy=format_strategy(strategy), seed=seed, replications=replications,
        horizon=horizon, warm_fraction=warm_fraction, track_levels=track_levels,
        event_count=events,
        masses=masses, masses_se=masses_se,
        palm_env=palm, palm_env_se=palm_se,
        sojourn_by_level=sojl, sojourn_by_level_se=sojl_se,
        sojourn_by_env=soje, sojourn_by_env_se=soje_se,
        net_benefit_by_level=net, net_benefit_by_level_se=net_se,
    )
