"""Block-sampled simulation of the level/environment chain.

The chain's event rates depend on the environment only: a customer who
balks is still an arrival event. So the path of (time, environment, event
type) does not depend on the strategy and is drawn in numpy blocks:

* each environment visit holds a geometric number of events, with success
  probability q_e/(lambda_e+mu_e+q_e); its last event is the switch;
* every other event is an arrival with probability
  lambda_e/(lambda_e+mu_e) and a clearing otherwise;
* the gaps between events are Exp(lambda_e+mu_e+q_e).

This is the exponential race among arrival, clearing and switch, with the
draws reordered. Each event also carries a uniform: an arrival that sees
level n joins when its uniform is below the strategy's joining
probability at n.

The level pass is the only sequential step. Clearings remove every
present customer at once, so they cut the arrivals into segments that
start empty, and the pass loops over levels instead of events: at level
n, every open segment joins at its first later arrival whose uniform is
below p(n). A level with p = 0 absorbs. A run of levels with p = 1, which
``strategies.certain_until`` ends, is climbed in one step: a pure
threshold n0 gives min(arrivals since the clearing, n0), and an
unbounded strategy takes every later arrival.

Occupancy times, Palm counts of arrivals and each joiner's sojourn, which
is simply the time to the next clearing, are summed with ``np.bincount``.
The path is processed in blocks of at most ``_BLOCK`` events. The time,
the level and the joiners of the open segment carry across a block
boundary, so memory does not grow with the horizon. Statistics are
collected after the first ``WARM_FRACTION`` of the horizon and merged across
replications in index order, so identical inputs give bit-identical
estimates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ..codec import Wire
from ..errors import FloatRangeError
from ..model import RewardCost, ValidatedModel, env_index
from ..strategies import Strategy, certain_until, format_strategy

_BLOCK = 1 << 15

#: Most events a drawn visit holds. A batch has at most _BLOCK + 2 draws, so
#: no sum of draws in a block reaches 2**63; a visit this long (1.4e14
#: events) outlasts any horizon a simulation can reach.
_VISIT_CAP = 2 ** 62 // (_BLOCK + 2)

#: Event types of a path.
ARRIVAL, CLEARING, SWITCH = 0, 1, 2

#: Share of the horizon run before statistics are collected.
WARM_FRACTION = 0.1

#: Levels with a row of their own in the estimates; a lump row holds the rest.
TRACK_LEVELS = 40


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

    def _cell(self, n: int, env: int) -> tuple[int, int]:
        if n < 0 or n > self.track_levels:
            raise ValueError(f"level {n} is outside the tracked range")
        return n, env_index(env)

    def pmf(self, n: int, env: int) -> float:
        """Estimated stationary mass of (n, env); lump row excluded."""
        return float(self.masses[self._cell(n, env)])

    def pmf_se(self, n: int, env: int) -> float:
        """Standard error of ``pmf(n, env)`` across replications."""
        return float(self.masses_se[self._cell(n, env)])


def _path_blocks(model: ValidatedModel, rng: np.random.Generator, horizon: float):
    """Yield the event path in blocks of (times, envs, kinds, unis) arrays.

    ``envs[i]`` is the environment (0 or 1) in which event i happens,
    ``kinds[i]`` its type and ``unis[i]`` its joining uniform. Blocks are
    sized to the expected number of events left before ``horizon`` and
    never exceed ``_BLOCK``; the generator runs until the caller stops.
    """
    p = model.params
    lam = np.array([p.lambda1, p.lambda2])
    mu = np.array([p.mu1, p.mu2])
    q = np.array([p.q12, p.q21])
    total = lam + mu + q
    # below the normal floats, a visit's end probability draws _VISIT_CAP events all the same
    ends_visit = np.maximum(q / total, sys.float_info.min)
    arrives = lam / (lam + mu)
    pe1, pe2 = model.env_stationary
    rate = pe1 * float(total[0]) + pe2 * float(total[1])   # long-run events per unit time
    # the path starts in environment 1, whose share of the time decays from 1
    # to pe1 at the rate q12 + q21; so many events precede the horizon on average
    switch = float(q.sum())
    due = horizon * rate + pe2 * float(total[0] - total[1]) * (-math.expm1(-switch * horizon)
                                                              / switch)
    if due >= 2.0 ** 53:   # the mean gap is below the clock's spacing at the horizon
        raise FloatRangeError(f"about {due:.3g} events to the horizon {horizon:g}, "
                              "2**53 or more: simulated time cannot advance to it")
    per_two_visits = float((1.0 / ends_visit).sum())
    t, env, left = 0.0, 0, 0   # left: events still due in the current visit
    while True:
        expected = rate * max(horizon - t, 0.0)
        size = min(_BLOCK, int(expected + 4.0 * math.sqrt(expected)) + 16)
        parts = [np.array([left])] if left else []
        visits, drawn = len(parts), left
        while drawn < size:
            batch = 2 + 2 * int((size - drawn) / per_two_visits)
            runs = rng.geometric(ends_visit[(env + visits + np.arange(batch)) % 2])
            # a draw too long for int64 comes back as 2**63 - 1, or below 1 where
            # numpy casts it unchecked: either holds the cap instead
            runs = np.where((runs >= 1) & (runs < _VISIT_CAP), runs, _VISIT_CAP)
            parts.append(runs)
            visits += batch
            drawn += int(runs.sum())
        runs = np.concatenate(parts)
        closes = np.cumsum(runs)
        last = int(np.searchsorted(closes, size))   # the visit holding the last event
        left = int(closes[last]) - size
        runs = runs[:last + 1]
        runs[last] -= left
        envs = np.repeat((env + np.arange(last + 1)) % 2, runs)
        kinds = (rng.random(size) >= arrives.take(envs)).view(np.int8)   # ARRIVAL or CLEARING
        kinds[closes[:last + (left == 0)] - 1] = SWITCH
        gaps = rng.standard_exponential(size) / total.take(envs)
        gaps[0] += t
        times = np.cumsum(gaps)
        unis = rng.random(size)
        yield times, envs, kinds, unis
        t = float(times[-1])
        env = (env + last + (left == 0)) % 2


class _Tally:
    """Level pass and statistics of one replication, fed its path in order.

    Blocks may be cut anywhere: the time and level after the last event
    and the joiners of the open segment carry over. Statistics are kept
    per (level row, environment) cell, ``2 * row + env``.
    """

    def __init__(self, strategy: Strategy, horizon: float, warm: float,
                 track_levels: int):
        self.strategy = strategy
        self.horizon = horizon
        self.warm = warm
        self.lump = track_levels + 1
        cells = 2 * (self.lump + 1)
        self.occ = np.zeros(cells)
        self.palm = np.zeros(cells)
        self.soj_sum = np.zeros(cells)
        self.soj_cnt = np.zeros(cells)
        self.t = 0.0
        self.level = 0
        self.events = 0
        # joiners of the open segment after the warm-up: join times, cells
        self.pending = (np.empty(0), np.empty(0, dtype=np.int64))

    def _joins(self, unis: np.ndarray, starts: np.ndarray):
        """Which arrivals join, and the level of each segment at its end.

        Segment s holds the arrivals from ``starts[s]`` up to
        ``starts[s+1]``. The first segment continues at the carried level;
        the others start empty, so they climb the levels in step. A run of
        levels with p = 1 is climbed in one step, as a range of joins.
        """
        n = len(unis)
        ends = np.append(starts[1:], n)
        pos = starts.copy()
        top = np.zeros(len(starts), dtype=np.int64)
        top[0] = self.level
        cover = np.zeros(n + 1, dtype=np.int64)   # +1 where a range of joins starts, -1 after
        live = np.flatnonzero(pos < ends)
        ell = 0
        while live.size:
            prob = self.strategy.join_prob(ell)
            if prob <= 0.0:
                break
            if prob >= 1.0:
                take = ends[live] - pos[live]
                # no open segment climbs past the reach
                stop = certain_until(self.strategy, ell, int((top[live] + take).max()))
                take = np.minimum(take, np.maximum(stop - top[live], 0))
                seg, take = live[take > 0], take[take > 0]
                first = pos[seg]
            else:
                stop = ell + 1
                at = live[top[live] == ell]
                hits = np.flatnonzero(unis < prob)
                found = np.append(hits, n)[np.searchsorted(hits, pos[at])]
                ok = found < ends[at]
                pos[at[~ok]] = ends[at[~ok]]   # a miss ends the climb
                seg, first, take = at[ok], found[ok], 1
            cover[first] += 1
            cover[first + take] -= 1
            top[seg] += take
            pos[seg] = first + take
            live = live[pos[live] < ends[live]]
            ell = stop
        return np.cumsum(cover[:n]) > 0, top

    def feed(self, times: np.ndarray, envs: np.ndarray, kinds: np.ndarray,
             unis: np.ndarray) -> bool:
        """Apply one block of events; True once an event reaches the horizon."""
        horizon, warm, lump = self.horizon, self.warm, self.lump
        k = int(np.searchsorted(times, horizon))   # events before the horizon
        done = k < len(times)
        span = k + done   # intervals, the one the horizon cuts included
        kinds = kinds[:k]
        arr = np.flatnonzero(kinds == ARRIVAL)
        clr = np.flatnonzero(kinds == CLEARING)
        joined, top = self._joins(unis[arr], np.append(0, np.searchsorted(arr, clr)))
        joins = arr[joined]

        # level before each event: +1 at a join, back to 0 after a clearing
        steps = np.zeros(k + 1, dtype=np.int64)
        steps[0] = self.level
        steps[joins + 1] = 1
        steps[clr + 1] = -top[:-1]
        levels = np.cumsum(steps)
        cells = 2 * np.minimum(levels[:span], lump) + envs[:span]
        edges = np.clip(np.concatenate(([self.t], times[:span])), warm, horizon)
        self.occ += np.bincount(cells, weights=np.diff(edges), minlength=len(self.occ))

        first = np.searchsorted(times, warm)   # first event after the warm-up
        seen = arr[np.searchsorted(arr, first):]
        self.palm += np.bincount(cells[seen], minlength=len(self.palm))

        # each joiner leaves at the first clearing after it; the pending
        # ones, at index -1, leave at this block's first clearing
        joins = joins[np.searchsorted(joins, first):]
        index = np.concatenate((np.full(len(self.pending[0]), -1), joins))
        tau = np.concatenate((self.pending[0], times[joins]))
        cell = np.concatenate((self.pending[1], cells[joins]))
        m = int(np.searchsorted(index, clr[-1])) if len(clr) else 0
        sojourn = times[clr[np.searchsorted(clr, index[:m])]] - tau[:m]
        self.soj_sum += np.bincount(cell[:m], weights=sojourn, minlength=len(self.soj_sum))
        self.soj_cnt += np.bincount(cell[:m], minlength=len(self.soj_cnt))
        self.pending = (tau[m:], cell[m:])

        self.events += k
        if k:
            self.t = float(times[k - 1])
        self.level = int(top[-1])
        return done

    def estimates(self):
        """Masses, Palm frequencies, sojourns by level and by environment, events."""
        occ = self.occ.reshape(-1, 2)
        palm = self.palm.reshape(-1, 2)
        soj_sum = self.soj_sum.reshape(-1, 2)
        soj_cnt = self.soj_cnt.reshape(-1, 2)
        return (occ / occ.sum(), _ratio(palm, palm.sum(axis=1, keepdims=True)),
                _ratio(soj_sum.sum(axis=1), soj_cnt.sum(axis=1)),
                _ratio(soj_sum.sum(axis=0), soj_cnt.sum(axis=0)), self.events)


def _ratio(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """total / count, NaN where nothing was counted."""
    return np.where(count > 0.0, total / np.maximum(count, 1.0), np.nan)


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
             horizon: float = 1e5, seed: int = 0, replications: int = 16) -> SimEstimates:
    """Estimate stationary and arrival statistics by simulation.

    Output is bit-identical for identical (seed, replications, horizon)
    because each replication owns a stream spawned from the master seed
    and the merge folds replications in index order. Raises FloatRangeError,
    before any draw, where 2**53 or more events are expected per replication.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    if replications < 1:
        raise ValueError("replications must be at least 1")

    runs = []
    for child in np.random.SeedSequence(seed).spawn(replications):
        tally = _Tally(strategy, horizon, WARM_FRACTION * horizon, TRACK_LEVELS)
        for block in _path_blocks(model, np.random.default_rng(child), horizon):
            if tally.feed(*block):
                break
        runs.append(tally.estimates())
    *stats, events = zip(*runs)
    (masses, masses_se), (palm, palm_se), (sojl, sojl_se), (soje, soje_se) = (
        _merge(np.stack(stat)) for stat in stats)

    return SimEstimates(
        strategy=format_strategy(strategy), seed=seed, replications=replications,
        horizon=horizon, warm_fraction=WARM_FRACTION, track_levels=TRACK_LEVELS,
        event_count=sum(events),
        masses=masses, masses_se=masses_se,
        palm_env=palm, palm_env_se=palm_se,
        sojourn_by_level=sojl, sojourn_by_level_se=sojl_se,
        sojourn_by_env=soje, sojourn_by_env_se=soje_se,
        net_benefit_by_level=rc.reward - rc.cost * sojl,
        net_benefit_by_level_se=rc.cost * sojl_se,
    )
