"""Simulator: determinism, conservation, statistical sanity, and the
block sampler's statistics against a per-event reference loop."""

import json
import math

import numpy as np
import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    JoinVector,
    MixedThreshold,
    ModelParams,
    PureThreshold,
    ReverseThreshold,
    RewardCost,
    format_strategy,
    simulate,
    solve_truncated_balance,
    spectral_quantities,
    stationary_distribution,
    validate_params,
)
from clearbalk.oracle.simulate import (
    _BLOCK,
    ARRIVAL,
    CLEARING,
    SWITCH,
    _path_blocks,
    _Tally,
)
from conftest import PSTAR, random_model


def test_identical_seeds_identical_estimates(pstar):
    kw = dict(horizon=2000.0, seed=7, replications=4, track_levels=12)
    first = simulate(pstar.model, pstar.rc, AlwaysJoin(), **kw)
    second = simulate(pstar.model, pstar.rc, AlwaysJoin(), **kw)
    assert first.to_dict() == second.to_dict()
    assert first.event_count == second.event_count


def test_different_seed_differs(pstar):
    kw = dict(horizon=2000.0, replications=2, track_levels=12)
    a = simulate(pstar.model, pstar.rc, AlwaysJoin(), seed=1, **kw)
    b = simulate(pstar.model, pstar.rc, AlwaysJoin(), seed=2, **kw)
    assert a.event_count != b.event_count


def test_masses_are_a_distribution(pstar):
    est = simulate(pstar.model, pstar.rc, AlwaysJoin(),
                   horizon=5000.0, seed=3, replications=3, track_levels=20)
    total = est.masses.sum()
    assert total == pytest.approx(1.0, abs=1e-12)
    assert (est.masses >= 0.0).all()


def test_estimates_near_closed_form(pstar):
    est = simulate(pstar.model, pstar.rc, AlwaysJoin(),
                   horizon=20000.0, seed=11, replications=6, track_levels=20)
    want = {(0, 1): 3.0 / 11.0, (1, 1): 0.16804407713498623}
    for (n, env), value in want.items():
        se = est.pmf_se(n, env)
        assert abs(est.pmf(n, env) - value) < 4.0 * se
    s1, s2 = est.sojourn_by_env
    se1, se2 = est.sojourn_by_env_se
    assert abs(s1 - 0.75) < 4.0 * se1
    assert abs(s2 - 0.5) < 4.0 * se2


def test_net_benefit_decomposition(pstar):
    est = simulate(pstar.model, pstar.rc, AlwaysJoin(),
                   horizon=3000.0, seed=5, replications=3, track_levels=10)
    for n in range(5):
        want = 0.72 - est.sojourn_by_level[n]
        got = est.net_benefit_by_level[n]
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-13)


def test_threshold_strategy_respects_support(pstar):
    est = simulate(pstar.model, pstar.rc, PureThreshold(3),
                   horizon=3000.0, seed=9, replications=2, track_levels=10)
    assert est.pmf(4, 1) == 0.0
    assert est.pmf(4, 2) == 0.0
    assert est.pmf(3, 1) + est.pmf(3, 2) > 0.0


def test_join_vector_supported(pstar):
    est = simulate(pstar.model, pstar.rc, JoinVector((1.0, 0.5)),
                   horizon=3000.0, seed=13, replications=2, track_levels=10)
    assert est.pmf(2, 1) + est.pmf(2, 2) > 0.0
    assert est.pmf(3, 1) == 0.0


def test_balk_everything_empty(pstar):
    est = simulate(pstar.model, pstar.rc, AlwaysBalk(),
                   horizon=2000.0, seed=4, replications=2, track_levels=5)
    assert est.pmf(0, 1) + est.pmf(0, 2) == pytest.approx(1.0, abs=1e-12)
    assert all(math.isnan(v) for v in est.sojourn_by_env)
    assert all(math.isnan(v) for v in est.sojourn_by_level)


def test_to_dict_is_json_safe(pstar):
    est = simulate(pstar.model, pstar.rc, AlwaysBalk(),
                   horizon=1000.0, seed=6, replications=2, track_levels=5)
    blob = json.dumps(est.to_dict(), sort_keys=True, allow_nan=False)
    data = json.loads(blob)
    # unobserved sojourns serialize as nulls, not NaN
    assert data["sojourn_by_env"] == [None, None]
    assert data["event_count"] == est.event_count


def test_pmf_range_checks(pstar):
    est = simulate(pstar.model, pstar.rc, AlwaysJoin(),
                   horizon=500.0, seed=8, replications=1, track_levels=6)
    with pytest.raises(ValueError):
        est.pmf(7, 1)
    with pytest.raises(ValueError):
        est.pmf(0, 3)
    with pytest.raises(ValueError):
        est.pmf_se(0, 0)
    # the standard errors check their level the way the masses do
    for n in (-1, 7, 8):
        with pytest.raises(ValueError, match="outside the tracked range"):
            est.pmf(n, 1)
        with pytest.raises(ValueError, match="outside the tracked range"):
            est.pmf_se(n, 1)


@pytest.mark.parametrize("kw", [
    {"horizon": 0.0}, {"horizon": -1.0},
    {"replications": 0}, {"warm_fraction": 1.0}, {"warm_fraction": -0.1},
    {"horizon": math.nan}, {"horizon": math.inf}, {"seed": -1},
    {"track_levels": -1}, {"track_levels": -3}, {"track_levels": 2.0},
])
def test_invalid_arguments(pstar, kw):
    base = dict(horizon=100.0, seed=0, replications=1)
    base.update(kw)
    with pytest.raises(ValueError, match=next(iter(kw))):
        simulate(pstar.model, pstar.rc, AlwaysJoin(), **base)


def test_single_replication_has_no_se(pstar):
    est = simulate(pstar.model, pstar.rc, AlwaysJoin(),
                   horizon=500.0, seed=2, replications=1, track_levels=6)
    assert math.isnan(est.pmf_se(0, 1))


SLOW = ModelParams(lambda1=2.0, lambda2=1.0, mu1=1e-2, mu2=3e-2, q12=1.0, q21=2.0)

FAMILIES = [AlwaysJoin(), AlwaysBalk(), PureThreshold(3), MixedThreshold(2, 0.6),
            ReverseThreshold(0, 0.4), ReverseThreshold(2, 0.7),
            PureThreshold(0), JoinVector((1.0, 0.5, 0.25)),
            JoinVector((0.3, 1.0, 0.8, 0.0, 1.0)), JoinVector((1.0, 0.5, 1.0, 1.0, 0.7))]


def _drawn_path(model, seed, horizon):
    """One replication's path, concatenated up to the first block past the horizon."""
    blocks = []
    for block in _path_blocks(model, np.random.default_rng(seed), horizon):
        assert 0 < len(block[0]) <= _BLOCK
        blocks.append(block)
        if block[0][-1] >= horizon:
            break
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _reference_loop(path, strategy, horizon, warm, track_levels):
    """Per-event reference for the block tally: one event at a time, on a given path."""
    times, envs, kinds, unis = path
    lump = track_levels + 1
    occ = np.zeros((lump + 1, 2))
    palm = np.zeros((lump + 1, 2))
    soj_sum_level = np.zeros(lump + 1)
    soj_cnt_level = np.zeros(lump + 1)
    soj_sum_env = np.zeros(2)
    soj_cnt_env = np.zeros(2)
    t, level, env, events = 0.0, 0, 0, 0
    pending = []
    for t_next, env_i, kind, u in zip(times.tolist(), envs.tolist(), kinds.tolist(),
                                      unis.tolist()):
        assert env_i == env
        start = t if t > warm else warm
        if t_next >= horizon:
            if horizon > start:
                occ[min(level, lump), env] += horizon - start
            break
        if t_next > start:
            occ[min(level, lump), env] += t_next - start
        t = t_next
        events += 1
        if kind == ARRIVAL:
            row = min(level, lump)
            if t >= warm:
                palm[row, env] += 1.0
            jp = strategy.join_prob(level)
            if jp >= 1.0 or (jp > 0.0 and u < jp):
                pending.append((t, row, env))
                level += 1
        elif kind == CLEARING:
            for tau, row, e0 in pending:
                if tau >= warm:
                    soj_sum_level[row] += t - tau
                    soj_cnt_level[row] += 1.0
                    soj_sum_env[e0] += t - tau
                    soj_cnt_env[e0] += 1.0
            pending.clear()
            level = 0
        else:
            assert kind == SWITCH
            env = 1 - env
    else:
        raise AssertionError("the path ends before the horizon")
    with np.errstate(invalid="ignore"):
        soj_level = np.where(soj_cnt_level > 0, soj_sum_level / soj_cnt_level, np.nan)
        soj_env = np.where(soj_cnt_env > 0, soj_sum_env / soj_cnt_env, np.nan)
    return occ / occ.sum(), palm, soj_level, soj_env, events


def _tally(path, strategy, horizon, warm, track_levels, cuts=()):
    tally = _Tally(strategy, horizon, warm, track_levels)
    bounds = [0, *cuts, len(path[0])]
    for lo, hi in zip(bounds, bounds[1:]):
        if tally.feed(*(part[lo:hi] for part in path)):
            break
    return tally


def _assert_same_statistics(tally, want):
    masses, _, soj_level, soj_env, events = tally.estimates()
    want_masses, want_palm, want_level, want_env, want_events = want
    assert events == want_events
    np.testing.assert_array_equal(tally.palm.reshape(-1, 2), want_palm)
    np.testing.assert_allclose(masses, want_masses, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(soj_level, want_level, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(soj_env, want_env, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("strategy", FAMILIES, ids=format_strategy)
def test_block_statistics_match_reference_loop(strategy):
    rng = np.random.default_rng(4051)
    models = [random_model(rng) for _ in range(4)]
    models.append(validate_params(PSTAR, RewardCost(0.72, 1.0)))
    for i, model in enumerate(models):
        horizon = 3000.0 / sum(model.params.__dict__.values())
        path = _drawn_path(model, 70 + i, horizon)
        want = _reference_loop(path, strategy, horizon, 0.1 * horizon, 4)
        _assert_same_statistics(_tally(path, strategy, horizon, 0.1 * horizon, 4), want)


@pytest.mark.parametrize("strategy", FAMILIES, ids=format_strategy)
def test_block_cuts_do_not_change_statistics(strategy):
    model = validate_params(SLOW, RewardCost(0.72, 1.0))
    horizon = 2000.0
    path = _drawn_path(model, 5, horizon)
    want = _reference_loop(path, strategy, horizon, 0.1 * horizon, 6)
    n = len(path[0])
    rng = np.random.default_rng(9)
    for cuts in ([], [1, 2, 2, 3, n // 2], np.sort(rng.integers(0, n, 40)).tolist(),
                 list(range(0, n, 97))):
        _assert_same_statistics(_tally(path, strategy, horizon, 0.1 * horizon, 6, cuts),
                                want)


def test_long_horizon_runs_in_full_blocks(pstar):
    sizes, last = [], 0.0
    for times, envs, kinds, unis in _path_blocks(pstar.model, np.random.default_rng(1),
                                                 2e4):
        sizes.append(len(times))
        assert len(envs) == len(kinds) == len(unis) == len(times)
        assert times[0] >= last and (np.diff(times) >= 0.0).all()
        last = times[-1]
        if last >= 2e4:
            break
    assert len(sizes) >= 3
    assert max(sizes) == _BLOCK


def _within(est, want, levels=6, sigmas=5.0):
    """Masses of levels 0..levels-1 within ``sigmas`` standard errors of ``want``."""
    for n in range(levels):
        for env in (1, 2):
            gap = abs(est.pmf(n, env) - want(n, env))
            assert gap <= sigmas * est.pmf_se(n, env) + 1e-12, (n, env, gap)


@pytest.mark.parametrize("params, strategy, seed", [
    (PSTAR, AlwaysJoin(), 30),
    (PSTAR, PureThreshold(3), 31),
    (PSTAR, MixedThreshold(2, 0.6), 32),
    (PSTAR, ReverseThreshold(0, 0.4), 33),
    (PSTAR, ReverseThreshold(2, 0.7), 34),
    (PSTAR, AlwaysBalk(), 35),
    (SLOW, AlwaysJoin(), 36),
    (SLOW, PureThreshold(4), 37),
    (SLOW, ReverseThreshold(0, 0.5), 38),
], ids=lambda v: ("slow" if v == SLOW else "reference") if isinstance(v, ModelParams)
    else str(v) if isinstance(v, int) else format_strategy(v))
def test_families_agree_with_closed_form(params, strategy, seed):
    model = validate_params(params, RewardCost(0.72, 1.0))
    dist = stationary_distribution(model, spectral_quantities(model), strategy)
    est = simulate(model, RewardCost(0.72, 1.0), strategy,
                   horizon=1e4, seed=seed, replications=16, track_levels=8)
    _within(est, dist.pmf)


def test_join_vector_agrees_with_balance_solve(pstar):
    strategy = JoinVector((1.0, 0.5, 0.25))
    sol = solve_truncated_balance(pstar.model, strategy)
    est = simulate(pstar.model, pstar.rc, strategy,
                   horizon=1e4, seed=39, replications=16, track_levels=8)
    _within(est, sol.pmf)


def test_high_threshold_walks_only_reachable_levels(pstar, monkeypatch):
    # no segment reaches 10**9, so the threshold joins like always-join,
    # and the certain-join walk stops at the highest level a segment can reach
    kw = dict(horizon=200.0, seed=11, replications=2, track_levels=12)
    calls = [0]
    join_prob = PureThreshold.join_prob

    def counted(self, n):
        calls[0] += 1
        return join_prob(self, n)

    monkeypatch.setattr(PureThreshold, "join_prob", counted)
    high = simulate(pstar.model, pstar.rc, PureThreshold(10 ** 9), **kw).to_dict()
    free = simulate(pstar.model, pstar.rc, AlwaysJoin(), **kw).to_dict()
    assert high.pop("strategy") == "threshold:1000000000"
    free.pop("strategy")
    assert high == free
    assert 0 < calls[0] <= 100   # 19 here, against 10**9 for a walk to the threshold
