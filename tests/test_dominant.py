"""Dominant joining decisions in the regimes without queue-length feedback."""

import dataclasses

import pytest

from clearbalk import (
    DominanceKind,
    Regime,
    RewardCost,
    critical_values,
    dominant_strategies,
)
from conftest import random_model


def test_critical_values_reference(pstar, pb):
    crit = critical_values(pstar.model)
    assert crit.v_fu == pytest.approx(0.7, rel=1e-13)
    assert crit.v_au_min == pytest.approx(0.5, rel=1e-13)
    assert crit.v_au_max == pytest.approx(0.75, rel=1e-13)
    assert critical_values(pb.model).v_fu == pytest.approx(23.0 / 49.0, rel=1e-13)


def test_v_fu_bracketed_by_au_criticals(rng):
    for _ in range(100):
        crit = critical_values(random_model(rng))
        assert crit.v_au_min <= crit.v_fu <= crit.v_au_max
        assert crit.v_fu > 0.0


def test_fully_unobservable_balk_side(pstar):
    result = dominant_strategies(pstar.model, RewardCost(0.6, 1.0), Regime.FULLY_UNOBSERVABLE)
    assert result.regime is Regime.FULLY_UNOBSERVABLE
    assert result.kind is DominanceKind.UNIQUE_PURE
    assert result.join == 0.0
    assert result.net_benefit == pytest.approx(-0.1, rel=1e-12)
    assert not result.knife_edge


def test_fully_unobservable_join_side(pstar):
    result = dominant_strategies(pstar.model, pstar.rc, Regime.FULLY_UNOBSERVABLE)
    assert result.join == 1.0
    assert result.net_benefit == pytest.approx(0.02, rel=1e-12)


def test_fully_unobservable_knife_edge(pstar):
    # R/C exactly at the critical value: every mixture is dominant
    for rc in (RewardCost(0.7, 1.0), RewardCost(7.0, 10.0)):
        result = dominant_strategies(pstar.model, rc, Regime.FULLY_UNOBSERVABLE)
        assert result.kind is DominanceKind.INDIFFERENCE_FAMILY
        assert result.join is None
        assert result.knife_edge


def test_almost_unobservable_splits_by_environment(pstar):
    result = dominant_strategies(pstar.model, RewardCost(0.6, 1.0), Regime.ALMOST_UNOBSERVABLE)
    assert result.regime is Regime.ALMOST_UNOBSERVABLE
    assert result.join == (0.0, 1.0)
    assert result.net_benefit[0] == pytest.approx(-0.15, rel=1e-12)
    assert result.net_benefit[1] == pytest.approx(0.1, rel=1e-12)
    assert not result.knife_edge


def test_almost_unobservable_knife_edge_single_env(pstar):
    result = dominant_strategies(pstar.model, RewardCost(0.75, 1.0), Regime.ALMOST_UNOBSERVABLE)
    assert result.kind is DominanceKind.INDIFFERENCE_FAMILY
    assert result.join == (None, 1.0)
    assert result.knife_edge


def test_fully_observable_matches_almost_unobservable(pstar, rng):
    models = [pstar.model] + [random_model(rng) for _ in range(20)]
    for model in models:
        rc = RewardCost(0.6, 1.0)
        au = dominant_strategies(model, rc, Regime.ALMOST_UNOBSERVABLE)
        fo = dominant_strategies(model, rc, Regime.FULLY_OBSERVABLE)
        assert fo.regime is Regime.FULLY_OBSERVABLE
        assert dataclasses.replace(fo, regime=Regime.ALMOST_UNOBSERVABLE) == au


def test_regime_tags_are_short_codes():
    assert Regime.FULLY_UNOBSERVABLE.value == "fu"
    assert Regime.ALMOST_UNOBSERVABLE.value == "au"
    assert Regime.FULLY_OBSERVABLE.value == "fo"
    assert DominanceKind.UNIQUE_PURE.value == "unique-pure"
    assert DominanceKind.INDIFFERENCE_FAMILY.value == "indifference-family"


def test_extreme_reward_always_joins(rng):
    for _ in range(20):
        model = random_model(rng)
        rich = dominant_strategies(model, RewardCost(1e6, 1.0), Regime.FULLY_UNOBSERVABLE)
        assert rich.join == 1.0
        poor = dominant_strategies(model, RewardCost(1e-9, 1.0), Regime.FULLY_UNOBSERVABLE)
        assert poor.join == 0.0
