import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    InputError,
    JoinVector,
    MixedThreshold,
    PureThreshold,
    ReverseThreshold,
    format_strategy,
    parse_strategy,
)
from clearbalk.cli import main


def test_join_prob_tables():
    assert [AlwaysJoin().join_prob(n) for n in range(3)] == [1.0, 1.0, 1.0]
    assert [AlwaysBalk().join_prob(n) for n in range(3)] == [0.0, 0.0, 0.0]
    assert [PureThreshold(2).join_prob(n) for n in range(4)] == [1.0, 1.0, 0.0, 0.0]
    assert [MixedThreshold(2, 0.3).join_prob(n) for n in range(4)] == [1.0, 1.0, 0.3, 0.0]
    assert [ReverseThreshold(2, 0.3).join_prob(n) for n in range(4)] == [0.0, 0.0, 0.3, 1.0]
    assert [JoinVector((1.0, 0.5, 0.0)).join_prob(n) for n in range(4)] == [1.0, 0.5, 0.0, 0.0]


def test_support_bounds():
    assert AlwaysJoin().support_bound() is None
    assert AlwaysBalk().support_bound() == 0
    assert PureThreshold(3).support_bound() == 3
    assert MixedThreshold(3, 0.5).support_bound() == 4
    assert MixedThreshold(3, 0.0).support_bound() == 3
    assert ReverseThreshold(2, 0.5).support_bound() == 0
    assert ReverseThreshold(0, 0.0).support_bound() == 0
    assert ReverseThreshold(0, 0.5).support_bound() is None
    assert JoinVector((1.0, 0.5, 0.0, 1.0)).support_bound() == 2
    assert JoinVector((0.4,)).support_bound() == 1


def test_invalid_construction():
    with pytest.raises(ValueError):
        PureThreshold(-1)
    with pytest.raises(ValueError):
        MixedThreshold(1, 1.5)
    with pytest.raises(ValueError):
        ReverseThreshold(0, -0.1)
    with pytest.raises(ValueError):
        JoinVector(())
    with pytest.raises(ValueError):
        JoinVector((0.5, 2.0))


def test_descriptor_examples():
    assert parse_strategy("always-join") == AlwaysJoin()
    assert parse_strategy("always-balk") == AlwaysBalk()
    assert parse_strategy("threshold:4") == PureThreshold(4)
    assert parse_strategy("mixed-threshold:2:0.25") == MixedThreshold(2, 0.25)
    assert parse_strategy("reverse:0:0.5") == ReverseThreshold(0, 0.5)
    assert parse_strategy("vector:1,1,0.5,0") == JoinVector((1.0, 1.0, 0.5, 0.0))


BAD_DESCRIPTORS = [
    "", "join", "threshold", "threshold:", "threshold:-1", "threshold:1.5",
    "mixed-threshold:2", "mixed-threshold:2:1.5", "mixed-threshold:x:0.5",
    "reverse:0", "vector:", "vector:0.5,nan", "vector:2", "threshold:2:0.5",
]


@pytest.mark.parametrize("text", BAD_DESCRIPTORS)
def test_parse_rejects(text):
    with pytest.raises(InputError):
        parse_strategy(text)


@pytest.mark.parametrize("text", BAD_DESCRIPTORS)
def test_cli_refuses_a_descriptor_before_reading_the_config(text, tmp_path, capsys):
    # the config does not exist, so only argparse can give this refusal
    with pytest.raises(SystemExit) as info:
        main(["stationary", "--config", str(tmp_path / "missing.json"), f"--strategy={text}"])
    assert info.value.code == 2
    assert "argument --strategy: " in capsys.readouterr().err


def test_parse_error_is_value_error():
    # callers that only know ValueError still catch descriptor problems
    with pytest.raises(ValueError):
        parse_strategy("nonsense")


_strategies = st.one_of(
    st.just(AlwaysJoin()),
    st.just(AlwaysBalk()),
    st.integers(0, 50).map(PureThreshold),
    st.tuples(st.integers(0, 50),
              st.floats(0.0, 1.0, allow_nan=False)).map(lambda t: MixedThreshold(*t)),
    st.tuples(st.integers(0, 10),
              st.floats(0.0, 1.0, allow_nan=False)).map(lambda t: ReverseThreshold(*t)),
    st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1,
             max_size=8).map(lambda v: JoinVector(tuple(v))),
)


@given(_strategies)
def test_format_parse_round_trip(strategy):
    assert parse_strategy(format_strategy(strategy)) == strategy


@given(_strategies)
@example(AlwaysJoin())
@example(ReverseThreshold(0, 0.5))
@example(ReverseThreshold(0, 0.0))
@example(JoinVector((1.0,)))
def test_unbounded_strategies_join_from_level_one(strategy):
    # the balance oracle's constant tail step rests on this invariant
    if strategy.support_bound() is None:
        assert isinstance(strategy, (AlwaysJoin, ReverseThreshold))
        assert all(strategy.join_prob(n) == 1.0 for n in range(1, 200))
    else:
        assert strategy.support_bound() >= 0
