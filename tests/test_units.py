"""Answers that do not depend on the units of money or of time.

Only R/C enters the game, and a rate is a count per unit of time, so
(R, C) -> 2^k*(R, C) and (rates, C) -> 2^k*(rates, C) describe the same
customers. Scaling by a power of two is exact in floating point, so every
answer must come out the same, bit for bit.
"""

import math
import random

from clearbalk import (
    CaseKind,
    ModelParams,
    Regime,
    RewardCost,
    benefit_coefficients,
    compute_equilibria,
    congestion_case,
    dominant_strategies,
    format_strategy,
    spectral_quantities,
    validate_params,
)
from clearbalk.equilibrium import _ORIENTATIONS, SIGN_TOLERANCE, SUBCASES, classify

#: Largest n_u whose members are listed; above it the levels of ``classify`` are compared.
LISTED = 10 ** 4


def _draw(rng: random.Random, spread: float) -> tuple[ModelParams, RewardCost]:
    """Rates log-uniform in e^-spread..e^spread, R/C log-uniform between S1 and S2, C = 1."""
    params = ModelParams(*(math.exp(rng.uniform(-spread, spread)) for _ in range(6)))
    s1, s2 = validate_params(params, RewardCost(1.0, 1.0)).mean_clearing
    return params, RewardCost(math.exp(rng.uniform(math.log(s1), math.log(s2))), 1.0)


def _answer(params: ModelParams, rc: RewardCost) -> tuple:
    """Case, subcase, bounds, knife flag and members (or levels), and the fu, au and fo
    decisions with their knife flags."""
    model = validate_params(params, rc)
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, rc)
    kind = congestion_case(model).kind
    index, *levels, band, _, _ = classify(coef, _ORIENTATIONS[kind][1], SIGN_TOLERANCE)
    if levels[1] <= LISTED or math.isinf(levels[1]):
        report = compute_equilibria(model, spec, coef, rc, verify=False)
        found = (report.subcase, report.bounds, report.knife_edge,
                 [(format_strategy(item.strategy) if item.strategy else None, item.tag)
                  for item in report.equilibria])
    else:
        found = (SUBCASES[index], levels, band)
    dominant = [(d.join, d.knife_edge)
                for d in (dominant_strategies(model, rc, regime) for regime in Regime)]
    return kind, found, dominant


def _scaled(params: ModelParams, rc: RewardCost, k: int):
    factor = 2.0 ** k
    money = RewardCost(rc.reward * factor, rc.cost * factor)
    time = ModelParams(*(rate * factor for rate in vars(params).values()))
    return (params, money), (time, RewardCost(rc.reward, rc.cost * factor))


def test_answers_do_not_depend_on_the_units_of_money_or_time():
    rng = random.Random(20261020)
    seen, unlisted, knives = set(), 0, 0
    for spread in (3.0, 13.8):
        for i in range(2000):
            params, rc = _draw(rng, spread)
            k = i % 81 - 40
            want = _answer(params, rc)
            for scaled in _scaled(params, rc, k):
                assert _answer(*scaled) == want, (params, rc, k)
            kind, found, _ = want
            seen.add((kind, found[0]))
            unlisted += len(found) == 3
            knives += found[2]
    # every subcase of cases A and B, some n_u past the listing, and knife edges
    assert seen == {(kind, subcase) for kind in (CaseKind.CASE_A, CaseKind.CASE_B)
                    for subcase in SUBCASES}
    assert unlisted >= 1
    assert knives >= 10


def test_deep_families_verify_in_any_unit_of_money():
    # case A subcase II families up to n_u = 500 at rates e^±13.8: each member
    # has a knife-edge level, where the oracle's net benefit is rounding alone
    rng = random.Random(11)
    families = []
    while len(families) < 40:
        params, rc = _draw(rng, 13.8)
        model = validate_params(params, rc)
        coef = benefit_coefficients(model, spectral_quantities(model), rc)
        index, _, n_u, *_ = classify(coef, 1, SIGN_TOLERANCE)
        if congestion_case(model).kind is CaseKind.CASE_A and index == 1 and n_u <= 500:
            families.append((params, rc))
    members = 0
    for params, rc in families:
        for k in (-30, 0, 30):
            scaled = RewardCost(rc.reward * 2.0 ** k, rc.cost * 2.0 ** k)
            model = validate_params(params, scaled)
            spec = spectral_quantities(model)
            report = compute_equilibria(model, spec, benefit_coefficients(model, spec, scaled),
                                        scaled)
            rejected = [format_strategy(item.strategy) for item in report.equilibria
                        if not item.verification.passed]
            assert rejected == [], (params, scaled)
            members += len(report.equilibria)
    assert members >= 4000
