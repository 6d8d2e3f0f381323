"""End-to-end acceptance checks.

Each test covers one acceptance property, prints a single
``[PASS]``/``[FAIL]`` line with the measured figures, and then asserts.
Random draws use dedicated seeds so every run is reproducible and
independent of test ordering.
"""

import json
import math
import time

import numpy as np
import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    CaseKind,
    DominantStrategySet,
    EquilibriumReport,
    MixedThreshold,
    PureThreshold,
    Regime,
    ReverseThreshold,
    RewardCost,
    Subcase,
    benefit_coefficients,
    compute_equilibria,
    critical_values,
    dominant_strategies,
    f_eval,
    g_eval,
    h_upper_limit,
    net_benefit_ao,
    simulate,
    solve_truncated_balance,
    spectral_quantities,
    stationary_distribution,
    validate_params,
    verify_equilibrium,
)
from clearbalk.cli import main as cli_main
from conftest import (
    PSTAR,
    Ctx,
    case_a_model,
    case_b_model,
    case_c_model,
    random_closed_strategy,
    random_model,
)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


def _oracle_net(model, rc, masses, n: int) -> float:
    """Net joining benefit at level n from oracle masses (Palm mixture)."""
    p = model.params
    w1 = p.lambda1 * float(masses[n, 0])
    w2 = p.lambda2 * float(masses[n, 1])
    s1, s2 = model.mean_clearing
    sojourn = (w1 * s1 + w2 * s2) / (w1 + w2)
    return rc.reward - rc.cost * sojourn


def test_acceptance_oracle_equivalence_stationary():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        model = random_model(rng)
        strategy = random_closed_strategy(rng)
        spec = spectral_quantities(model)
        dist = stationary_distribution(model, spec, strategy)
        sol = solve_truncated_balance(model, strategy)
        for n in range(min(sol.level, 30) + 1):
            for env in (1, 2):
                worst = max(worst, abs(sol.pmf(n, env) - dist.pmf(n, env)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _verdict("stationary oracle equivalence, 200 random pairs", ok,
             f"max abs err {worst:.3g}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_acceptance_reference_spot_values():
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    crit = critical_values(ctx.model)
    s1, s2 = ctx.model.mean_clearing
    checks = [
        (s1, 0.75), (s2, 0.5),
        (crit.v_fu, 0.7),
        (crit.v_au_min, 0.5), (crit.v_au_max, 0.75),
        (ctx.spec.delta, 80.0),
        (ctx.spec.z1, -3.0 + math.sqrt(5.0)),
        (ctx.spec.z2, -3.0 - math.sqrt(5.0)),
        (net_benefit_ao(ctx.model, ctx.coef, AlwaysJoin(), 0).value, 0.72 - 0.68),
        (h_upper_limit(ctx.coef), 0.72 - (5.0 + math.sqrt(5.0)) / 10.0),
    ]
    worst = max(abs(got - want) for got, want in checks)
    ok = worst < 1e-9
    _verdict("reference-model spot values", ok, f"max abs dev {worst:.3g}")
    assert worst < 1e-9


def test_acceptance_equilibrium_fixed_point():
    rng = np.random.default_rng(303)
    builders = [case_a_model, case_b_model, case_c_model, random_model]
    start = time.monotonic()
    draws = 0
    redraws = 0
    verify_failures = 0
    membership_failures = 0
    case_a_ii = 0
    while draws < 500:
        model = builders[draws % 4](rng)
        spec = spectral_quantities(model)
        base = benefit_coefficients(model, spec, RewardCost(1.0, 1.0))
        lo = min(base.a / base.d, (base.a + base.b) / (base.d + base.e))
        hi = max(base.a / base.d, (base.a + base.b) / (base.d + base.e))
        if rng.random() < 0.6:
            reward = float(rng.uniform(lo, hi))
        else:
            reward = float(0.5 * (lo + hi) * 10.0 ** rng.uniform(-0.4, 0.4))
        rc = RewardCost(reward, 1.0)
        coef = benefit_coefficients(model, spec, rc)
        report = compute_equilibria(model, spec, coef, rc, verify=True)
        if report.case.kind is CaseKind.CASE_A and report.subcase is Subcase.II:
            # keep draws in general position: membership testing at the
            # verifier's 1e-8 resolution needs margins comfortably above it,
            # and the binding level must carry visible stationary mass
            n_l, n_u = int(report.bounds.n_l), int(report.bounds.n_u)
            if n_u > 150:
                redraws += 1
                continue
            if n_l >= 1 and net_benefit_ao(model, coef, PureThreshold(n_l - 1),
                                           n_l - 1).value < 1e-7:
                redraws += 1
                continue
            if -net_benefit_ao(model, coef, AlwaysJoin(), n_u).value < 1e-7:
                redraws += 1
                continue
            probe = stationary_distribution(model, spec, PureThreshold(n_u + 1))
            if probe.pmf(n_u, 1) + probe.pmf(n_u, 2) < 1e-8:
                redraws += 1
                continue
        draws += 1
        for item in report.equilibria:
            if item.strategy is None:
                continue
            if not item.verification.passed:
                verify_failures += 1
        if report.case.kind is CaseKind.CASE_A and report.subcase is Subcase.II:
            case_a_ii += 1
            b = report.bounds
            expected = set(range(int(b.n_l), int(b.n_u) + 1))
            passing = {
                k for k in range(int(b.n_u) + 4)
                if verify_equilibrium(model, rc, PureThreshold(k)).passed
            }
            if passing != expected:
                membership_failures += 1
    elapsed = time.monotonic() - start
    ok = (verify_failures == 0 and membership_failures == 0
          and redraws < 100 and elapsed < 60.0)
    _verdict("equilibrium fixed point, 500 random draws", ok,
             f"{verify_failures} verify / {membership_failures} membership "
             f"failures, {case_a_ii} threshold-range draws, "
             f"{redraws} knife-edge redraws, {elapsed:.1f}s")
    assert verify_failures == 0
    assert membership_failures == 0
    assert redraws < 100
    assert elapsed < 60.0


def test_acceptance_worked_threshold_instance():
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    report = compute_equilibria(ctx.model, ctx.spec, ctx.coef, ctx.rc)
    b = report.bounds
    bounds_ok = (b.n_l, b.n_u, b.n_l_plus, b.n_u_minus) == (2, 3, 2, 3)
    pures = sorted(i.strategy.n0 for i in report.equilibria if i.tag == "pure")
    mixed = [i.strategy for i in report.equilibria if i.tag == "mixed"]
    set_ok = pures == [2, 3] and len(mixed) == 1 and mixed[0].n0 == 2
    theta_ok = abs(mixed[0].theta - 6.0 / 7.0) < 1e-6
    root_ok = abs(f_eval(ctx.coef, 2, mixed[0].theta)) < 1e-10
    social_ok = report.social_optimum == PureThreshold(3)
    ok = bounds_ok and set_ok and theta_ok and root_ok and social_ok
    _verdict("worked threshold instance", ok,
             f"bounds {(b.n_l, b.n_u, b.n_l_plus, b.n_u_minus)}, "
             f"theta {mixed[0].theta:.9f}" if mixed else "no mixed item")
    assert bounds_ok and set_ok and theta_ok and root_ok and social_ok


def test_acceptance_monotonicity_suites():
    rng = np.random.default_rng(505)
    thetas = [k / 10.0 for k in range(11)]
    sign_bad = hu_bad = fg_bad = recur_bad = g_bad = 0
    for builder, direction in ((case_a_model, -1), (case_b_model, 1),
                               (case_c_model, 0)):
        for _ in range(200):
            model = builder(rng)
            rc = RewardCost(float(10.0 ** rng.uniform(-0.3, 0.3)), 1.0)
            spec = spectral_quantities(model)
            coef = benefit_coefficients(model, spec, rc)

            ae_bd = coef.a * coef.e - coef.b * coef.d
            scale = (abs(coef.a) + abs(coef.b)) * (abs(coef.d) + abs(coef.e))
            if direction < 0 and not ae_bd > 0.0:
                sign_bad += 1
            elif direction > 0 and not ae_bd < 0.0:
                sign_bad += 1
            elif direction == 0 and not abs(ae_bd) <= 1e-9 * scale:
                sign_bad += 1

            hu = [net_benefit_ao(model, coef, AlwaysJoin(), n).value for n in range(31)]
            band = 1e-12 * (max(abs(v) for v in hu) + 1.0)
            for lo_v, hi_v in zip(hu, hu[1:]):
                step = hi_v - lo_v
                if direction < 0 and step > band:
                    hu_bad += 1
                elif direction > 0 and step < -band:
                    hu_bad += 1
                elif direction == 0 and abs(step) > band:
                    hu_bad += 1

            for n in (0, 10, 30):
                ratio = [f_eval(coef, n, t) / g_eval(coef, n, t) for t in thetas]
                band = 1e-12 * (max(abs(v) for v in ratio) + 1.0)
                for lo_v, hi_v in zip(ratio, ratio[1:]):
                    step = hi_v - lo_v
                    if direction < 0 and step < -band:
                        fg_bad += 1
                    elif direction > 0 and step > band:
                        fg_bad += 1
                    elif direction == 0 and abs(step) > band:
                        fg_bad += 1

            for n in (0, 7, 29):
                for t in thetas:
                    f_gap = f_eval(coef, n, t) - f_eval(coef, n, 1.0) \
                        - (1.0 - t) * f_eval(coef, n + 1, t)
                    g_gap = g_eval(coef, n, t) - g_eval(coef, n, 1.0) \
                        - (1.0 - t) * g_eval(coef, n + 1, t)
                    if abs(f_gap) > 1e-10 or abs(g_gap) > 1e-10:
                        recur_bad += 1

            for n in (0, 10, 30):
                g_vals = [g_eval(coef, n, t) for t in thetas]
                if not all(v > 0.0 for v in g_vals):
                    g_bad += 1
                if not all(b_ < a_ for a_, b_ in zip(g_vals, g_vals[1:])):
                    g_bad += 1

    ok = sign_bad == hu_bad == fg_bad == recur_bad == g_bad == 0
    _verdict("monotonicity and recurrence suites, 200 models per case", ok,
             f"violations: sign {sign_bad}, benefit-in-n {hu_bad}, "
             f"benefit-in-theta {fg_bad}, recurrence {recur_bad}, "
             f"denominator {g_bad}")
    assert sign_bad == 0
    assert hu_bad == 0
    assert fg_bad == 0
    assert recur_bad == 0
    assert g_bad == 0


def test_acceptance_structural_identities():
    rng = np.random.default_rng(606)
    worst_fu = 0.0
    worst_dispatch = 0.0
    worst_palm = 0.0
    for i in range(200):
        model = random_model(rng)
        rc = RewardCost(float(10.0 ** rng.uniform(-0.5, 0.5)),
                        float(10.0 ** rng.uniform(-0.5, 0.5)))
        spec = spectral_quantities(model)
        coef = benefit_coefficients(model, spec, rc)
        v_fu = critical_values(model).v_fu
        at_empty = net_benefit_ao(model, coef, PureThreshold(0), 0).value
        worst_fu = max(worst_fu, abs(at_empty - (rc.reward - rc.cost * v_fu)))

        # the envelopes are F/G at theta = 1 and theta = 0: r1**n cancels from
        # F/G, which takes three roundings more than net_benefit_ao's ratio
        n0 = 2 + (i % 3)
        for strategy, n, theta in ((AlwaysJoin(), 0, 1.0), (AlwaysJoin(), 2, 1.0),
                                   (AlwaysJoin(), 6, 1.0), (PureThreshold(n0), n0, 0.0)):
            got = net_benefit_ao(model, coef, strategy, n).value
            want = f_eval(coef, n, theta) / g_eval(coef, n, theta)
            worst_dispatch = max(worst_dispatch, abs(got - want) / abs(want))

        if i < 20:
            sol = solve_truncated_balance(model, AlwaysJoin())
            for n in range(9):
                if sol.pmf(n, 1) + sol.pmf(n, 2) < 1e-9:
                    continue
                want = net_benefit_ao(model, coef, AlwaysJoin(), n).value
                gap = abs(_oracle_net(model, rc, sol.masses, n) - want)
                worst_palm = max(worst_palm, gap)
            tsol = solve_truncated_balance(model, PureThreshold(4))
            want = net_benefit_ao(model, coef, PureThreshold(4), 4).value
            gap = abs(_oracle_net(model, rc, tsol.masses, 4) - want)
            worst_palm = max(worst_palm, gap)

    ok = worst_fu < 1e-10 and worst_dispatch < 1e-15 and worst_palm < 1e-8
    _verdict("structural benefit identities, 200 random models", ok,
             f"unconditional dev {worst_fu:.3g}, F/G relative dev {worst_dispatch:.3g}, "
             f"oracle Palm dev {worst_palm:.3g}")
    assert worst_fu < 1e-10
    assert worst_dispatch < 1e-15
    assert worst_palm < 1e-8


def test_acceptance_simulation_agreement():
    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    start = time.monotonic()
    est = simulate(ctx.model, ctx.rc, AlwaysJoin(),
                   horizon=1e5, seed=2026, replications=16)
    elapsed = time.monotonic() - start
    dist = stationary_distribution(ctx.model, ctx.spec, AlwaysJoin())
    inside = 0
    cells = 0
    for n in range(11):
        for env in (1, 2):
            cells += 1
            se = est.pmf_se(n, env)
            if abs(est.pmf(n, env) - dist.pmf(n, env)) <= 3.0 * se:
                inside += 1
    frac = inside / cells
    s_ok = all(
        abs(est.sojourn_by_env[e] - ctx.model.mean_clearing[e]) <=
        3.0 * est.sojourn_by_env_se[e]
        for e in (0, 1)
    )
    ok = frac >= 0.95 and s_ok and elapsed < 30.0
    _verdict("simulation agreement on the reference model", ok,
             f"{inside}/{cells} mass cells within 3 SE, sojourns "
             f"({est.sojourn_by_env[0]:.4f}, {est.sojourn_by_env[1]:.4f}), "
             f"{elapsed:.1f}s")
    assert frac >= 0.95
    assert s_ok
    assert elapsed < 30.0


def test_acceptance_reverse_threshold_uniqueness():
    rng = np.random.default_rng(808)
    shape_failures = 0
    verify_failures = 0
    mixed_root_failures = 0
    mixed_seen = 0
    for _ in range(100):
        model = case_b_model(rng)
        spec = spectral_quantities(model)
        base = benefit_coefficients(model, spec, RewardCost(1.0, 1.0))
        lo = critical_values(model).v_fu
        hi = (base.a + base.b) / (base.d + base.e)
        mode = rng.random()
        if mode < 0.45:
            reward = float(rng.uniform(lo, hi))
        elif mode < 0.7:
            reward = float(rng.uniform(0.5 * base.a / base.d, lo))
        else:
            reward = float(rng.uniform(hi, 1.5 * hi))
        rc = RewardCost(reward, 1.0)
        coef = benefit_coefficients(model, spec, rc)
        report = compute_equilibria(model, spec, coef, rc, verify=True)

        if len(report.equilibria) != 1:
            shape_failures += 1
            continue
        item = report.equilibria[0]
        strat = item.strategy
        allowed = (
            isinstance(strat, (AlwaysJoin, AlwaysBalk))
            or (isinstance(strat, ReverseThreshold) and strat.n0 == 0
                and 0.0 < strat.theta < 1.0)
        )
        if not allowed:
            shape_failures += 1
        if item.verification is None or not item.verification.passed:
            verify_failures += 1

        if isinstance(strat, ReverseThreshold):
            mixed_seen += 1
            sol = solve_truncated_balance(model, strat)
            s0 = _oracle_net(model, rc, sol.masses, 0)
            if abs(s0) >= 1e-6:
                mixed_root_failures += 1
            for n in range(1, 11):
                if _oracle_net(model, rc, sol.masses, n) <= 0.0:
                    mixed_root_failures += 1
                    break

    ok = shape_failures == 0 and verify_failures == 0 and mixed_root_failures == 0
    _verdict("reverse-threshold uniqueness, 100 random instances", ok,
             f"shape {shape_failures}, verify {verify_failures}, "
             f"root {mixed_root_failures} failures; {mixed_seen} mixed cases")
    assert shape_failures == 0
    assert verify_failures == 0
    assert mixed_root_failures == 0
    assert mixed_seen >= 20


def test_acceptance_cli_determinism_and_round_trip(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "lambda1": 2.0, "lambda2": 1.0, "mu1": 1.0, "mu2": 3.0,
        "q12": 1.0, "q21": 2.0, "R": 0.72, "C": 1.0,
    }))
    cfg = str(config)

    sim_a = tmp_path / "sim_a.json"
    sim_b = tmp_path / "sim_b.json"
    sim_args = ["simulate", "--config", cfg, "--strategy", "always-join",
                "--horizon", "2000", "--replications", "3", "--seed", "5"]
    assert cli_main(sim_args + ["--out", str(sim_a)]) == 0
    assert cli_main(sim_args + ["--out", str(sim_b)]) == 0
    deterministic = sim_a.read_bytes() == sim_b.read_bytes()

    ctx = Ctx(PSTAR, RewardCost(0.72, 1.0))
    fu_path = tmp_path / "fu.json"
    assert cli_main(["analyze", "--config", cfg, "--info-level", "fu",
                     "--format", "json", "--out", str(fu_path)]) == 0
    fu_round = (DominantStrategySet.from_dict(json.loads(fu_path.read_text()))
                == dominant_strategies(ctx.model, ctx.rc, Regime.FULLY_UNOBSERVABLE))

    eq_path = tmp_path / "eq.json"
    assert cli_main(["equilibrium", "--config", cfg, "--format", "json",
                     "--out", str(eq_path)]) == 0
    eq_round = (EquilibriumReport.from_dict(json.loads(eq_path.read_text()))
                == compute_equilibria(ctx.model, ctx.spec, ctx.coef, ctx.rc))

    stable = True
    for args, name in [
        (["stationary", "--config", cfg, "--strategy", "mixed-threshold:2:0.5"],
         "st.json"),
        (["benefit", "--config", cfg, "--strategy", "threshold:2",
          "--levels", "0..4"], "ben.json"),
    ]:
        path = tmp_path / name
        assert cli_main(args + ["--format", "json", "--out", str(path)]) == 0
        text = path.read_text()
        redump = json.dumps(json.loads(text), indent=2, sort_keys=True,
                            allow_nan=False) + "\n"
        stable = stable and redump == text

    sweep_path = tmp_path / "sweep.json"
    assert cli_main(["sweep", "--config", cfg, "--param", "R",
                     "--from", "0.6", "--to", "0.8", "--steps", "21",
                     "--format", "json", "--out", str(sweep_path)]) == 0
    rows = json.loads(sweep_path.read_text())
    grid_step = 0.01
    first_ii = next(r["value"] for r in rows if r["subcase"] == "II")
    first_iii = next(r["value"] for r in rows if r["subcase"] == "III")
    boundaries = (abs(first_ii - 0.68) <= grid_step + 1e-9
                  and abs(first_iii - 0.7236068) <= grid_step + 1e-9)

    ok = deterministic and fu_round and eq_round and stable and boundaries
    _verdict("command-line determinism and round-trips", ok,
             f"bytes identical {deterministic}, dominant {fu_round}, "
             f"equilibrium {eq_round}, payloads stable {stable}, "
             f"boundaries ({first_ii:.2f}, {first_iii:.2f})")
    assert deterministic
    assert fu_round
    assert eq_round
    assert stable
    assert boundaries
