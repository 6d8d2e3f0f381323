"""Walk through the equilibrium analysis of one clearing model.

The system alternates between a congested regime (fast arrivals, slow
clearings) and a relieved one. Customers see the queue length but not the
regime, and decide whether to join. This script reproduces the full
equilibrium picture for one parameter set and cross-checks the socially
optimal threshold by a direct welfare scan.
"""

from clearbalk import (
    AlwaysJoin,
    ModelParams,
    PureThreshold,
    RewardCost,
    benefit_coefficients,
    compute_equilibria,
    critical_values,
    format_strategy,
    net_benefit_ao,
    spectral_quantities,
    stationary_distribution,
    validate_params,
)

PARAMS = ModelParams(lambda1=2.0, lambda2=1.0, mu1=1.0, mu2=3.0, q12=1.0, q21=2.0)
RC = RewardCost(reward=0.72, cost=1.0)


def welfare_rate(model, spec, rc, strategy) -> float:
    """Long-run net benefit accrued per unit time under a join strategy.

    A joiner's expected wait depends only on the regime at the joining
    instant, so the rate is the join flow per regime weighted by that
    regime's net benefit.
    """
    dist = stationary_distribution(model, spec, strategy)
    s1, s2 = model.mean_clearing
    p = model.params
    bound = strategy.support_bound()
    top = bound if bound is not None else 200
    flow1 = sum(p.lambda1 * dist.pmf(n, 1) * strategy.join_prob(n)
                for n in range(top + 1))
    flow2 = sum(p.lambda2 * dist.pmf(n, 2) * strategy.join_prob(n)
                for n in range(top + 1))
    return flow1 * (rc.reward - rc.cost * s1) + flow2 * (rc.reward - rc.cost * s2)


def main() -> None:
    model = validate_params(PARAMS, RC)
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, RC)
    crit = critical_values(model)

    print("model:", PARAMS)
    print(f"reward R = {RC.reward}, waiting cost C = {RC.cost}")
    s1, s2 = model.mean_clearing
    print(f"mean wait by regime: {s1:.4f} (congested), {s2:.4f} (relieved)")
    print(f"blind-join expected wait V = {crit.v_fu:.4f}")
    print(f"spectral decay rates: r1 = {spec.r1:.6f}, r2 = {spec.r2:.6f}")
    print()

    print("net benefit of joining at level n when everyone joins (upper)")
    print("and when the others join only below n, capping the queue at n (lower):")
    for n in range(5):
        upper = net_benefit_ao(model, coef, AlwaysJoin(), n).value
        lower = net_benefit_ao(model, coef, PureThreshold(n), n).value
        print(f"  n = {n}:  upper {upper:+.6f}   lower {lower:+.6f}")
    print()

    report = compute_equilibria(model, spec, coef, RC, verify=True)
    print(f"congestion case {report.case.kind.value}, pattern {report.subcase.value}")
    b = report.bounds
    print(f"threshold window: n_l = {b.n_l}, n_u = {b.n_u}")
    print("equilibria:")
    for item in report.equilibria:
        verdict = "verified" if item.verification and item.verification.passed else "unverified"
        print(f"  {format_strategy(item.strategy):<24} [{item.tag}] {verdict}")
    print(f"reported social optimum: {format_strategy(report.social_optimum)}")
    print()

    # independent welfare scan: the best pure threshold should be the
    # reported social optimum
    print("welfare rate by pure threshold:")
    best_n, best_w = None, float("-inf")
    for n0 in range(int(b.n_u) + 4):
        w = welfare_rate(model, spec, RC, PureThreshold(n0))
        marker = ""
        if w > best_w:
            best_n, best_w = n0, w
            marker = "  <- best so far"
        print(f"  threshold {n0}: {w:+.6f}{marker}")
    print(f"welfare-maximizing threshold: {best_n} "
          f"(reported {format_strategy(report.social_optimum)})")


if __name__ == "__main__":
    main()
