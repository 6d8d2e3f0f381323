"""Trace how the equilibrium set changes as the service reward grows.

Two models are swept. In the first, congestion signals a long wait, so
equilibria are classic thresholds: join only while the queue is short.
In the second, heavy traffic coincides with fast clearing, longer queues
are good news, and the equilibrium inverts into join-above-a-level
behavior with a narrow mixing window in between.
"""

from clearbalk import (
    AlwaysJoin,
    ModelParams,
    RewardCost,
    benefit_coefficients,
    compute_equilibria,
    critical_values,
    format_strategy,
    h_upper_limit,
    net_benefit_ao,
    spectral_quantities,
    validate_params,
)

THRESHOLD_MODEL = ModelParams(lambda1=2.0, lambda2=1.0, mu1=1.0, mu2=3.0,
                              q12=1.0, q21=2.0)
REVERSE_MODEL = ModelParams(lambda1=1.0, lambda2=6.0, mu1=1.0, mu2=3.0,
                            q12=1.0, q21=1.0)


def sweep(params: ModelParams, rewards) -> None:
    print("model:", params)
    probe = validate_params(params, RewardCost(1.0, 1.0))
    spec = spectral_quantities(probe)
    base = benefit_coefficients(probe, spec, RewardCost(1.0, 1.0))
    crit = critical_values(probe)
    print(f"  blind-join critical reward: {crit.v_fu:.6f}")
    print(f"  join-at-empty critical reward: "
          f"{1.0 - net_benefit_ao(probe, base, AlwaysJoin(), 0).value:.6f}")
    print(f"  join-in-a-crowd critical reward: "
          f"{1.0 - h_upper_limit(base):.6f}")
    print()
    print(f"  {'R':>7}  {'case':<8} {'window':<12} equilibria")
    for r in rewards:
        rc = RewardCost(float(r), 1.0)
        model = validate_params(params, rc)
        coef = benefit_coefficients(model, spec, rc)
        report = compute_equilibria(model, spec, coef, rc, verify=False)
        b = report.bounds
        window = "-"
        if b is not None and b.n_u != float("inf"):
            window = f"[{int(b.n_l)}, {int(b.n_u)}]"
        names = ", ".join(format_strategy(i.strategy) if i.strategy is not None
                          else i.tag for i in report.equilibria)
        label = f"{report.case.kind.value}/{report.subcase.value}"
        print(f"  {r:>7.4f}  {label:<8} {window:<12} {names}")
    print()


def main() -> None:
    print("=== congestion warns: threshold equilibria ===")
    sweep(THRESHOLD_MODEL,
          [0.60, 0.66, 0.68, 0.69, 0.70, 0.72, 0.723, 0.7237, 0.75])
    print("=== congestion reassures: reverse thresholds ===")
    sweep(REVERSE_MODEL,
          [0.40, 0.45, 0.46, 0.47, 0.4723, 0.475, 0.478, 0.48, 0.50])


if __name__ == "__main__":
    main()
