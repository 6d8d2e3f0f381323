"""Compare customer decisions under three information regimes.

A customer arriving at the clearing system may see nothing (fully
unobservable), only the regime (almost unobservable), or the regime plus
the queue length (fully observable). In the last two regimes the optimal
decision is the same because the wait until the next clearing does not
depend on how many customers are already present. The script sweeps the
service reward across the interesting range and prints the dominant
decision in each regime.
"""

from clearbalk import (
    ModelParams,
    Regime,
    RewardCost,
    critical_values,
    dominant_strategies,
    validate_params,
)

PARAMS = ModelParams(lambda1=2.0, lambda2=1.0, mu1=1.0, mu2=3.0, q12=1.0, q21=2.0)


def describe(join) -> str:
    if join is None:
        return "indifferent"
    if join == 1.0:
        return "join"
    if join == 0.0:
        return "balk"
    return f"join w.p. {join}"


def main() -> None:
    probe = validate_params(PARAMS, RewardCost(1.0, 1.0))
    crit = critical_values(probe)
    print("model:", PARAMS)
    print(f"expected wait, congested regime:  {probe.mean_clearing[0]:.4f}")
    print(f"expected wait, relieved regime:   {probe.mean_clearing[1]:.4f}")
    print(f"expected wait with no information: {crit.v_fu:.4f}")
    print()
    print("critical rewards (cost 1): join blind above "
          f"{crit.v_fu:.4f}, join in the congested regime above "
          f"{crit.v_au_max:.4f}, in the relieved regime above {crit.v_au_min:.4f}")
    print()

    header = f"{'R':>6}  {'no info':<12} {'regime info (cong/rel)':<26} {'full info':<26}"
    print(header)
    print("-" * len(header))
    for r in (0.45, 0.55, 0.65, 0.70, 0.72, 0.76, 0.80):
        rc = RewardCost(float(r), 1.0)
        model = validate_params(PARAMS, rc)
        fu, au, fo = (dominant_strategies(model, rc, regime) for regime in Regime)
        au_txt = f"{describe(au.join[0])} / {describe(au.join[1])}"
        fo_txt = f"{describe(fo.join[0])} / {describe(fo.join[1])}"
        print(f"{r:>6.2f}  {describe(fu.join):<12} {au_txt:<26} {fo_txt:<26}")
    print()
    print(f"inside the band ({crit.v_au_min:.2f}, {crit.v_au_max:.2f}) the two "
          "regimes disagree: join when relieved, balk when")
    print("congested. Queue length on top of regime information changes nothing,")
    print("because a clearing removes everyone at once regardless of the count.")


if __name__ == "__main__":
    main()
