"""The spectral and benefit closed forms in stdlib ``decimal``, as a reference.

The formulas are the textbook ones: the mixture numerators are
mu_e*lambda_e'*z1 + K as written, without the rearrangements that keep
the package's float code free of cancellation. Evaluated with enough
digits they are a reference for that code that shares none of its
arithmetic. Each function takes the six rates in ``ModelParams`` order,
as floats, and works at ``digits`` significant digits.
"""

from __future__ import annotations

from decimal import Decimal, localcontext


def spectral(rates, digits: int = 50) -> dict[str, Decimal]:
    """The roots z1 > z2 and the mixture coefficients a1, b1, a2, b2."""
    with localcontext() as ctx:
        ctx.prec = digits
        l1, l2, mu1, mu2, q12, q21 = map(Decimal, rates)
        k = mu1 * mu2 + mu1 * q21 + mu2 * q12
        linear = l1 * (mu2 + q21) + l2 * (mu1 + q12)
        gap = l2 * (mu1 + q12) - l1 * (mu2 + q21)
        sq = (gap * gap + 4 * l1 * l2 * q12 * q21).sqrt()
        z2 = -(linear + sq) / (2 * l1 * l2)
        z1 = k / (l1 * l2 * z2)
        pe1, pe2 = q21 / (q12 + q21), q12 / (q12 + q21)
        return {"z1": z1, "z2": z2,
                "a1": (mu1 * l2 * z1 + k) * pe1 / (sq * (1 - z1)),
                "b1": -(mu1 * l2 * z2 + k) * pe1 / (sq * (1 - z2)),
                "a2": (mu2 * l1 * z1 + k) * pe2 / (sq * (1 - z1)),
                "b2": -(mu2 * l1 * z2 + k) * pe2 / (sq * (1 - z2))}


def benefit(rates, reward: float, cost: float, digits: int = 50) -> dict[str, Decimal]:
    """alpha, beta, d, e, the roots and log(r2/r1) of ``benefit_coefficients``."""
    s = spectral(rates, digits)
    with localcontext() as ctx:
        ctx.prec = digits
        l1, l2, mu1, mu2, q12, q21 = map(Decimal, rates)
        k = mu1 * mu2 + mu1 * q21 + mu2 * q12
        s1, s2 = (mu2 + q21 + q12) / k, (mu1 + q21 + q12) / k
        a = l1 * s["a1"] * s1 + l2 * s["a2"] * s2
        b = l1 * s["b1"] * s1 + l2 * s["b2"] * s2
        d = l1 * s["a1"] + l2 * s["a2"]
        e = l1 * s["b1"] + l2 * s["b2"]
        return {"alpha": Decimal(reward) * d - Decimal(cost) * a,
                "beta": Decimal(reward) * e - Decimal(cost) * b, "d": d, "e": e,
                "z1": s["z1"], "z2": s["z2"],
                "log_ratio": (1 - s["z1"]).ln() - (1 - s["z2"]).ln()}


def mixing_probability(rates, reward: float, cost: float, n0: int,
                       digits: int = 50) -> Decimal:
    """theta(n0), the root of F(n0, theta) = 0 that ``mixing_probability`` gives."""
    c = benefit(rates, reward, cost, digits)
    with localcontext() as ctx:
        ctx.prec = digits
        w1 = c["alpha"] * (1 - c["z1"])
        w2 = c["beta"] * (n0 * c["log_ratio"]).exp() * (1 - c["z2"])
        return (w1 * c["z2"] + w2 * c["z1"]) / (w1 + w2)


def upper_crossing(rates, reward: float, cost: float, tolerance: float,
                   digits: int = 50) -> Decimal:
    """The real level past which F(n, 1)/G(n, 1) < -tolerance: n_u is its ceiling."""
    c = benefit(rates, reward, cost, digits)
    with localcontext() as ctx:
        ctx.prec = digits
        c0 = c["alpha"] + Decimal(tolerance) * c["d"]
        c1 = c["beta"] + Decimal(tolerance) * c["e"]
        return (-c0 / c1).ln() / c["log_ratio"]
