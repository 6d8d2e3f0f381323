"""A one-parameter sweep evaluated as numpy columns, one pass per closed form.

``sweep_columns`` gives the cells of ``clearbalk sweep``. The six rates,
R and C are columns, and every closed form runs once over the grid in the
operation order of its scalar counterpart (``validate_params``,
``congestion_case``, ``spectral_quantities``, ``benefit_coefficients``,
``threshold_bounds``, ``critical_values``). numpy's +, -, *, / and sqrt
round as Python floats do, so a point's cells are those of the scalar
path. Where numpy's functions differ from libm the libm route is kept:
log_ratio is ``math.log1p``. A point whose quantities leave the float
range gets the ``FloatRangeError`` that ``validate_params`` or
``spectral_quantities`` raises there.

The bounds of the subcase-II points come from ``subcase_ii_levels`` on
the columns, the closed form that ``threshold_bounds`` calls on floats,
so both paths take numpy's exp and log there. Each such point's equilibrium set is listed by ``equilibrium_members`` on
its coefficients as Python floats, so mixing probabilities are the scalar
ones.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .benefit import BenefitCoefficients, benefit_coefficients, h_upper_limit
from .dominant import fully_unobservable_value
from .equilibrium import (
    SCAN_LIMIT,
    Orientation,
    Subcase,
    ThresholdBounds,
    equilibrium_members,
    past_cap,
    subcase_ii_levels,
)
from .errors import ClearbalkError, FloatRangeError
from .model import (
    CASE_TOLERANCE,
    CONFIG_FIELDS,
    CaseKind,
    ModelParams,
    RewardCost,
    ValidatedModel,
    config_inputs,
    derive_model,
    validate_params,
)
from .spectral import SpectralData, spectral_quantities
from .strategies import format_strategy

#: The fields of a sweep row, in CSV column order.
SWEEP_FIELDS = ("param", "value", "case", "subcase", "n_l", "n_u",
                "equilibria", "v_fu", "h_upper_0", "h_limit")

_KINDS = (CaseKind.CASE_A, CaseKind.CASE_B, CaseKind.CASE_C)
_SUBCASES = (Subcase.I, Subcase.II, Subcase.III)
_KIND_NAMES = tuple(kind.value for kind in _KINDS)
_SUBCASE_NAMES = tuple(subcase.value for subcase in _SUBCASES)


def _cells(kind: CaseKind, subcase: Subcase, coef: BenefitCoefficients | None = None,
           bounds: ThresholdBounds | None = None) -> tuple:
    """(n_l, n_u, equilibria) of a point; ``coef`` and ``bounds`` are read
    in subcase II of cases A and B only."""
    items, _ = equilibrium_members(kind, subcase, coef, bounds)
    listed = ("family" if items[0].strategy is None
              else ";".join(format_strategy(item.strategy) for item in items))
    if bounds is not None:
        return bounds.n_l, bounds.n_u, listed
    # the bounds' wire form: none in case C, 0 in subcase I, "inf" in III
    level = None if kind is CaseKind.CASE_C else 0 if subcase is Subcase.I else "inf"
    return level, level, listed


def _spectral(model: ValidatedModel) -> SpectralData:
    """``spectral_quantities`` on columns."""
    p, k = model.params, model.k
    l1, l2 = p.lambda1, p.lambda2
    linear = l1 * (p.mu2 + p.q21) + l2 * (p.mu1 + p.q12)
    gap = l2 * (p.mu1 + p.q12) - l1 * (p.mu2 + p.q21)
    delta = gap * gap + 4.0 * l1 * l2 * p.q12 * p.q21
    sq = np.sqrt(delta)
    z2 = -(linear + sq) / (2.0 * l1 * l2)
    z1 = k / (l1 * l2 * z2)
    pe1, pe2 = model.env_stationary
    return SpectralData(
        delta=delta, z1=z1, z2=z2, r1=1.0 / (1.0 - z1), r2=1.0 / (1.0 - z2),
        log_ratio=np.array([math.log1p(-a) - math.log1p(-b)
                            for a, b in zip(z1.tolist(), z2.tolist())]),
        a1=(p.mu1 * l2 * z1 + k) * pe1 / (sq * (1.0 - z1)),
        b1=-(p.mu1 * l2 * z2 + k) * pe1 / (sq * (1.0 - z2)),
        a2=(p.mu2 * l1 * z1 + k) * pe2 / (sq * (1.0 - z1)),
        b2=-(p.mu2 * l1 * z2 + k) * pe2 / (sq * (1.0 - z2)))


def _case_codes(model: ValidatedModel) -> np.ndarray:
    """``congestion_case`` on columns, as indices into ``_KINDS``."""
    p = model.params
    mu_diff = p.mu1 - p.mu2
    rho_diff = model.rho1 - model.rho2
    zero = ((abs(mu_diff) <= CASE_TOLERANCE * np.maximum(p.mu1, p.mu2))
            | (abs(rho_diff) <= CASE_TOLERANCE * np.maximum(model.rho1, model.rho2)))
    return np.where(zero, 2, np.where(mu_diff * rho_diff < 0.0, 0, 1))


def _band(value: np.ndarray, tolerance: float) -> np.ndarray:
    """The banded sign of ``_SignTester``: 0 inside the band, else -1 or 1 (-1 for NaN)."""
    return np.where(abs(value) <= tolerance, 0, np.where(value > 0.0, 1, -1))


def _points(coef: BenefitCoefficients, rows: np.ndarray) -> list[BenefitCoefficients]:
    """The coefficients of the points ``rows``, as Python floats."""
    fields = [getattr(coef, f.name) for f in dataclasses.fields(coef)]
    columns = [list(zip(*(c[rows].tolist() for c in v))) if isinstance(v, tuple)
               else v[rows].tolist() for v in fields]
    return [BenefitCoefficients(*values) for values in zip(*columns)]


def sweep_columns(params: ModelParams, rc: RewardCost, param: str, start: float,
                  stop: float, steps: int,
                  tolerance: float) -> tuple[dict[str, list], list[ClearbalkError]]:
    """The sweep of ``param`` over ``steps`` points from ``start`` to ``stop``,
    as one list per field of ``SWEEP_FIELDS``, and the errors of the points
    that failed, in grid order.

    The grid values are ``start + i*step``, the floats of a scalar loop. A
    point that fails keeps its value, with the equilibria cell
    ``error:<class>`` and None elsewhere.

    Raises:
        NonPositiveRate, NonPositiveRewardCost: For the first grid value
            that ``validate_params`` rejects, with its message.
    """
    fields = dict(zip(CONFIG_FIELDS, (*vars(params).values(), rc.reward, rc.cost)))
    step = (stop - start) / (steps - 1)
    values = start + np.arange(steps) * step
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        fields[param] = values[bad.argmax()].item()
        validate_params(*config_inputs(fields))
    columns = {name: np.full(steps, float(value)) for name, value in fields.items()}
    columns[param] = values
    with np.errstate(all="ignore"):
        rates, rewards = config_inputs(columns)
        model = derive_model(rates)
        spec = _spectral(model)
        coef = benefit_coefficients(model, spec, rewards)
        kind = _case_codes(model)
        h0 = (coef.alpha + coef.beta) / (coef.d + coef.e)
        h_limit = h_upper_limit(coef)
        v_fu = fully_unobservable_value(model)
        # the reverse orientation (case B) is the threshold one with F negated
        orient = np.where(kind == 0, 1, -1)
        at_zero, at_limit = _band(h0, tolerance), _band(h_limit, tolerance)
        subcase = np.where(kind == 2, at_zero + 1,
                           np.where(orient * at_zero < 0, 0,
                                    np.where(orient * at_limit >= 0, 2, 1)))
        # where validate_params or spectral_quantities raises FloatRangeError
        checked = abs(np.array([rates.lambda1 * rates.lambda2, spec.delta, spec.z2, spec.z1]))
        normal = (checked >= np.finfo(float).tiny) & (checked <= np.finfo(float).max)
        out_of_range = (model.k == 0.0) | ~normal.all(axis=0)
        search = np.flatnonzero((kind != 2) & (subcase == 1) & ~out_of_range)
        levels = [np.asarray(column)[search].tolist()
                  for column in subcase_ii_levels(coef, orient, tolerance)]

    errors = {}   # the error of each failed point, by grid index
    for i in np.flatnonzero(out_of_range).tolist():
        try:
            spectral_quantities(validate_params(*config_inputs(fields | {param: values[i]})))
        except FloatRangeError as exc:
            errors[i] = exc
    keys = list(zip(kind.tolist(), subcase.tolist()))
    # every point outside the search shares its cells with its (case, subcase)
    fixed = {(k, sub): _cells(_KINDS[k], _SUBCASES[sub])
             for k, sub in set(keys) if k == 2 or sub != 1}
    cells = [fixed.get(key, (None, None, None)) for key in keys]
    for i, point, *bounds, band in zip(search.tolist(), _points(coef, search), *levels):
        orientation = Orientation.THRESHOLD if keys[i][0] == 0 else Orientation.REVERSE
        if bounds[1] > SCAN_LIMIT:
            errors[i] = past_cap(orientation, bounds[1])
        else:
            cells[i] = _cells(_KINDS[keys[i][0]], Subcase.II, point, ThresholdBounds(
                orientation, Subcase.II, *map(int, bounds), knife_edge=band))
    out = dict(zip(SWEEP_FIELDS, (
        [param] * steps, values.tolist(), [_KIND_NAMES[k] for k, _ in keys],
        [_SUBCASE_NAMES[sub] for _, sub in keys], *map(list, zip(*cells)),
        v_fu.tolist(), h0.tolist(), h_limit.tolist())))
    for i, error in errors.items():
        for name in SWEEP_FIELDS[2:]:
            out[name][i] = None
        out["equilibria"][i] = f"error:{type(error).__name__}"
    return out, [errors[i] for i in sorted(errors)]

