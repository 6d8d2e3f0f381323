"""A one-parameter sweep evaluated as numpy columns.

``sweep_columns`` gives the cells of ``clearbalk sweep``. The six rates, R
and C are columns, and the per-model functions run on them as on floats,
from ``derive_model`` to ``classify``, so a point's cells are those of the
scalar path. What is left here is grid work: the grid values, the error
rows of the points outside ``in_float_range`` (each with the error that the
scalar path raises there), and the member listing of each subcase-II
point, by ``equilibrium_members`` on its coefficients as Python floats.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .benefit import BenefitCoefficients, benefit_coefficients
from .dominant import fully_unobservable_value
from .equilibrium import (
    SCAN_LIMIT,
    SUBCASES,
    Orientation,
    Subcase,
    ThresholdBounds,
    classify,
    equilibrium_members,
    past_cap,
)
from .errors import ClearbalkError, FloatRangeError
from .model import (
    CASE_OF_SIGN,
    CONFIG_FIELDS,
    CaseKind,
    ModelParams,
    RewardCost,
    config_inputs,
    congestion_sign,
    derive_model,
    validate_params,
)
from .spectral import derive_spectral, in_float_range, spectral_quantities
from .strategies import format_strategy

#: The fields of a sweep row, in CSV column order.
SWEEP_FIELDS = ("param", "value", "case", "subcase", "n_l", "n_u",
                "equilibria", "v_fu", "h_upper_0", "h_limit")


def _cells(kind: CaseKind, subcase: Subcase, coef: BenefitCoefficients | None = None,
           bounds: ThresholdBounds | None = None) -> tuple:
    """(case, subcase, n_l, n_u, equilibria) of a point; ``coef`` and
    ``bounds`` are read in subcase II of cases A and B only."""
    items, _ = equilibrium_members(kind, subcase, coef, bounds)
    listed = ("family" if items[0].strategy is None
              else ";".join(format_strategy(item.strategy) for item in items))
    if bounds is not None:
        return kind.value, subcase.value, bounds.n_l, bounds.n_u, listed
    # the bounds' wire form: none in case C, 0 in subcase I, "inf" in III
    level = None if kind is CaseKind.CASE_C else 0 if subcase is Subcase.I else "inf"
    return kind.value, subcase.value, level, level, listed


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
        spec = derive_spectral(model)
        coef = benefit_coefficients(model, spec, rewards)
        case = congestion_sign(model)
        v_fu = fully_unobservable_value(model)
        # orient = -case: 1 in case A, -1 in case B, 0 in case C
        subcase, *levels, h0, h_limit = classify(coef, -case, tolerance)
        out_of_range = ~in_float_range(model, spec)
        search = np.flatnonzero((case != 0) & (subcase == 1) & ~out_of_range)
        levels = [column[search].tolist() for column in levels]

    errors = {}   # the error of each failed point, by grid index
    for i in np.flatnonzero(out_of_range).tolist():
        try:
            spectral_quantities(validate_params(*config_inputs(fields | {param: values[i]})))
        except FloatRangeError as exc:
            errors[i] = exc
    # (index into CASE_OF_SIGN, index into SUBCASES) of each point
    keys = list(zip((case + 1).tolist(), subcase.tolist()))
    # every point outside the search shares its cells with its (case, subcase)
    fixed = {(k, sub): _cells(CASE_OF_SIGN[k], SUBCASES[sub])
             for k, sub in set(keys)
             if CASE_OF_SIGN[k] is CaseKind.CASE_C or SUBCASES[sub] is not Subcase.II}
    cells = [fixed.get(key, (None,) * 5) for key in keys]
    for i, point, *bounds, band in zip(search.tolist(), _points(coef, search), *levels):
        kind = CASE_OF_SIGN[keys[i][0]]
        orientation = Orientation.THRESHOLD if kind is CaseKind.CASE_A else Orientation.REVERSE
        if bounds[1] > SCAN_LIMIT:
            errors[i] = past_cap(orientation, bounds[1])
        else:
            cells[i] = _cells(kind, Subcase.II, point, ThresholdBounds(
                orientation, Subcase.II, *map(int, bounds), knife_edge=band))
    out = dict(zip(SWEEP_FIELDS, (
        [param] * steps, values.tolist(), *map(list, zip(*cells)),
        v_fu.tolist(), h0.tolist(), h_limit.tolist())))
    for i, error in errors.items():
        for name in SWEEP_FIELDS[2:]:
            out[name][i] = None
        out["equilibria"][i] = f"error:{type(error).__name__}"
    return out, [errors[i] for i in sorted(errors)]

