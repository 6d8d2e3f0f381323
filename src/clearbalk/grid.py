"""A one-parameter sweep evaluated as numpy columns.

``sweep_columns`` gives the cells of ``clearbalk sweep``. The six rates, R
and C are columns, and the per-model functions run on them as on floats,
from ``derive_model`` to ``classify``, so a point's cells are those of the
scalar path. What is left here is grid work: the grid values, the error
rows of the points outside ``in_float_range`` (each with the error that the
scalar path raises there), and the cells of ``equilibrium_members``: on its
own coefficients at each subcase-II point of cases A and B, as Python floats,
and at the first point of each other (case, subcase), for all its points.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .benefit import BenefitCoefficients, benefit_coefficients
from .dominant import fully_unobservable_value
from .equilibrium import arrival_masses, classify, equilibrium_members
from .errors import ClearbalkError, FloatRangeError, ScanLimitExceeded
from .model import (
    CASE_OF_SIGN,
    CONFIG_FIELDS,
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


def _cells(key: tuple, coef: BenefitCoefficients | None, row: tuple, encode: bool) -> tuple:
    """(case, subcase, n_l, n_u, equilibria) of a point by ``equilibrium_members``, with
    ``key`` its (index into CASE_OF_SIGN, subcase index) and ``row`` its levels and band.
    ``encode`` puts the bounds in their wire form; the ints of subcase II are their own."""
    kind = CASE_OF_SIGN[key[0]]
    subcase, bounds, items, _ = equilibrium_members(kind, coef, key[1], row[:4], row[4])
    listed = ("family" if items[0].strategy is None
              else ";".join(format_strategy(item.strategy) for item in items))
    wire = {} if bounds is None else bounds.to_dict() if encode else vars(bounds)
    return kind.value, subcase.value, wire.get("n_l"), wire.get("n_u"), listed


def _rows(columns: list, rows: np.ndarray) -> list[tuple]:
    """The values of ``columns`` at ``rows``, a tuple of Python numbers per row."""
    return list(zip(*(column[rows].tolist() for column in columns)))


def _points(coef: BenefitCoefficients, rows: np.ndarray) -> list[BenefitCoefficients]:
    """The coefficients of the points ``rows``, as Python floats."""
    fields = [getattr(coef, f.name) for f in dataclasses.fields(coef)]
    columns = [_rows(v, rows) if isinstance(v, tuple) else v[rows].tolist() for v in fields]
    return [BenefitCoefficients(*values) for values in zip(*columns)]


def sweep_columns(params: ModelParams, rc: RewardCost, param: str, start: float,
                  stop: float, steps: int,
                  tolerance: float) -> tuple[dict[str, list], list[ClearbalkError]]:
    """The sweep of ``param`` over ``steps`` points from ``start`` to ``stop``,
    as one list per field of ``SWEEP_FIELDS``, and the errors of the points
    that failed, in grid order.

    The grid values are ``start + i*step``, the floats of a scalar loop, or
    the nearer end where that rounds to 0.0 or overflows. A point that fails
    keeps its value, with the equilibria cell ``error:<class>`` and None elsewhere.

    Raises:
        InputError: For the lower end, else the upper, as given, where it
            is not a finite number > 0, with the message of ``validate_params``.
    """
    fields = dict(zip(CONFIG_FIELDS, (*vars(params).values(), rc.reward, rc.cost)))
    ends = sorted((start, stop))
    for end in ends:   # refused as given, not as rounded grid values
        if not 0.0 < end < np.inf:
            validate_params(*config_inputs(fields | {param: end}))
    with np.errstate(over="ignore"):
        values = start + np.arange(steps) * ((stop - start) / (steps - 1))
    off = ~(np.isfinite(values) & (values > 0.0))
    values[off] = np.clip(values[off], *ends)
    columns = {name: np.full(steps, float(value)) for name, value in fields.items()}
    columns[param] = values
    with np.errstate(all="ignore"):
        rates, rewards = config_inputs(columns)
        model = derive_model(rates)
        spec = derive_spectral(model)
        coef = benefit_coefficients(model, spec, rewards)
        case = congestion_sign(model)
        v_fu = fully_unobservable_value(model)
        # orient = -case (1 in case A, -1 in B, 0 in C); classified: the levels and band
        subcase, *classified, h0, h_limit = classify(coef, -case, tolerance)
        out_of_range = ~in_float_range(model, spec)
        massless = np.flatnonzero(~out_of_range & np.logical_or.reduce(
            [mass == 0.0 for mass in arrival_masses(coef, -case).values()]))
        own = (case != 0) & (subcase == 1)   # subcase II of cases A and B
        search = np.setdiff1d(np.flatnonzero(own & ~out_of_range), massless)

    errors = {}   # the error of each failed point, by grid index
    for i in np.flatnonzero(out_of_range).tolist():
        try:
            spectral_quantities(validate_params(*config_inputs(fields | {param: values[i]})))
        except FloatRangeError as exc:
            errors[i] = exc
    for i, point in zip(massless.tolist(), _points(coef, massless)):
        try:
            classify(point, -int(case[i]), tolerance)
        except FloatRangeError as exc:
            errors[i] = exc
    keys = list(zip((case + 1).tolist(), subcase.tolist()))
    _, first = np.unique(3 * case + subcase, return_index=True)   # of each (case, subcase)
    shared = {keys[i]: _cells(keys[i], None, row, encode=True)
              for i, row in zip(first.tolist(), _rows(classified, first)) if not own[i]}
    cells = [shared.get(key, (None,) * 5) for key in keys]
    for i, point, row in zip(search.tolist(), _points(coef, search), _rows(classified, search)):
        try:
            cells[i] = _cells(keys[i], point, row, encode=False)
        except ScanLimitExceeded as exc:
            errors[i] = exc
    out = dict(zip(SWEEP_FIELDS, (
        [param] * steps, values.tolist(), *map(list, zip(*cells)),
        v_fu.tolist(), h0.tolist(), h_limit.tolist())))
    for i, error in errors.items():
        for name in SWEEP_FIELDS[2:]:
            out[name][i] = None
        out["equilibria"][i] = f"error:{type(error).__name__}"
    return out, [errors[i] for i in sorted(errors)]

