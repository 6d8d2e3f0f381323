"""A one-parameter sweep evaluated as numpy columns.

``sweep_columns`` gives the cells of ``clearbalk sweep``. The six rates, R
and C are columns, and the per-model functions run on them as on floats,
from ``derive_model`` to ``classify``, so a point's cells are those of the
scalar path. What is left here is grid work: the grid values, the error
rows of the points outside ``in_float_range`` (each with the error that the
scalar path raises there), the members of the subcase-II points of cases A
and B from their level and theta columns, and the cells of ``equilibrium_members``
at the first point of each other (case, subcase), for all its points.
"""

from __future__ import annotations

import numpy as np

from .benefit import BenefitCoefficients, benefit_coefficients
from .dominant import fully_unobservable_value
from .equilibrium import (MIXED, SCAN_LIMIT, SUBCASES, arrival_masses, classify,
                          equilibrium_members, listed_levels, mixing_probability)
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
from .strategies import AlwaysBalk, AlwaysJoin, PureThreshold, descriptor, format_strategy

#: The fields of a sweep row, in CSV column order.
SWEEP_FIELDS = ("param", "value", "case", "subcase", "n_l", "n_u",
                "equilibria", "v_fu", "h_upper_0", "h_limit")


def _cells(key: tuple, coef: BenefitCoefficients | None, row: tuple) -> tuple:
    """(case, subcase, n_l, n_u, equilibria) of a point by ``equilibrium_members``, with
    ``key`` its (index into CASE_OF_SIGN, subcase index) and ``row`` its levels and band."""
    kind = CASE_OF_SIGN[key[0]]
    subcase, bounds, items, _ = equilibrium_members(kind, coef, key[1], row[:4], row[4])
    listed = ("family" if items[0].strategy is None
              else ";".join(format_strategy(item.strategy) for item in items))
    wire = {} if bounds is None else bounds.to_dict()
    return kind.value, subcase.value, wire.get("n_l"), wire.get("n_u"), listed


def _rows(columns: list, rows: np.ndarray) -> list[tuple]:
    """The values of ``columns`` at ``rows``, a tuple of Python numbers per row."""
    return list(zip(*(column[rows].tolist() for column in columns)))


def _take(coef: BenefitCoefficients, rows) -> BenefitCoefficients:
    """The coefficients of the points ``rows`` as columns, or of one, an int, as floats."""
    def take(column):
        return column[rows] if isinstance(rows, np.ndarray) else column[rows].item()
    return BenefitCoefficients(*(tuple(map(take, v)) if isinstance(v, tuple) else take(v)
                                 for v in vars(coef).values()))


def _listed(coef: BenefitCoefficients, case: np.ndarray, rows: np.ndarray,
            classified: list) -> tuple[dict[int, tuple], np.ndarray]:
    """The cells of the subcase-II points ``rows`` of cases A and B by grid index, listing
    ``listed_levels``, and the positions in ``rows`` of those of case B whose theta rounds
    onto 0 or 1, which ``equilibrium_members`` lists on their own coefficients."""
    orient, levels = -case[rows], [level[rows].astype(np.int64) for level in classified[:4]]
    first, end, low, high, join = listed_levels(orient, *levels)
    count = np.maximum(high - low, 0)   # of mixed candidates, at levels low..high-1
    point = np.repeat(np.arange(rows.size), count)
    with np.errstate(all="ignore"):
        theta = mixing_probability(_take(coef, rows[point]), np.arange(point.size, dtype=float)
                                   + (low + count - np.cumsum(count))[point])
    lone = (descriptor(AlwaysBalk), descriptor(AlwaysJoin))
    heads = {o: (CASE_OF_SIGN[1 - o].value, SUBCASES[1].value) for o in (1, -1)}   # by orient
    cells, done, thetas = {}, 0, theta.tolist()
    for i, o, a, b, c, n, j, n_l, n_u in zip(*(column.tolist() for column in (
            rows, orient, first, end, low, count, join, *levels[:2]))):
        texts = [descriptor(PureThreshold, n0) for n0 in range(a, b)]
        for n0, value in zip(range(c, c + n), thetas[done:done + n]):
            if value == value:
                texts.append(descriptor(MIXED[o], n0, value))
        cells[i], done = (*heads[o], n_l, n_u, ";".join(texts) or lone[j]), done + n
    return cells, point[np.isnan(theta) & (orient[point] < 0)]


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
    for i in massless.tolist():
        try:
            classify(_take(coef, i), -int(case[i]), tolerance)
        except FloatRangeError as exc:
            errors[i] = exc
    keys = list(zip((case + 1).tolist(), subcase.tolist()))
    _, first = np.unique(3 * case + subcase, return_index=True)   # of each (case, subcase)
    shared = {keys[i]: _cells(keys[i], None, row)
              for i, row in zip(first.tolist(), _rows(classified, first)) if not own[i]}
    rows = search[classified[1][search] <= SCAN_LIMIT]   # one past it raises, point by point
    listed, rounded = _listed(coef, case, rows, classified)
    cells = [listed.get(i) or shared.get(key, (None,) * 5) for i, key in enumerate(keys)]
    per_point = np.union1d(np.setdiff1d(search, rows), rows[rounded])
    for i, row in zip(per_point.tolist(), _rows(classified, per_point)):
        try:
            cells[i] = _cells(keys[i], _take(coef, i), row)
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

