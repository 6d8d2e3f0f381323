"""Per-layer call times of clearbalk on the reference model, as one JSON line.

Each layer is one call, timed with ``timeit``: the best of 5 repeats of
``--number`` calls, divided by the number, in microseconds. Without
``--number``, ``timeit``'s autorange picks it per layer (at least 0.2 s
per repeat). The model is rates (2, 1, 1, 3, 1, 2), R = 0.72, C = 1 (case
A, subcase II). ``dominant_strategies`` is timed in the fully and the
almost unobservable regime, as ``analyze --info-level fu`` and ``au`` call
it. ``compute_equilibria`` is also timed on a case B model,
rates (1, 6, 1, 3, 1, 1) and R = 0.475 (subcase II), and on a case C
model, rates (1, 1, 1, 1, 1, 1) and R = 0.72 (subcase I). The verifier is
also timed on the deepest member ``threshold:85494`` of a deep family, rates
(2.13e6, 6.58e7, 234, 1.14e-6, 5.52e-4, 5.1e-5) and R = 539. ``sweep_columns``
is one call on each of two grids of 2,001 points: the reference model over R
in 0.57..0.84, and the case B model, rates (4, 1, 3, 1, 1, 2) and R = 0.6,
over q21 in 0.095..1.05; together they cross subcases I, II and III. Three
rows split that call on the same grids: ``sweep_classified``, the per-model
functions on the grid columns up to ``classify``; ``sweep_listing``, the
members of the subcase-II points from those columns; and ``sweep_csv``, the
sweep's cells written as CSV, as ``clearbalk sweep`` writes them.
``mixing_probability`` is timed at level 2 of the reference model,
``net_benefit_ao`` at level 3 under ``threshold:3``, and ``simulate`` as one
replication of ``threshold:3`` on it, with horizon 10,000 and seed 0.
Two rows time the command-line front end on the reference model, in
process, with the JSON report written to a temporary file:
``cli_equilibrium`` (``clearbalk equilibrium``, verified) and
``cli_analyze_fu`` (``clearbalk analyze --info-level fu``).

The script imports the package from the ``src`` directory of the checkout
it lives in, so two checkouts can be timed side by side::

    python3 tools/layer_times.py
    python3 tools/layer_times.py --number 1     # a quick smoke run

This is not the benchmark (``perfbench/``): it times single calls in
process, where the benchmark times CLI operations end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from clearbalk import (  # noqa: E402
    AlwaysJoin,
    JoinVector,
    ModelParams,
    PureThreshold,
    SIGN_TOLERANCE,
    Regime,
    RewardCost,
    benefit_coefficients,
    compute_equilibria,
    congestion_case,
    dominant_strategies,
    net_benefit_ao,
    spectral_quantities,
    stationary_distribution,
    validate_params,
)
from clearbalk.cli import _cells_text, _sweep_cells, main as cli_main  # noqa: E402
from clearbalk.equilibrium import classify, mixing_probability  # noqa: E402
from clearbalk.grid import _listed, sweep_columns  # noqa: E402
from clearbalk.model import (CONFIG_FIELDS, config_inputs, congestion_sign,  # noqa: E402
                             derive_model)
from clearbalk.spectral import derive_spectral  # noqa: E402
from clearbalk.oracle.balance import solve_truncated_balance  # noqa: E402
from clearbalk.oracle.simulate import simulate  # noqa: E402
from clearbalk.oracle.verify import verify_equilibrium  # noqa: E402

RATES = ModelParams(2.0, 1.0, 1.0, 3.0, 1.0, 2.0)
RC = RewardCost(0.72, 1.0)
#: The other congestion cases, as (rates, reward structure), by name
OTHER_CASES = {"case_b": (ModelParams(1.0, 6.0, 1.0, 3.0, 1.0, 1.0), RewardCost(0.475, 1.0)),
               "case_c": (ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0), RC)}
#: A case A subcase II model whose bound n_u is 85,494, with its reward structure
DEEP = (ModelParams(2.13e6, 6.58e7, 234.0, 1.14e-6, 5.52e-4, 5.1e-5), RewardCost(539.0, 1.0))
#: The sweep grids, as (rates, reward structure, param, from, to)
GRIDS = ((RATES, RC, "R", 0.57, 0.84),
         (ModelParams(4.0, 1.0, 3.0, 1.0, 1.0, 2.0), RewardCost(0.6, 1.0), "q21", 0.095, 1.05))
GRID_STEPS = 2001
#: Simulated time of the one timed replication
SIM_HORIZON = 1e4
REPEAT = 5


def unverified(rates: ModelParams, rc: RewardCost):
    """A call of ``compute_equilibria(verify=False)`` on the model ``rates``."""
    model = validate_params(rates, rc)
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, rc)
    return lambda: compute_equilibria(model, spec, coef, rc, verify=False)


def config_fields(rates: ModelParams, rc: RewardCost) -> dict:
    """The config of a model, by field name."""
    return dict(zip(CONFIG_FIELDS, (*vars(rates).values(), rc.reward, rc.cost)))


def grid_columns(rates: ModelParams, rc: RewardCost, param: str, start: float,
                 stop: float) -> dict:
    """The config columns of a sweep grid of ``GRID_STEPS`` points."""
    fields = config_fields(rates, rc)
    columns = {name: np.full(GRID_STEPS, float(value)) for name, value in fields.items()}
    columns[param] = np.linspace(start, stop, GRID_STEPS)
    return columns


def classified(columns: dict) -> tuple:
    """(coefficients, congestion sign, ``classify``) of the grid ``columns``, as
    ``sweep_columns`` computes them."""
    with np.errstate(all="ignore"):
        rates, rewards = config_inputs(columns)
        model = derive_model(rates)
        coef = benefit_coefficients(model, derive_spectral(model), rewards)
        case = congestion_sign(model)
        return coef, case, classify(coef, -case, SIGN_TOLERANCE)


def sweep_stages() -> dict:
    """The timed calls that split ``sweep_columns`` on ``GRIDS``, by layer name."""
    columns = [grid_columns(*grid) for grid in GRIDS]
    listings = []
    for coef, case, (subcase, *levels) in map(classified, columns):
        rows = np.flatnonzero((case != 0) & (subcase == 1))   # subcase II of cases A and B
        listings.append((coef, case, rows, levels))
    cells = [sweep_columns(*grid, GRID_STEPS, SIGN_TOLERANCE)[0] for grid in GRIDS]
    return {
        "sweep_classified": lambda: [classified(grid) for grid in columns],
        "sweep_listing": lambda: [_listed(*listing) for listing in listings],
        "sweep_csv": lambda: [_cells_text(_sweep_cells(grid), "csv") for grid in cells],
    }


def cli_calls(directory: Path) -> dict:
    """The timed ``clearbalk`` calls on the reference model, by row name; the
    config and the reports are files in ``directory``."""
    config = directory / "config.json"
    config.write_text(json.dumps(config_fields(RATES, RC)))
    calls = {}
    for name, argv in (("cli_equilibrium", ["equilibrium"]),
                       ("cli_analyze_fu", ["analyze", "--info-level", "fu"])):
        argv = [*argv, "--config", str(config), "--format", "json", "--out",
                str(directory / name)]
        if cli_main(argv) != 0:
            raise RuntimeError(f"clearbalk {' '.join(argv)} failed")
        calls[name] = lambda argv=argv: cli_main(argv)
    return calls


def layers(directory: Path) -> dict:
    """The timed calls, by layer name; the CLI calls write their files in ``directory``."""
    model = validate_params(RATES, RC)
    spec = spectral_quantities(model)
    coef = benefit_coefficients(model, spec, RC)
    deep_model = validate_params(*DEEP)
    return {
        "validate": lambda: validate_params(RATES, RC),
        "spectral": lambda: spectral_quantities(model),
        "congestion_case": lambda: congestion_case(model),
        "coefficients": lambda: benefit_coefficients(model, spec, RC),
        "dominant_fu": lambda: dominant_strategies(model, RC, Regime.FULLY_UNOBSERVABLE),
        "dominant_au": lambda: dominant_strategies(model, RC, Regime.ALMOST_UNOBSERVABLE),
        "classify": lambda: classify(coef, 1, SIGN_TOLERANCE),
        "mixing_probability": lambda: mixing_probability(coef, 2),
        "net_benefit_threshold_3": lambda: net_benefit_ao(model, coef, PureThreshold(3), 3),
        "compute_equilibria_unverified": unverified(RATES, RC),
        **{f"compute_equilibria_unverified_{name}": unverified(*inputs)
           for name, inputs in OTHER_CASES.items()},
        "compute_equilibria_verified":
            lambda: compute_equilibria(model, spec, coef, RC, verify=True),
        "stationary_threshold_3": lambda: stationary_distribution(model, spec, PureThreshold(3)),
        "stationary_vector": lambda: stationary_distribution(model, spec,
                                                             JoinVector((1.0, 0.5, 0.25))),
        "balance_always_join": lambda: solve_truncated_balance(model, AlwaysJoin()),
        "verify_always_join": lambda: verify_equilibrium(model, RC, AlwaysJoin()),
        "balance_threshold_3": lambda: solve_truncated_balance(model, PureThreshold(3)),
        "verify_threshold_3": lambda: verify_equilibrium(model, RC, PureThreshold(3)),
        "verify_deep_threshold_85494":
            lambda: verify_equilibrium(deep_model, DEEP[1], PureThreshold(85494)),
        "sweep_columns": lambda: [sweep_columns(*grid, GRID_STEPS, SIGN_TOLERANCE)
                                  for grid in GRIDS],
        **sweep_stages(),
        "simulate_threshold_3": lambda: simulate(model, RC, PureThreshold(3), SIM_HORIZON,
                                                 seed=0, replications=1),
        **cli_calls(directory),
    }


def best_us(call, number: int | None) -> float:
    """Best of ``REPEAT`` timings of ``number`` calls, per call, in microseconds."""
    timer = timeit.Timer(call)
    if number is None:
        number, _ = timer.autorange()
    return min(timer.repeat(REPEAT, number)) / number * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, help="calls per repeat (default: autorange)")
    args = parser.parse_args(argv)
    if args.number is not None and args.number < 1:
        parser.error("--number must be at least 1")
    with tempfile.TemporaryDirectory() as directory:
        times = {name: round(best_us(call, args.number), 2)
                 for name, call in layers(Path(directory)).items()}
    print(json.dumps({"model": [*vars(RATES).values(), RC.reward, RC.cost],
                      "repeat": REPEAT, "number": args.number, "us": times}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
