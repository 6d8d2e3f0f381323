"""Every subcommand on seeded configs over the whole float range.

Rates are log-uniform in 1e-300..1e300 and R in e^-20..e^20, with C = 1;
a second draw sets mu2 = mu1, for case C.
Each call must end within ``CALL_LIMIT`` with exit 0, 2 or 3 and at most
one line on stderr, with no traceback and no warning, and write no ``nan``
token on stdout; ``sweep`` must also write the bytes of its per-point
reference.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings

from clearbalk import cli
from conftest import time_limit
from test_grid import assert_matches_reference

CONFIGS = 300

#: Configs with mu2 = mu1, and the seed of their own draw.
CASE_C_CONFIGS = 100
CASE_C_SEED = 2027

#: Seconds a single call may take.
CALL_LIMIT = 5.0

#: Most events a simulation is sized for.
EVENTS = 1e4

#: Most events the table run of ``simulate`` is sized for: it checks the
#: rendering, which a shorter run reaches as well.
TABLE_EVENTS = 1e3

#: A NaN as Python formats it, which no output may hold.
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def _draw(rng: random.Random) -> dict:
    rates = {name: math.exp(rng.uniform(math.log(1e-300), math.log(1e300)))
             for name in ("lambda1", "lambda2", "mu1", "mu2", "q12", "q21")}
    return {**rates, "R": math.exp(rng.uniform(-20.0, 20.0)), "C": 1.0}


def _commands(config: dict) -> list[list[str]]:
    # no environment has more than EVENTS events before the horizon on average
    rate = max(config["lambda1"] + config["mu1"] + config["q12"],
               config["lambda2"] + config["mu2"] + config["q21"])
    return [
        ["analyze", "--info-level", "fu"],
        ["analyze", "--info-level", "au"],
        ["analyze", "--info-level", "fo"],
        ["equilibrium"],
        ["stationary", "--strategy", "threshold:3"],
        ["stationary", "--strategy", "vector:1,0.5,0.25"],
        ["benefit", "--strategy", "threshold:3"],
        ["simulate", "--strategy", "always-join", "--horizon", repr(EVENTS / rate),
         "--replications", "1"],
        ["simulate", "--strategy", "always-join", "--horizon", repr(TABLE_EVENTS / rate),
         "--replications", "1", "--format", "table"],
    ]


def _check_every_subcommand(configs, tmp_path, monkeypatch, capsys) -> None:
    path = tmp_path / "fuzz.json"
    for config in configs:
        path.write_text(json.dumps(config))
        for argv in _commands(config):
            argv = argv[:1] + ["--config", str(path)] + argv[1:]
            with warnings.catch_warnings(), time_limit(CALL_LIMIT, argv, config):
                warnings.simplefilter("error")
                code = cli.main(argv)
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), (argv, config, code, err)
            assert err.count("\n") <= 1 and "Traceback" not in err, (argv, config, err)
            assert not NAN.search(out), (argv, config, out)
        reward = config["R"]
        argv = ["sweep", "--config", str(path), "--param", "R", "--from", repr(reward / 2),
                "--to", repr(2 * reward), "--steps", "5"]
        with warnings.catch_warnings(), time_limit(5 * CALL_LIMIT, argv, config):
            warnings.simplefilter("error")
            assert_matches_reference(monkeypatch, capsys, argv)
            code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 3) and err.count("\n") <= 1, (argv, config, code, err)
        assert not NAN.search(out), (argv, config, out)


def test_every_subcommand_ends_cleanly(tmp_path, monkeypatch, capsys):
    rng = random.Random(2026)
    _check_every_subcommand((_draw(rng) for _ in range(CONFIGS)), tmp_path, monkeypatch, capsys)


def test_every_subcommand_ends_cleanly_in_case_c(tmp_path, monkeypatch, capsys):
    # mu2 = mu1 puts a model in case C, which the draw above reaches with
    # probability zero
    rng = random.Random(CASE_C_SEED)
    configs = ({**config, "mu2": config["mu1"]}
               for config in (_draw(rng) for _ in range(CASE_C_CONFIGS)))
    _check_every_subcommand(configs, tmp_path, monkeypatch, capsys)
