"""Shared fixtures: reference models and random instance generators."""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from clearbalk import (
    AlwaysBalk,
    AlwaysJoin,
    JoinVector,
    MixedThreshold,
    ModelParams,
    PureThreshold,
    ReverseThreshold,
    RewardCost,
    ValidatedModel,
    benefit_coefficients,
    spectral_quantities,
    validate_params,
)

# asymmetric reference model: case A under the default reward structure
PSTAR = ModelParams(lambda1=2.0, lambda2=1.0, mu1=1.0, mu2=3.0, q12=1.0, q21=2.0)

# case B companion: faster clearing also sees the heavier arrivals
PB = ModelParams(lambda1=1.0, lambda2=6.0, mu1=1.0, mu2=3.0, q12=1.0, q21=1.0)

# fully symmetric model: case C, closed form collapses to one geometric term
P0 = ModelParams(lambda1=1.0, lambda2=1.0, mu1=1.0, mu2=1.0, q12=1.0, q21=1.0)

UNIT_RC = RewardCost(1.0, 1.0)


class Ctx:
    """Model bundle: validated model, reward structure, spectral data, coefficients."""

    def __init__(self, params: ModelParams, rc: RewardCost):
        self.rc = rc
        self.model = validate_params(params, rc)
        self.spec = spectral_quantities(self.model)
        self.coef = benefit_coefficients(self.model, self.spec, rc)


@pytest.fixture
def pstar() -> Ctx:
    return Ctx(PSTAR, RewardCost(0.72, 1.0))


@pytest.fixture
def pstar_r(request) -> Ctx:
    return Ctx(PSTAR, RewardCost(request.param, 1.0))


@pytest.fixture
def pb() -> Ctx:
    return Ctx(PB, RewardCost(0.475, 1.0))


@pytest.fixture
def p0() -> Ctx:
    return Ctx(P0, RewardCost(0.72, 1.0))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)


def random_model(rng: np.random.Generator, low: float = 0.1,
                 high: float = 10.0) -> ValidatedModel:
    """Model with all six rates log-uniform on [low, high]."""
    lo, hi = np.log10(low), np.log10(high)
    vals = (10.0 ** rng.uniform(lo, hi, size=6)).tolist()
    return validate_params(ModelParams(*vals), UNIT_RC)


def random_closed_strategy(rng: np.random.Generator):
    """Strategy from the classes with closed-form stationary laws."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return AlwaysJoin()
    if kind == 1:
        return AlwaysBalk()
    if kind == 2:
        return PureThreshold(int(rng.integers(0, 9)))
    if kind == 3:
        return MixedThreshold(int(rng.integers(0, 7)), float(rng.uniform(0.05, 0.95)))
    if rng.random() < 0.5:
        return ReverseThreshold(0, float(rng.uniform(0.05, 0.95)))
    return ReverseThreshold(int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.0)))


def random_join_vector(rng: np.random.Generator) -> JoinVector:
    """Join vector of 1 to 5 entries, each uniform on [0, 1] to three digits."""
    probs = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 6)))
    return JoinVector(tuple(round(p, 3) for p in probs.tolist()))


def random_strategy(rng: np.random.Generator):
    """Any strategy, including raw join vectors."""
    if rng.random() < 0.2:
        return random_join_vector(rng)
    return random_closed_strategy(rng)


def case_a_model(rng: np.random.Generator) -> ValidatedModel:
    """Random model with (mu1 - mu2)*(rho1 - rho2) < 0 by construction."""
    mu_small, mu_big = sorted((10.0 ** rng.uniform(-1, 1, size=2)).tolist())
    rho_small, rho_big = sorted((10.0 ** rng.uniform(-0.7, 0.7, size=2)).tolist())
    if abs(mu_small - mu_big) < 1e-6 or abs(rho_small - rho_big) < 1e-6:
        return case_a_model(rng)
    q12, q21 = (10.0 ** rng.uniform(-1, 1, size=2)).tolist()
    params = ModelParams(lambda1=rho_big * mu_small, lambda2=rho_small * mu_big,
                         mu1=mu_small, mu2=mu_big, q12=q12, q21=q21)
    return validate_params(params, UNIT_RC)


def case_b_model(rng: np.random.Generator) -> ValidatedModel:
    """Random model with (mu1 - mu2)*(rho1 - rho2) > 0 by construction."""
    mu_small, mu_big = sorted((10.0 ** rng.uniform(-1, 1, size=2)).tolist())
    rho_small, rho_big = sorted((10.0 ** rng.uniform(-0.7, 0.7, size=2)).tolist())
    if abs(mu_small - mu_big) < 1e-6 or abs(rho_small - rho_big) < 1e-6:
        return case_b_model(rng)
    q12, q21 = (10.0 ** rng.uniform(-1, 1, size=2)).tolist()
    params = ModelParams(lambda1=rho_small * mu_small, lambda2=rho_big * mu_big,
                         mu1=mu_small, mu2=mu_big, q12=q12, q21=q21)
    return validate_params(params, UNIT_RC)


def case_c_model(rng: np.random.Generator) -> ValidatedModel:
    """Random model in the uninformative case: equal mu or equal rho."""
    q12, q21 = (10.0 ** rng.uniform(-1, 1, size=2)).tolist()
    if rng.random() < 0.5:
        mu = float(10.0 ** rng.uniform(-1, 1))
        l1, l2 = (10.0 ** rng.uniform(-1, 1, size=2)).tolist()
        params = ModelParams(lambda1=l1, lambda2=l2, mu1=mu, mu2=mu, q12=q12, q21=q21)
    else:
        mu1, mu2 = (10.0 ** rng.uniform(-1, 1, size=2)).tolist()
        rho = float(10.0 ** rng.uniform(-0.7, 0.7))
        params = ModelParams(lambda1=rho * mu1, lambda2=rho * mu2,
                             mu1=mu1, mu2=mu2, q12=q12, q21=q21)
    return validate_params(params, UNIT_RC)


@contextlib.contextmanager
def time_limit(seconds: float, *what):
    """Fail the test, naming ``what``, if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"over {seconds} s: {what}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
