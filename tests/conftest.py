import numpy as np
import pytest
from hypothesis import settings

import structsim as ss
from structsim.rates import Arity, RateSpec

# every run and every checkout draws the same examples: a property test
# fails for a drawn example in each run or in none
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


def make_params(mu_h=0.022, lambda_m=7e6, **over):
    """Preset-shaped parameter set with overridable pieces."""
    if not isinstance(mu_h, RateSpec):
        mu_h = RateSpec.constant(mu_h, Arity.AGE)
    base = dict(
        lambda_h=8.4e5, lambda_m=lambda_m, theta=3.65e4,
        mu_h=mu_h,
        mu_m=RateSpec.constant(20.0, Arity.AGE),
        nu_h=RateSpec.constant(0.1, Arity.AGE_TAU),
        nu_m=RateSpec.constant(25.0, Arity.AGE_TAU),
        gamma_h=RateSpec.piecewise(0.1, 0.0, 50.0, Arity.TAU_ONLY),
        k_h=RateSpec.piecewise(0.1, 0.0, 40.0, Arity.ETA_ONLY),
        beta_h=RateSpec.gauss(0.1, 0.3, 0.1, Arity.TAU_ONLY),
        beta_m=RateSpec.gauss_exp(0.05, 0.2, 0.2, 1.0),
    )
    base.update(over)
    return ss.ModelParams(**base)


def fast_params(**over):
    """Synthetic fast-mortality set: short axes, cheap full-mode runs."""
    base = dict(
        lambda_h=50.0, lambda_m=80.0, theta=1.0,
        mu_h=RateSpec.constant(0.8, Arity.AGE),
        mu_m=RateSpec.constant(1.2, Arity.AGE),
        nu_h=RateSpec.constant(0.3, Arity.AGE_TAU),
        nu_m=RateSpec.constant(0.5, Arity.AGE_TAU),
        gamma_h=RateSpec.piecewise(0.5, 0.0, 2.0, Arity.TAU_ONLY),
        k_h=RateSpec.piecewise(0.5, 0.0, 1.5, Arity.ETA_ONLY),
        beta_h=RateSpec.gauss(0.2, 0.6, 0.3, Arity.TAU_ONLY),
        beta_m=RateSpec.gauss_exp(0.15, 0.5, 0.4, 1.0),
    )
    base.update(over)
    return ss.ModelParams(**base)


def fast_grid(delta=0.02):
    return ss.Grid(delta=delta, a_max_h=6.0, a_max_m=5.0,
                   tau_max_h=3.0, tau_max_m=2.5, eta_max=3.0)


def random_full_state(params, grid, seed=0):
    rng = np.random.default_rng(seed)
    n_ah, n_th, n_eta = grid.n_ah, grid.n_th, grid.n_eta
    n_am, n_tm = grid.n_am, grid.n_tm
    tri = lambda n_a, n_s: np.arange(n_s)[None, :] <= np.arange(n_a)[:, None]
    return ss.StateFields(
        "full", 0.0,
        rng.uniform(0.5, 2.0, n_ah),
        rng.uniform(0.0, 1.0, (n_ah, n_th)) * tri(n_ah, n_th),
        rng.uniform(0.0, 1.0, (n_ah, n_eta)) * tri(n_ah, n_eta),
        rng.uniform(0.5, 2.0, n_am),
        rng.uniform(0.0, 1.0, (n_am, n_tm)) * tri(n_am, n_tm),
    )


@pytest.fixture(scope="session")
def forward():
    return ss.preset("forward", 7e6), ss.preset_grid("forward")


@pytest.fixture(scope="session")
def backward():
    return ss.preset("backward", 7.4e7), ss.preset_grid("backward")
