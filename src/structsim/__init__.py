"""Structured human-mosquito transmission dynamics: transport solver,
reproduction numbers, and endemic-equilibrium bifurcation analysis."""

__version__ = "0.1.0"

from .bifurcation import (BifurcationBranch, ReducedKernels, bifurcation_constant,
                          build_reduced_kernels, direction, dk_f, endemic_roots, f_value,
                          k_bar, reconstruct_equilibrium, solve_endemic, trace_branch)
from .characteristics import (GrowthRateResult, dominant_growth_rate, g_of_lambda,
                              volterra_decoupled)
from .config import ConfigError, load_config
from .grids import Grid, default_grid
from .params import ModelParams, ValidationReport, preset, preset_grid, validate
from .r0 import R0Report, lambda_m_for_target_r0, power_iteration_r0, r0_closed_form, \
    r0_reduced
from .rates import Arity, RateKind, RateSpec, eval_rate
from .solver import (DegeneratePopulationError, Observables, StateFields, default_initial,
                     load_snapshot, observe, save_snapshot, simulate, step)

__all__ = [name for name in dir() if not name.startswith("_")]
