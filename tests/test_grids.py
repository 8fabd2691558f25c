import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structsim as ss
from structsim import grids
from structsim.grids import Grid, center_blocks, cumulative_to_centers, row_blocks
from structsim.rates import Arity, RateSpec, rate_table

from conftest import make_params


def test_grid_counts_and_centers():
    g = Grid(delta=0.005, a_max_h=1.0, a_max_m=1.5, tau_max_h=0.6,
             tau_max_m=1.5, eta_max=1.0)
    assert (g.n_ah, g.n_am, g.n_th, g.n_tm, g.n_eta) == (200, 300, 120, 300, 200)
    assert g.ages_h[0] == pytest.approx(0.0025)
    assert g.ages_h[-1] == pytest.approx(1.0 - 0.0025)


@given(n=st.integers(1, 300), n_cols=st.integers(1, 40), rows=st.integers(1, 301),
       delta=st.sampled_from([0.005, 0.01, 0.05, 0.25]))
@settings(max_examples=100, deadline=None)
def test_center_blocks_are_the_axis_in_row_blocks(n, n_cols, rows, delta):
    # blocks of ``rows`` centers, the last one ragged, concatenate to the
    # grid's axis bit for bit
    grid = Grid(delta=delta, a_max_h=n * delta, a_max_m=delta, tau_max_h=delta,
                tau_max_m=delta, eta_max=delta)
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", rows * 8 * n_cols):
        blocks = list(center_blocks(n, delta, n_cols))
        sizes = [s.stop - s.start for s in row_blocks(n, n_cols)]
    assert [len(b) for b in blocks] == sizes
    assert np.array_equal(np.concatenate(blocks), grid.ages_h)


def test_grid_rejects_bad_extents():
    with pytest.raises(ValueError, match="multiple"):
        Grid(delta=0.005, a_max_h=1.0003, a_max_m=1.5, tau_max_h=0.6,
             tau_max_m=1.5, eta_max=1.0)
    with pytest.raises(ValueError, match="delta"):
        Grid(delta=-0.1, a_max_h=1.0, a_max_m=1.5, tau_max_h=0.6,
             tau_max_m=1.5, eta_max=1.0)
    with pytest.raises(ValueError, match="exceed"):
        Grid(delta=0.1, a_max_h=1.0, a_max_m=1.0, tau_max_h=2.0,
             tau_max_m=1.0, eta_max=1.0)


def test_quadrature_error_shrinks_at_least_linearly():
    # Lipschitz integrand with a kink: |x - 1/3| on [0, 1]
    exact = (1.0 / 3) ** 2 / 2 + (2.0 / 3) ** 2 / 2
    errs = []
    for delta in (0.01, 0.005):
        xs = (np.arange(int(1 / delta)) + 0.5) * delta
        errs.append(abs(float(np.sum(np.abs(xs - 1 / 3))) * delta - exact))
    assert errs[0] / max(errs[1], 1e-18) >= 1.8


def _survival(p, g):
    """Survival from birth on both age axes, by the one survival rule."""
    return tuple(np.exp(-cumulative_to_centers(rate_table(mu, ages), g.delta))
                 for mu, ages in ((p.mu_h, g.ages_h), (p.mu_m, g.ages_m)))


def test_survival_constant_rate_closed_form():
    p = make_params(mu_h=0.022)
    g = Grid(delta=0.005, a_max_h=20.0, a_max_m=1.5, tau_max_h=0.6,
             tau_max_m=1.5, eta_max=1.0)
    pi_h, pi_m = _survival(p, g)
    # pi_h(10) = exp(-0.22), pi_m(0.5) = exp(-10) at the nearest centers
    j = int(round(10.0 / g.delta)) - 1        # center 9.9975
    assert pi_h[j] == pytest.approx(math.exp(-0.022 * g.ages_h[j]), rel=1e-12)
    assert math.exp(-0.22) == pytest.approx(0.80252, abs=5e-6)
    jm = int(round(0.5 / g.delta)) - 1
    assert pi_m[jm] == pytest.approx(math.exp(-20.0 * g.ages_m[jm]), rel=1e-12)
    assert math.exp(-10.0) == pytest.approx(4.54e-5, abs=1e-7)


def test_survival_piecewise_matches_refined_cumsum():
    # edge-aligned piecewise mortality: the cumulative hazard at centers must
    # match a 100x-refined rectangle sum to near machine precision
    mu = RateSpec.piecewise(1.0, 0.5, 2.0, Arity.AGE)
    p = make_params(mu_h=0.5)        # placeholder, only mu matters below
    g = Grid(delta=0.05, a_max_h=3.0, a_max_m=1.0, tau_max_h=0.5,
             tau_max_m=0.5, eta_max=0.5)
    rate = np.asarray(mu(g.ages_h, 0.0))
    cum = cumulative_to_centers(rate, g.delta)
    fine = 100
    xs = (np.arange(g.n_ah * fine) + 0.5) * (g.delta / fine)
    fine_rate = np.asarray(mu(xs, 0.0))
    fine_cum = np.cumsum(fine_rate) * (g.delta / fine)
    centers_idx = (np.arange(g.n_ah) + 1) * fine - fine // 2
    ref = fine_cum[centers_idx - 1]
    assert np.max(np.abs(cum - ref) / np.maximum(ref, 1e-30)) < 1e-10


def test_rate_table_repeats_a_scalar_rate():
    g = Grid(delta=0.1, a_max_h=2.0, a_max_m=1.0, tau_max_h=0.5,
             tau_max_m=0.5, eta_max=0.5)
    # a rate that reads only its second variable is one scalar at age-only
    # points, and a constant is a float; the table repeats either
    for spec, value in ((RateSpec.piecewise(0.1, 0.3, 5.0, Arity.TAU_ONLY), 0.3),
                        (RateSpec.constant(0.7, Arity.AGE_TAU), 0.7)):
        r = rate_table(spec, g.ages_h)
        assert r.shape == (g.n_ah,) and np.all(r == value)
        assert not r.flags.writeable
    r = rate_table(RateSpec.piecewise(1.0, 0.5, 2.0, Arity.AGE), g.ages_h)
    assert np.array_equal(r, np.where(g.ages_h <= 1.0, 0.5, 2.0))


def test_survival_invariants():
    p = make_params()
    g = Grid(delta=0.01, a_max_h=50.0, a_max_m=1.5, tau_max_h=0.6,
             tau_max_m=1.5, eta_max=1.0)
    for pi, mu0 in zip(_survival(p, g), (0.022, 20.0)):
        assert pi[0] <= 1.0
        assert np.all(np.diff(pi) <= 0)
        ages = (np.arange(len(pi)) + 0.5) * g.delta
        assert np.all(pi <= np.exp(-mu0 * ages) * (1 + 1e-12))


def test_default_grid_shape():
    g = ss.default_grid(0.022)
    assert g.delta == 0.005
    assert g.a_max_m == 1.5 and g.tau_max_h == 0.6 and g.eta_max == 1.0
    assert abs(g.a_max_h - 5.0 / 0.022) < g.delta


@pytest.mark.parametrize("n_offsets, n_taus", [(1, 1), (5, 3), (3, 5), (6, 6)])
def test_on_axis_is_the_triangle_below_the_end_of_the_age_axis(n_offsets, n_taus):
    # cell (x, j) lies at age x + j: on the axis below n_offsets
    want = [[x + j < n_offsets for j in range(n_taus)] for x in range(n_offsets)]
    mask = grids.on_axis(n_offsets, n_taus)
    assert mask.dtype == bool and mask.tolist() == want


@given(n_off=st.integers(1, 40), n_tau=st.integers(1, 40),
       delta=st.sampled_from([0.005, 0.05, 0.25]),
       p=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.floats(0.05, 1.0),
                   st.floats(0.0, 50.0)))
@settings(max_examples=100, deadline=None)
def test_lag_factors_are_the_lag_sample(n_off, n_tau, delta, p):
    # the outer product of the factors is the lag sample: exactly for a rate
    # that reads no age (h = 1), and for gauss_exp up to the rounding of
    # (offset + tau) - tau in its exponent; a rate that reads age alone does
    # not factor
    offsets, taus = (np.arange(n_off) + 0.5) * delta, (np.arange(n_tau) + 0.5) * delta
    amplitude, center, width, decay = p
    rate = RateSpec.gauss_exp(amplitude, center, width, decay)
    f, h = grids.lag_factors(rate, offsets, taus)
    assert f.shape == (n_tau,) and h.shape == (n_off,)
    sample = grids.lag_sample(rate, offsets[None, :], taus[:, None])
    ulps = 4 * (1 + decay * (offsets[-1] + taus[-1]))
    np.testing.assert_allclose(np.outer(f, h), sample, rtol=ulps * np.finfo(float).eps,
                               atol=np.finfo(float).tiny)
    # the factors broadcast as the sample's axes do
    assert np.array_equal(f[:, None] * h[None, :], np.outer(f, h))
    for tau_only in (RateSpec.gauss(amplitude, center, width, Arity.TAU_ONLY),
                     RateSpec.piecewise(center, amplitude, decay, Arity.AGE_TAU),
                     RateSpec.constant(amplitude, Arity.AGE_TAU)):
        f, h = grids.lag_factors(tau_only, offsets, taus)
        assert np.array_equal(h, np.ones(n_off))
        assert np.array_equal(np.outer(f, h), grids.lag_sample(tau_only, offsets[None, :],
                                                                taus[:, None]))
    for age_only in (RateSpec.gauss(amplitude, center, width, Arity.AGE),
                     RateSpec.piecewise(center, amplitude, decay, Arity.AGE)):
        assert grids.lag_factors(age_only, offsets, taus) is None


def test_gauss_exp_factor_vanishes_where_the_rate_does():
    # the indicator of gauss_exp (0 for a <= tau) is h = 0 for offset <= 0
    rate = RateSpec.gauss_exp(0.05, 0.2, 0.2, 1.0)
    offsets = np.array([-0.5, 0.0, 0.25])
    f, h = grids.lag_factors(rate, offsets, np.array([0.2]))
    assert np.array_equal(h, [0.0, 0.0, math.exp(-0.25)])
    assert np.array_equal(np.outer(f, h)[0, :2], grids.lag_sample(rate, offsets[:2], 0.2))
