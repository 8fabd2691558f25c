import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structsim as ss
from structsim import grids
from structsim.params import _scan
from structsim.rates import Arity, RateKind, RateSpec, eval_rate, rate_table

from conftest import make_params

SQ2PI = math.sqrt(2 * math.pi)


def test_constant():
    spec = RateSpec.constant(0.022)
    assert eval_rate(spec, 3.0) == 0.022
    assert np.all(eval_rate(spec, np.linspace(0, 10, 5)) == 0.022)


def test_piecewise_threshold():
    gamma = RateSpec.piecewise(0.1, 0.0, 50.0, Arity.TAU_ONLY)
    assert eval_rate(gamma, 0.0, 0.05) == 0.0
    assert eval_rate(gamma, 0.0, 0.2) == 50.0
    assert eval_rate(gamma, 0.0, 0.1) == 0.0    # boundary belongs to the low side


def test_gaussian_center_value():
    # peak of the human->mosquito profile: amplitude / sqrt(2 pi)
    beta_h = RateSpec.gauss(0.1, 0.3, 0.1, Arity.TAU_ONLY)
    assert eval_rate(beta_h, 0.0, 0.3) == pytest.approx(0.1 / SQ2PI, rel=1e-12)
    assert 0.1 / SQ2PI == pytest.approx(0.0398942, abs=1e-7)


def test_gauss_exp_indicator_zero_when_age_below_infection_age():
    beta_m = RateSpec.gauss_exp(0.05, 0.2, 0.2, 1.0)
    assert eval_rate(beta_m, 0.2, 0.3) == 0.0
    assert eval_rate(beta_m, 0.3, 0.3) == 0.0   # equality included
    val = eval_rate(beta_m, 0.4, 0.3)
    expect = 0.05 / SQ2PI * math.exp(-0.5 * ((0.3 - 0.2) / 0.2) ** 2) * math.exp(-0.1)
    assert val == pytest.approx(expect, rel=1e-12)


def test_gauss_exp_array_broadcast():
    beta_m = RateSpec.gauss_exp(0.05, 0.2, 0.2, 1.0)
    a = np.array([[0.1], [0.5]])
    tau = np.array([[0.2, 0.4]])
    out = eval_rate(beta_m, a, tau)
    assert out.shape == (2, 2)
    assert out[0, 0] == 0.0 and out[0, 1] == 0.0
    assert out[1, 0] > 0 and out[1, 1] > 0


def test_table_rate_interpolates():
    spec = RateSpec.table([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    assert eval_rate(spec, 0.5) == pytest.approx(1.0)
    assert eval_rate(spec, 5.0) == pytest.approx(2.0)   # clamped


def test_parameter_validation():
    with pytest.raises(ValueError, match="negative parameter"):
        RateSpec.constant(-1.0)
    with pytest.raises(ValueError, match="width"):
        RateSpec.gauss(0.1, 0.3, 0.0)
    with pytest.raises(ValueError):
        RateSpec(RateKind.PIECEWISE_CONSTANT, Arity.TAU_ONLY, (0.1, 0.0))
    with pytest.raises(ValueError):
        RateSpec.table([0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("name", ["mu_h", "mu_m", "nu_h", "nu_m", "gamma_h", "k_h"])
def test_a_removal_rate_reads_at_most_one_axis(name):
    # the rule the config parser keeps for gauss_exp holds in the library: a
    # removal rate that reads both axes is refused by name, so survival always
    # factors into an age part and a structure-age part
    both = RateSpec.gauss_exp(0.3, 0.4, 0.5, 0.8)
    with pytest.raises(ValueError, match=f"removal rate {name} reads both"):
        make_params(**{name: both})
    # transmission probabilities are not removal rates
    assert make_params(beta_h=both, beta_m=both).beta_h is both


def test_age_dependence_flags():
    assert not RateSpec.constant(1.0).depends_on_age
    assert not RateSpec.piecewise(0.1, 0, 50, Arity.TAU_ONLY).depends_on_age
    assert RateSpec.gauss_exp(0.05, 0.2, 0.2, 1.0).depends_on_age
    assert RateSpec.gauss(0.1, 0.3, 0.1, Arity.AGE).depends_on_age
    # scalar forms on a pair read the second variable only, as eval_rate does
    for arity in (Arity.AGE_TAU, Arity.AGE_ETA):
        spec = RateSpec.piecewise(0.1, 0, 50, arity)
        assert not spec.depends_on_age
        assert eval_rate(spec, 0.0, 0.2) == eval_rate(spec, 7.0, 0.2) == 50.0


_SCALAR_KINDS = ("constant", "piecewise", "gauss", "table")


def _spec(kind, arity, p):
    x, y, z, w = p
    if kind == "constant":
        return RateSpec.constant(x, arity)
    if kind == "piecewise":
        return RateSpec.piecewise(x, y, z, arity)
    if kind == "gauss":
        return RateSpec.gauss(x, y, z + 0.05, arity)
    if kind == "table":
        return RateSpec.table([0.0, x + 0.01, x + z + 0.02], [y, z, w], arity)
    return RateSpec.gauss_exp(x, y, z + 0.05, w)


@given(kind_arity=st.sampled_from([(k, a) for k in _SCALAR_KINDS for a in Arity]
                                  + [("gauss_exp", Arity.AGE_TAU)]),
       p=st.tuples(*[st.floats(0.0, 3.0)] * 4),
       n_a=st.integers(1, 40), n_s=st.integers(1, 30), delta=st.floats(0.01, 0.5),
       rows=st.integers(1, 41))
@settings(max_examples=300, deadline=None)
def test_read_axes_scans_match_full_grid(kind_arity, p, n_a, n_s, delta, rows):
    spec = _spec(*kind_arity, p)
    ages = (np.arange(n_a) + 0.5) * delta
    seconds = (np.arange(n_s) + 0.5) * delta
    axes = (ages[:, None], seconds[None, :])
    # a sample has the shape of the axes the rate reads: () for a constant
    read = [np.shape(x) for x, reads in zip(axes, spec.reads) if reads]
    assert np.shape(eval_rate(spec, *axes)) == np.broadcast_shapes(*read)
    # the table is the rate evaluated on every cell
    full = rate_table(spec, *axes)
    cells = [np.array(x) for x in np.broadcast_arrays(*axes)]
    assert np.array_equal(full, np.broadcast_to(eval_rate(spec, *cells), (n_a, n_s)))
    reach = rate_table(spec, ages[:, None] + seconds[None, :], seconds[None, :])
    # the scans run over blocks of ``rows`` age centers, the last one ragged
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", rows * 8 * n_s):
        lo, hi, total = _scan(spec, n_a, delta, seconds)
        assert (lo, hi) == (full.min(), full.max())
        assert total == pytest.approx(float(np.sum(full)), rel=1e-12)
        lo, hi, total = _scan(spec, n_a, delta, seconds, grids.lag_sample)
        if spec.kind is RateKind.GAUSSIAN_EXP_INDICATOR:
            # scanned on its factors, whose product is the sample up to the
            # rounding of (offset + tau) - tau (see grids.lag_factors)
            ulps = 4 * (1 + spec.params[3] * (ages[-1] + seconds[-1]))
            np.testing.assert_allclose((lo, hi), (reach.min(), reach.max()),
                                       rtol=ulps * np.finfo(float).eps, atol=np.finfo(float).tiny)
        else:
            assert (lo, hi) == (reach.min(), reach.max())
        assert total == pytest.approx(float(np.sum(reach)), rel=1e-12)


@pytest.mark.parametrize("block_ages", [1, 7, 50])
def test_a_factored_lag_scan_reads_its_age_factor_in_blocks(block_ages):
    # gauss_exp on the lag samples is scanned on its factors, h a block of
    # ages at a time: the extremes and the sum of every block count
    spec = RateSpec.gauss_exp(0.3, 0.2, 0.2, 4.0)
    n_a, delta = 50, 0.03
    ages, taus = (np.arange(n_a) + 0.5) * delta, (np.arange(30) + 0.5) * delta
    reach = rate_table(spec, ages[:, None] + taus[None, :], taus[None, :])
    with mock.patch.object(grids, "ROW_BLOCK_BYTES", 8 * block_ages):
        lo, hi, total = _scan(spec, n_a, delta, taus, grids.lag_sample)
    np.testing.assert_allclose((lo, hi), (reach.min(), reach.max()), rtol=1e-14)
    assert total == pytest.approx(float(np.sum(reach)), rel=1e-13)


@given(a=st.floats(0, 50), second=st.floats(0, 50),
       amp=st.floats(0.01, 1.0), center=st.floats(0, 2), width=st.floats(0.01, 2),
       decay=st.floats(0, 5))
@settings(max_examples=200, deadline=None)
def test_eval_pure_nonnegative_deterministic(a, second, amp, center, width, decay):
    spec = RateSpec.gauss_exp(amp, center, width, decay)
    v1 = eval_rate(spec, a, second)
    v2 = eval_rate(spec, a, second)
    assert v1 == v2                       # bit-identical on repeat
    assert v1 >= 0.0
    if a <= second:
        assert v1 == 0.0


def test_validate_scans_an_age_reading_transmission_in_row_blocks():
    # beta_h reading age on the benchmark's human age axis (50 000 x 120
    # cells, 48 MB a table): validate scans its range and its reachable mass
    # a block of ages at a time and never holds the table
    params = make_params(mu_h=RateSpec.piecewise(40.0, 0.02, 0.024, Arity.AGE),
                         beta_h=RateSpec.gauss_exp(0.1, 0.3, 0.1, 0.01))
    grid = ss.Grid(delta=0.005, a_max_h=250.0, a_max_m=1.5, tau_max_h=0.6,
                   tau_max_m=1.5, eta_max=1.0)
    table = grid.n_ah * grid.n_th * 8
    tracemalloc.start()
    try:
        report = ss.validate(params, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, str(report)
    assert peak < table / 4, f"validate peaked at {peak / table:.2f} tables"
