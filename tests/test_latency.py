"""Tests for the Monte Carlo latency model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stragglersim import rng
from stragglersim.data import DatasetConfig, build_dataset
from stragglersim.latency import (
    PDPE_SCENARIO,
    PDPE_STANDARD_PROFILE,
    PDPE_STRAGGLER_PROFILE,
    PE_MODE,
    PE_PROFILE,
    LatencyProfile,
    LatencyScenario,
    LognormalParams,
    latency_percentiles,
    nearest_rank_percentile,
    sample_client_latency,
    sample_lognormal,
    sample_lognormal_batch,
)

ALL_PROFILES = {
    "pe": PE_PROFILE,
    "pdpe_standard": PDPE_STANDARD_PROFILE,
    "pdpe_straggler": PDPE_STRAGGLER_PROFILE,
}


def test_zero_sigma_returns_exp_mu_exactly():
    params = LognormalParams(mu=2.7, sigma=0.0)
    gen = rng.stream(0, rng.LATENCY, 0)
    assert sample_lognormal(params, gen) == math.exp(2.7)


def test_zero_sigma_still_consumes_one_draw():
    # Stream positions must not depend on sigma, so a degenerate factor
    # burns its normal draw like any other.
    gen = sample_stream = rng.stream(3, rng.LATENCY, 5)
    sample_lognormal(LognormalParams(mu=1.0, sigma=0.0), gen)
    after = sample_stream.standard_normal()
    fresh = rng.stream(3, rng.LATENCY, 5)
    fresh.standard_normal()  # skip the draw the sample consumed
    assert after == fresh.standard_normal()


def test_factor_order_is_comm_then_per_example_then_overhead():
    profile = PDPE_STRAGGLER_PROFILE
    gen = rng.stream(11, rng.LATENCY, 2)
    sample = sample_client_latency(PDPE_SCENARIO.profile_for(True), gen)

    manual = rng.stream(11, rng.LATENCY, 2)
    comm = math.exp(profile.comm.mu + profile.comm.sigma * manual.standard_normal())
    per_ex = math.exp(
        profile.per_example.mu + profile.per_example.sigma * manual.standard_normal()
    )
    overhead = math.exp(
        profile.overhead.mu + profile.overhead.sigma * manual.standard_normal()
    )
    assert sample.comm_s == comm
    assert sample.per_example_s == per_ex
    assert sample.overhead_s == overhead
    assert sample.total_s(40) == comm + overhead + per_ex * 40


def test_total_composition():
    gen = rng.stream(0, rng.LATENCY, 9)
    sample = sample_client_latency(PE_PROFILE, gen)
    assert sample.total_s(17) == sample.comm_s + sample.overhead_s + sample.per_example_s * 17
    assert sample.total_s(17, comm_scale=2.0) == (
        2.0 * sample.comm_s + sample.overhead_s + sample.per_example_s * 17
    )


def test_zero_examples_drops_per_example_term():
    gen = rng.stream(0, rng.LATENCY, 9)
    sample = sample_client_latency(PE_PROFILE, gen)
    assert sample.total_s(0) == sample.comm_s + sample.overhead_s


def test_group_profile_selection():
    assert PDPE_SCENARIO.profile_for(False) is PDPE_STANDARD_PROFILE
    assert PDPE_SCENARIO.profile_for(True) is PDPE_STRAGGLER_PROFILE
    assert LatencyScenario(PE_MODE, PE_PROFILE, PE_PROFILE).profile_for(True) is PE_PROFILE


@pytest.mark.parametrize("name", sorted(ALL_PROFILES))
def test_builtin_medians_match_exp_mu(name):
    # The median of exp(mu + sigma Z) is exp(mu); a million draws pin it
    # to well under a percent for every factor of every builtin profile.
    profile = ALL_PROFILES[name]
    gen = rng.stream(0, rng.LATENCY, 0)
    for params in (profile.comm, profile.per_example, profile.overhead):
        draws = sample_lognormal_batch(params, gen, 1_000_000)
        assert np.median(draws) == pytest.approx(math.exp(params.mu), rel=0.01)


def test_nearest_rank_small_oracle():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    assert nearest_rank_percentile(values, 50.0) == 2.0
    assert nearest_rank_percentile(values, 25.0) == 1.0
    assert nearest_rank_percentile(values, 75.0) == 3.0
    assert nearest_rank_percentile(values, 95.0) == 4.0
    assert nearest_rank_percentile(values, 100.0) == 4.0
    # 10 percent of 4 values rounds up to the 1st order statistic.
    assert nearest_rank_percentile(values, 10.0) == 1.0


def test_nearest_rank_is_exact_for_integer_percentiles():
    # 7 / 100 * 100 is 7.000000000000001, whose ceiling is the next rank; the
    # product pct * N is exact for an integer pct. At N = 18,700 (the acceptance
    # datasets' 374 clients x 50 time-limit draws) pct / 100 * N misses for
    # pct 7, 14, 17, 28, 34, 56, 68 and 81.
    assert nearest_rank_percentile(np.arange(1.0, 101.0), 7.0) == 7.0
    for n in (1, 3, 100, 3180, 18700):
        values = np.arange(1.0, n + 1.0)
        for pct in range(1, 101):
            assert nearest_rank_percentile(values, float(pct)) == -(-pct * n // 100), (n, pct)


def test_nearest_rank_ignores_input_order():
    values = np.array([9.0, 1.0, 5.0])
    assert nearest_rank_percentile(values, 50.0) == 5.0
    assert nearest_rank_percentile(values, 1.0) == 1.0


def test_nearest_rank_single_value():
    assert nearest_rank_percentile(np.array([7.5]), 50.0) == 7.5


@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    ),
    pct=st.floats(min_value=0.001, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_nearest_rank_matches_ceil_formula(values, pct):
    arr = np.array(values)
    got = nearest_rank_percentile(arr, pct)
    ordered = sorted(values)
    rank = math.ceil(pct * len(values) / 100.0)
    assert got == ordered[rank - 1]
    assert got in values


@given(
    mu=st.floats(min_value=-10.0, max_value=10.0),
    sigma=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=100, deadline=None)
def test_samples_are_always_positive(mu, sigma, seed):
    gen = rng.stream(seed, rng.LATENCY, 0)
    assert sample_lognormal(LognormalParams(mu=mu, sigma=sigma), gen) > 0.0


def test_pdpe_straggler_to_standard_median_ratio_band():
    # With the builtin profiles and default shard sizes, stragglers run a
    # few times slower than standard clients at the median, landing in a
    # band that leaves room for sampling noise but catches swapped or
    # misscaled profiles.
    dataset = build_dataset(DatasetConfig(), seed=0)
    gen = rng.stream(0, rng.LATENCY, 0)
    table = latency_percentiles(PDPE_SCENARIO, dataset, gen, epochs=50)
    ratio = table["straggler"][50.0] / table["standard"][50.0]
    assert 2.0 <= ratio <= 3.5


def test_percentile_table_covers_the_reported_levels():
    dataset = build_dataset(DatasetConfig(m_clients=40, n_straggler_clients=10), seed=1)
    gen = rng.stream(0, rng.LATENCY, 0)
    table = latency_percentiles(PDPE_SCENARIO, dataset, gen, epochs=5)
    for group in ("standard", "straggler"):
        assert list(table[group]) == [50.0, 95.0, 99.0]
        assert table[group][50.0] <= table[group][95.0] <= table[group][99.0]


def test_pe_mode_requires_matching_profiles():
    with pytest.raises(ValueError):
        LatencyScenario("pe", PE_PROFILE, PDPE_STRAGGLER_PROFILE)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        LatencyScenario("fast", PE_PROFILE, PE_PROFILE)


def test_teacher_download_factor_below_one_rejected():
    with pytest.raises(ValueError):
        LatencyScenario("pe", PE_PROFILE, PE_PROFILE, teacher_download_factor=0.5)


def test_parameter_validation():
    with pytest.raises(ValueError):
        LognormalParams(mu=float("nan"), sigma=1.0)
    with pytest.raises(ValueError):
        LognormalParams(mu=0.0, sigma=-0.1)
    with pytest.raises(ValueError):
        sample_client_latency(PE_PROFILE, rng.stream(0, rng.LATENCY, 0)).total_s(-1)
    with pytest.raises(ValueError):
        nearest_rank_percentile(np.array([]), 50.0)
    with pytest.raises(ValueError):
        nearest_rank_percentile(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        nearest_rank_percentile(np.array([1.0]), 101.0)
