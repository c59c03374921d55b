"""Tests for the quadratic testbed and the convergence-claim checks."""

import inspect
import itertools
import math

import numpy as np
import pytest

from stragglersim import rng, verify
from stragglersim.verify import (
    QuadClientSet,
    check_gap_recursion,
    check_local_grad_norm,
    closed_form_gap,
    gap_norm_bound,
    make_quad_set,
    run_gap_trace,
    run_suite,
    stationarity_rhs,
)


def _symmetric_pair(sigma_l=0.0, grad_clip=None):
    """Two mirrored quadratic clients: same curvature, centers c and -c."""
    curv = np.full((2, 2), 0.5)
    centers = np.array([[1.0, 2.0], [-1.0, -2.0]])
    return QuadClientSet(curv, centers, sigma_l=sigma_l, grad_clip=grad_clip)


# ---- testbed primitives ---- #


def test_make_quad_set_ranges_and_properties():
    quad = make_quad_set(6, 9, lipschitz=2.0, seed=3)
    assert quad.m == 6 and quad.d == 9
    assert quad.curvatures.min() >= 0.2
    assert quad.curvatures.max() <= 2.0
    assert quad.lipschitz == quad.curvatures.max()


def test_make_quad_set_validation():
    with pytest.raises(ValueError):
        make_quad_set(1, 4)
    with pytest.raises(ValueError):
        make_quad_set(4, 0)
    with pytest.raises(ValueError):
        make_quad_set(4, 4, lipschitz=0.0)
    with pytest.raises(ValueError):
        make_quad_set(4, 4, sigma_l=-0.1)
    with pytest.raises(ValueError):
        make_quad_set(4, 4, grad_clip=0.0)


def test_clipped_grad_norm_never_exceeds_cap():
    quad = make_quad_set(8, 16, grad_clip=0.3, seed=1)
    gen = rng.stream(11, rng.VERIFY, 9)
    saw_clipped = saw_free = False
    for k in range(200):
        i = int(gen.integers(quad.m))
        # alternate far-field states with states near the client's own center
        # so both oracle branches run
        scale = 5.0 if k % 2 == 0 else 0.01
        w = quad.centers[i] + gen.standard_normal(quad.d) * scale
        raw = quad.grad(i, w)
        clipped = quad.clipped_grad(i, w)
        norm = float(np.linalg.norm(clipped))
        assert norm <= 0.3 * (1.0 + 1e-12)
        if float(np.linalg.norm(raw)) > 0.3:
            saw_clipped = True
            assert norm == pytest.approx(0.3, rel=1e-12)
            # direction preserved
            assert np.allclose(clipped / norm, raw / np.linalg.norm(raw), atol=1e-12)
        else:
            saw_free = True
            assert np.array_equal(clipped, raw)
    assert saw_clipped and saw_free


def test_stoch_grad_noise_second_moment():
    # At w = c_i the deterministic part vanishes, so draws are pure noise
    # with E||noise||^2 = sigma_l^2 by construction.
    sigma_l = 0.7
    quad = QuadClientSet(
        np.full((2, 8), 1.0), np.zeros((2, 8)), sigma_l=sigma_l, grad_clip=None
    )
    gen = rng.stream(5, rng.VERIFY, 9)
    n = 20_000
    sq = np.empty(n)
    w = quad.centers[0]
    for k in range(n):
        g = quad.stoch_grad(0, w, gen.standard_normal(quad.d))
        sq[k] = float(g @ g)
    mean = sq.mean()
    se = sq.std(ddof=1) / math.sqrt(n)
    assert abs(mean - sigma_l**2) <= 4.0 * se
    assert abs(mean - sigma_l**2) <= 0.02 * sigma_l**2


def test_w_star_is_the_minimizer():
    quad = make_quad_set(8, 12, center_scale=2.0, seed=7)
    star = quad.w_star()
    assert np.linalg.norm(quad.grad_f(star)) <= 1e-12
    f_star = quad.f_star()
    gen = rng.stream(8, rng.VERIFY, 9)
    for _ in range(20):
        probe = star + gen.standard_normal(quad.d) * gen.uniform(0.01, 3.0)
        assert quad.f(probe) > f_star


def test_symmetric_pair_optimum_at_origin():
    quad = _symmetric_pair()
    assert np.allclose(quad.w_star(), 0.0, atol=1e-15)
    # f(0) = mean_i 0.5 * sum_j a_j c_ij^2 = 0.5 * 0.5 * (1 + 4) = 1.25
    assert quad.f(np.zeros(2)) == pytest.approx(1.25, abs=1e-15)
    assert quad.f_star() == pytest.approx(1.25, abs=1e-15)


# ---- gap trace mechanics ---- #


def test_run_gap_trace_validation():
    quad = make_quad_set(4, 4, seed=0)
    with pytest.raises(ValueError):
        run_gap_trace(quad, T=1, B=3, B_plus=2, T_l=1, eta_g=1.0, eta_l=0.1,
                      kappa=1.0, beta=0.5, seeds=[0])
    with pytest.raises(ValueError):
        run_gap_trace(quad, T=1, B=2, B_plus=5, T_l=1, eta_g=1.0, eta_l=0.1,
                      kappa=1.0, beta=0.5, seeds=[0])
    with pytest.raises(ValueError):
        run_gap_trace(quad, T=0, B=2, B_plus=4, T_l=1, eta_g=1.0, eta_l=0.1,
                      kappa=1.0, beta=0.5, seeds=[0])
    with pytest.raises(ValueError):
        run_gap_trace(quad, T=1, B=2, B_plus=4, T_l=0, eta_g=1.0, eta_l=0.1,
                      kappa=1.0, beta=0.5, seeds=[0])
    # the step sizes go through feast's AlgoConfig
    with pytest.raises(ValueError, match="feast_beta"):
        run_gap_trace(quad, T=1, B=2, B_plus=4, T_l=1, eta_g=1.0, eta_l=0.1,
                      kappa=1.0, beta=1.0, seeds=[0])
    with pytest.raises(ValueError, match="eta_g > 0"):
        run_gap_trace(quad, T=1, B=2, B_plus=4, T_l=1, eta_g=0.0, eta_l=0.1,
                      kappa=1.0, beta=0.5, seeds=[0])


def test_run_gap_trace_needs_a_seed():
    quad = make_quad_set(4, 4, seed=0)
    with pytest.raises(ValueError, match="at least one seed"):
        run_gap_trace(quad, T=1, B=1, B_plus=2, T_l=1, eta_g=1.0, eta_l=0.1,
                      kappa=1.0, beta=0.5, seeds=[])


def _assert_row_is_the_run(stacked, row, alone):
    """Row row of every array stacked logs is bit for bit alone's only row."""
    for name in ("w", "a", "delta_fast", "delta_slow"):
        for x, y in zip(getattr(stacked, name), getattr(alone, name), strict=True):
            assert x[row].tobytes() == y[0].tobytes(), name
    assert stacked.max_grad_norm[row] == alone.max_grad_norm[0]


def _one_seed_loop(quad, seed, *, T, B, B_plus, T_l, eta_g, eta_l, kappa, beta):
    """The gap trace of one seed taken one client and one local step at a
    time, with feast's SGD server step and auxiliary step written out."""
    gen = rng.stream(seed, rng.VERIFY, 1)
    eta_a = kappa * eta_g
    w, a = np.zeros(quad.d), np.zeros(quad.d)
    log = {"w": [w], "a": [a], "delta_fast": [], "delta_slow": []}
    max_norm = 0.0
    for _ in range(T):
        cohort = gen.choice(quad.m, size=B_plus, replace=False)
        deltas = np.empty((B_plus, quad.d))
        for pos, c in enumerate(cohort):
            w_loc = w.copy()
            for _ in range(T_l):
                g = quad.stoch_grad(int(c), w_loc, gen.standard_normal(quad.d))
                max_norm = max(max_norm, float(np.linalg.norm(g)))
                w_loc -= eta_l * g
            deltas[pos] = w - w_loc
        fast = np.zeros(B_plus, dtype=bool)
        fast[gen.choice(B_plus, size=B, replace=False)] = True
        delta_fast, delta_slow = deltas[fast].sum(axis=0), deltas[~fast].sum(axis=0)
        g_plus = (delta_fast + delta_slow) / B_plus
        a = beta * (a - eta_a * g_plus) + (1.0 - beta) * (w - eta_g * g_plus)
        w = w - eta_g * (delta_fast / B)
        for name, x in zip(log, (w, a, delta_fast, delta_slow)):
            log[name].append(x)
    return log, max_norm


@pytest.mark.parametrize("B, B_plus", [(2, 4), (1, 3), (3, 3)])
def test_stacked_seeds_reproduce_each_seed_alone(B, B_plus):
    quad = make_quad_set(8, 8, sigma_l=0.3, grad_clip=1.0, seed=0)
    kw = dict(T=6, B=B, B_plus=B_plus, T_l=3, eta_g=1.0, eta_l=0.05, kappa=1.0, beta=0.5)
    both = run_gap_trace(quad, seeds=[3, 5], **kw)
    for row, seed in enumerate((3, 5)):
        _assert_row_is_the_run(both, row, run_gap_trace(quad, seeds=[seed], **kw))
        # and each row is the one-seed loop, bit for bit
        log, max_norm = _one_seed_loop(quad, seed, **kw)
        for name, rows in log.items():
            for x, y in zip(getattr(both, name), rows, strict=True):
                assert x[row].tobytes() == y.tobytes(), (name, seed)
        assert both.max_grad_norm[row] == max_norm
    assert not np.array_equal(both.w[-1][0], both.w[-1][1])


def test_fast_selector_enumerates_fast_subsets_per_seed():
    quad = make_quad_set(8, 8, sigma_l=0.3, grad_clip=2.0, seed=0)
    kw = dict(T=4, B=2, B_plus=4, T_l=2, eta_g=1.0, eta_l=0.05, kappa=1.0, beta=0.5)
    # called once per round and seed, with that seed's stream: drawing what
    # the default draws reproduces the default run
    calls = []

    def uniform(t, gen):
        calls.append(t)
        return gen.choice(4, size=2, replace=False)

    drawn = run_gap_trace(quad, seeds=[3, 5], fast_selector=uniform, **kw)
    assert calls == [0, 0, 1, 1, 2, 2, 3, 3]
    for row, seed in enumerate((3, 5)):
        _assert_row_is_the_run(drawn, row, run_gap_trace(quad, seeds=[seed], **kw))

    # every fixed subset applies to each seed as it does alone; the first
    # round's total delta does not depend on which members are fast
    first_fast = []
    for subset in itertools.combinations(range(4), 2):
        trace = run_gap_trace(quad, seeds=[3, 5], fast_selector=lambda t, gen: subset, **kw)
        for row, seed in enumerate((3, 5)):
            alone = run_gap_trace(quad, seeds=[seed], fast_selector=lambda t, gen: subset, **kw)
            _assert_row_is_the_run(trace, row, alone)
        assert np.allclose(trace.delta_fast[0] + trace.delta_slow[0],
                           drawn.delta_fast[0] + drawn.delta_slow[0], rtol=0, atol=1e-15)
        first_fast.append(trace.delta_fast[0].tobytes())
    assert len(set(first_fast)) == 6


def test_trace_is_deterministic_in_seed():
    quad = make_quad_set(8, 8, sigma_l=0.3, grad_clip=2.0, seed=0)
    kw = dict(T=6, B=2, B_plus=4, T_l=3, eta_g=1.0, eta_l=0.05, kappa=1.0, beta=0.5)
    a = run_gap_trace(quad, seeds=[42], **kw)
    b = run_gap_trace(quad, seeds=[42], **kw)
    c = run_gap_trace(quad, seeds=[43], **kw)
    assert all(np.array_equal(x, y) for x, y in zip(a.w, b.w))
    assert all(np.array_equal(x, y) for x, y in zip(a.a, b.a))
    assert any(not np.array_equal(x, y) for x, y in zip(a.w, c.w))


def test_no_overselection_means_zero_gap():
    # B_plus == B makes the fast average equal the full average, so with
    # kappa == 1 (eta_a == eta_g) the auxiliary model tracks w exactly.
    quad = make_quad_set(8, 16, sigma_l=0.4, grad_clip=3.0, seed=2)
    trace = run_gap_trace(
        quad, T=30, B=4, B_plus=4, T_l=3, eta_g=0.7, eta_l=0.05, kappa=1.0,
        beta=0.9, seeds=[5],
    )
    for t in range(trace.T + 1):
        assert np.linalg.norm(trace.a[t] - trace.w[t]) <= 1e-12
    assert all(np.linalg.norm(d) == 0.0 for d in trace.delta_slow)


def test_closed_form_single_round():
    quad = make_quad_set(8, 8, sigma_l=0.2, grad_clip=2.0, seed=1)
    trace = run_gap_trace(
        quad, T=1, B=2, B_plus=4, T_l=2, eta_g=0.8, eta_l=0.05, kappa=1.0,
        beta=0.5, seeds=[9],
    )
    expected = 0.8 * ((1 / 2 - 1 / 4) * trace.delta_fast[0] - (1 / 4) * trace.delta_slow[0])
    assert np.allclose(closed_form_gap(trace, 1), expected, atol=1e-15)
    assert np.allclose(trace.gap(1), expected, atol=1e-12)


def test_closed_form_beta_zero_is_memoryless():
    quad = make_quad_set(8, 8, sigma_l=0.2, grad_clip=2.0, seed=1)
    trace = run_gap_trace(
        quad, T=8, B=2, B_plus=4, T_l=2, eta_g=1.0, eta_l=0.05, kappa=1.0,
        beta=0.0, seeds=[3],
    )
    for t_next in range(1, 9):
        t = t_next - 1
        expected = (1 / 2 - 1 / 4) * trace.delta_fast[t] - (1 / 4) * trace.delta_slow[t]
        assert np.allclose(closed_form_gap(trace, t_next), expected, atol=1e-15)
        assert np.allclose(trace.gap(t_next), expected, atol=1e-12)


def test_closed_form_bounds_checked():
    quad = make_quad_set(4, 4, seed=0)
    trace = run_gap_trace(quad, T=3, B=1, B_plus=2, T_l=1, eta_g=1.0, eta_l=0.1,
                          kappa=1.0, beta=0.5, seeds=[0])
    with pytest.raises(ValueError):
        closed_form_gap(trace, 0)
    with pytest.raises(ValueError):
        closed_form_gap(trace, 4)


def test_mirrored_fast_subsets_negate_the_gap():
    # With centers c and -c, identical curvature, and w0 = 0, the two clients
    # produce exactly opposite deltas, so choosing the other client as the
    # fast one flips the sign of every gap.
    quad = _symmetric_pair()
    kw = dict(T=5, B=1, B_plus=2, T_l=1, eta_g=1.0, eta_l=0.1, kappa=1.0,
              beta=0.5, seeds=[17])
    pick_first = run_gap_trace(quad, fast_selector=lambda t, gen: [0], **kw)
    pick_second = run_gap_trace(quad, fast_selector=lambda t, gen: [1], **kw)
    for t in range(1, 6):
        gap_a = pick_first.gap(t)
        gap_b = pick_second.gap(t)
        assert np.array_equal(gap_a, -gap_b)
        assert np.linalg.norm(gap_a) > 0.0


def test_max_grad_norm_respects_clip_when_noiseless():
    quad = make_quad_set(8, 8, sigma_l=0.0, grad_clip=0.5, center_scale=10.0, seed=4)
    trace = run_gap_trace(
        quad, T=5, B=2, B_plus=4, T_l=3, eta_g=1.0, eta_l=0.05, kappa=1.0,
        beta=0.5, seeds=[6],
    )
    assert trace.max_grad_norm.shape == (1,)
    assert 0.0 < trace.max_grad_norm[0] <= 0.5 * (1.0 + 1e-12)


# ---- bound formulas ---- #


def test_gap_norm_bound_arithmetic():
    # 4 * 1^2 * 0.1^2 * 2^2 * (1 - 1/2)^2 * (0.25 + 4) / (1 - 0.5)^2
    val = gap_norm_bound(eta_g=1.0, eta_l=0.1, T_l=2, beta=0.5, B=1, B_plus=2,
                         sigma_l=0.5, G=2.0)
    assert val == pytest.approx(4 * 0.01 * 4 * 0.25 * 4.25 / 0.25, rel=1e-12)


def test_gap_norm_bound_rejects_beta_of_one():
    # (1 - beta)^2 divides the bound; beta = 1 is a named error, not a ZeroDivisionError
    with pytest.raises(ValueError, match="beta must be < 1, got 1.0"):
        gap_norm_bound(eta_g=1.0, eta_l=0.1, T_l=2, beta=1.0, B=1, B_plus=2,
                       sigma_l=0.5, G=2.0)


def test_stationarity_rhs_arithmetic():
    val = stationarity_rhs(f_gap=2.0, T=100, lipschitz=1.0, sigma_l=0.5, G=2.0)
    expected = 2.0 / 10.0 + (10.0 / 10.0 + 2.5 / 100.0) * (0.25 + 4.0)
    assert val == pytest.approx(expected, rel=1e-12)


# ---- check wrappers ---- #


def test_each_check_is_registered_under_its_name_and_varies_only_its_seed():
    assert list(verify.CHECKS) == [
        "gap_recursion", "gap_zero_mean", "local_grad_norm", "gap_norm_bound",
        "stationarity_schedule", "engine_gap_recursion",
    ]
    for name, run in verify.CHECKS.items():
        assert getattr(verify, f"check_{name}") is run
        assert list(inspect.signature(run).parameters) == ["base_seed"]
        assert list(inspect.signature(run, follow_wrapped=False).parameters) == ["base_seed"]


def test_check_gap_recursion_small_run_passes():
    report = check_gap_recursion()
    assert report.passed
    assert report.measured["worst_rel_error"] <= 1e-9
    assert report.name == "gap_recursion"
    assert report.elapsed_s >= 0.0


def test_check_local_grad_norm_small_run_passes():
    report = check_local_grad_norm()
    assert report.passed
    assert 0.0 < report.measured["clipped_fraction"] < 1.0
    assert report.bound["sigma_sq_plus_G_sq"] == pytest.approx(0.25 + 25.0)


def test_run_suite_single_and_unknown():
    out = run_suite("gap_recursion")
    assert out["passed"] is True
    assert [c["name"] for c in out["checks"]] == ["gap_recursion"]
    assert out["checks"][0]["measured"]["worst_rel_error"] <= 1e-9
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")
