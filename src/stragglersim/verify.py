"""Numerical verification of the auxiliary-model convergence analysis.

The analysis makes claims about the gap between the fast global model w and
the auxiliary model a when both are driven by the same client deltas:

  * an exact closed form for a_t - w_t as a geometric sum of past fast and
    straggler delta differences (checked to near machine precision),
  * zero mean of that gap when the fast subset of each cohort is uniformly
    random,
  * a second-moment bound on the local stochastic gradients (sigma_l^2 + G^2),
  * a worst-case bound on E||a_t - w_t||^2, and
  * a stationarity rate: with eta_g * eta_l * T_l / 2 = 1/sqrt(T) the mean
    squared gradient norm at the auxiliary iterates falls like 1/sqrt(T),
    below (f(a_0) - f*)/sqrt(T) + (10/sqrt(T) + 2.5 L^2/T)(sigma_l^2 + G^2).

These are checked on a synthetic population of quadratic clients

    F_i(w) = 0.5 * (w - c_i)^T A_i (w - c_i),   A_i diagonal, 0 < a <= L,

because every quantity the claims mention is available in closed form:
the global optimum, the Lipschitz constant, exact full gradients, and a
stochastic gradient oracle (radial clip to G plus isotropic noise with
E||noise||^2 = sigma_l^2 exactly, from standard normals the caller draws).

The trace runner samples its own cohorts and bypasses the event engine:
the claims assume uniformly sampled cohorts and a uniformly chosen fast
subset of every cohort, with every dispatched client reporting, which
matches an infinite straggler-folding deadline rather than latency-ordered
completion; it runs a check's seeds as one stack of (d,) rows. But w and a
take the engine's own steps (algorithms.server_apply and algorithms.aux_step),
so the checks hold FeAST's code to the analysis. One check, engine_gap_recursion,
reads the gap recursion off the engine's own traced FeAST runs instead.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import algorithms, engine, rng
from .config import ConfigError, ExperimentConfig, ModelConfig
from .data import DatasetConfig


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(x, x))


@dataclass(frozen=True)
class QuadClientSet:
    """Population of quadratic objectives with a stochastic gradient oracle.

    The oracle takes one client i and w (d,), or stacked clients i (...) and
    w (..., d), and draws nothing. A set whose rows are already a cohort's,
    curvatures and centers (..., d), takes i = ... for all of them.
    """

    curvatures: np.ndarray  # (m, d) diagonal entries in (0, L]
    centers: np.ndarray  # (m, d)
    sigma_l: float
    grad_clip: float | None

    @property
    def m(self) -> int:
        return self.curvatures.shape[0]

    @property
    def d(self) -> int:
        return self.curvatures.shape[-1]

    @property
    def lipschitz(self) -> float:
        return float(self.curvatures.max())

    def grad(self, i: int | np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.curvatures[i] * (w - self.centers[i])

    def clipped_grad(self, i: int | np.ndarray, w: np.ndarray) -> np.ndarray:
        g = self.grad(i, w)
        if self.grad_clip is not None:
            norm = _row_norms(g)[..., None]
            g = g * (self.grad_clip / np.maximum(norm, self.grad_clip))
        return g

    def stoch_grad(self, i: int | np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Clipped gradient plus isotropic noise with E||noise||^2 = sigma_l^2,
        scaled from the caller's standard normals z, shaped like w."""
        return self.clipped_grad(i, w) + (self.sigma_l / math.sqrt(self.d)) * z

    def f(self, w: np.ndarray) -> float:
        diff = w - self.centers
        return float(0.5 * (self.curvatures * diff * diff).sum() / self.m)

    def grad_f(self, w: np.ndarray) -> np.ndarray:
        return (self.curvatures * (w - self.centers)).mean(axis=0)

    def w_star(self) -> np.ndarray:
        # Diagonal curvatures make the average objective separable.
        return (self.curvatures * self.centers).mean(axis=0) / self.curvatures.mean(axis=0)

    def f_star(self) -> float:
        return self.f(self.w_star())


def make_quad_set(
    m: int,
    d: int,
    *,
    sigma_l: float = 0.0,
    grad_clip: float | None = None,
    seed: int = 0,
) -> QuadClientSet:
    """Random population with curvatures uniform in [0.1, 1] and standard
    normal centers."""
    if m < 2 or d < 1:
        raise ValueError(f"need m >= 2 and d >= 1, got m={m}, d={d}")
    if sigma_l < 0:
        raise ValueError(f"need sigma_l >= 0, got {sigma_l}")
    if grad_clip is not None and grad_clip <= 0:
        raise ValueError("grad_clip must be > 0 when set")
    gen = rng.stream(seed, rng.VERIFY, 0)
    curvatures = gen.uniform(0.1, 1.0, size=(m, d))
    centers = gen.standard_normal((m, d))
    return QuadClientSet(curvatures, centers, sigma_l=sigma_l, grad_clip=grad_clip)


@dataclass
class GapTrace:
    """Logged (seeds, d) rows from two-timescale runs on the quad testbed."""

    B: int
    B_plus: int
    eta_g: float
    beta: float
    max_grad_norm: np.ndarray  # (seeds,) largest local stochastic gradient norm
    w: list[np.ndarray] = field(default_factory=list)
    a: list[np.ndarray] = field(default_factory=list)
    delta_fast: list[np.ndarray] = field(default_factory=list)
    delta_slow: list[np.ndarray] = field(default_factory=list)

    @property
    def T(self) -> int:
        return len(self.delta_fast)

    def gap(self, t: int) -> np.ndarray:
        return self.a[t] - self.w[t]


def run_gap_trace(
    quad: QuadClientSet,
    *,
    T: int,
    B: int,
    B_plus: int,
    T_l: int,
    eta_g: float,
    eta_l: float,
    kappa: float,
    beta: float,
    seeds: list[int] | range,
    fast_selector=None,
) -> GapTrace:
    """Run T rounds for each seed: sample B_plus clients, T_l local steps each,
    advance w on a uniformly chosen fast subset of B, fold everyone into the
    auxiliary update (all dispatched clients report). Row s of each logged
    array is what seeds[s] gives alone, though every local step, server_apply
    and aux_step runs once on the stacked rows, under feast's AlgoConfig (an
    SGD server, no EMA), which rejects invalid eta_g, kappa and beta.

    fast_selector(t, gen) -> B positions is a test seam for enumerating fast
    subsets, called with each seed's stream; the default is a uniform draw.
    """
    if not 1 <= B <= B_plus <= quad.m:
        raise ValueError(f"need 1 <= B <= B_plus <= m, got {B}, {B_plus}, {quad.m}")
    if T < 1 or T_l < 1 or len(seeds) < 1:
        raise ValueError("need T >= 1, T_l >= 1 and at least one seed")
    algo = algorithms.AlgoConfig("feast", eta_g=eta_g, kappa=kappa, feast_beta=beta)
    n = len(seeds)
    cohort = np.empty((n, B_plus), dtype=np.int64)
    z = np.empty((n, B_plus, T_l, quad.d))
    fast = np.empty((n, B_plus), dtype=bool)
    pick = fast_selector or (lambda t, gen: gen.choice(B_plus, size=B, replace=False))

    def draw_rounds(s: int, seed: int):  # refill row s each round from the seed's stream
        gen = rng.stream(seed, rng.VERIFY, 1)
        for t in range(T):
            cohort[s] = gen.choice(quad.m, size=B_plus, replace=False)
            gen.standard_normal(out=z[s])
            fast[s] = False
            fast[s, pick(t, gen)] = True
            yield

    state = algorithms.ServerState(np.zeros((n, quad.d)), algo)
    trace = GapTrace(B=B, B_plus=B_plus, eta_g=eta_g, beta=beta, max_grad_norm=np.zeros(n),
                     w=[state.w.copy()], a=[state.aux.copy()])
    for _ in zip(*map(draw_rounds, range(n), seeds)):  # each pass draws every seed's round
        w_loc = np.repeat(state.w[:, None], B_plus, axis=1)
        # the round's cohort, gathered once: its (seeds, B_plus, d) rows are
        # the oracle's clients, all of them at every step
        members = replace(
            quad, curvatures=quad.curvatures[cohort], centers=quad.centers[cohort]
        )
        for step in range(T_l):
            g = members.stoch_grad(..., w_loc, z[:, :, step])
            trace.max_grad_norm = np.maximum(trace.max_grad_norm, _row_norms(g).max(axis=1))
            w_loc -= eta_l * g
        # fast members first, each group in cohort order, as a mask picks them
        order = np.argsort(~fast, axis=1, kind="stable")
        deltas = np.take_along_axis(state.w[:, None] - w_loc, order[:, :, None], axis=1)
        delta_fast = deltas[:, :B].sum(axis=1)
        delta_slow = deltas[:, B:].sum(axis=1)

        state.aux = algorithms.aux_step(state.aux, state.w, delta_fast + delta_slow, B_plus, algo)
        algorithms.server_apply(state, delta_fast, B)

        trace.w.append(state.w.copy())
        trace.a.append(state.aux.copy())
        trace.delta_fast.append(delta_fast)
        trace.delta_slow.append(delta_slow)
    return trace


@dataclass
class CheckReport:
    """Outcome of one verification check."""

    name: str
    passed: bool
    measured: dict[str, float]
    bound: dict[str, float]
    detail: str
    elapsed_s: float = 0.0


CHECKS: dict[str, Callable[..., CheckReport]] = {}


def check(fn: Callable[[int], tuple]) -> Callable[..., CheckReport]:
    """Register fn(base_seed) -> (passed, measured, bound, detail) in CHECKS
    under its name without the check_ prefix; the registered check times the
    call and reports it as a CheckReport. Sizes and bounds are fixed in each
    check, so base_seed is the one thing a caller varies."""
    name = fn.__name__.removeprefix("check_")

    @functools.wraps(fn)
    def run(*, base_seed: int = 0) -> CheckReport:
        start = time.monotonic()
        passed, measured, bound, detail = fn(base_seed)
        return CheckReport(name, passed, measured, bound, detail, time.monotonic() - start)

    CHECKS[name] = run
    return run


# The round schedule of the gap and stationarity checks: 2 of 4 dispatched
# clients are fast, 4 local steps each, beta = B / B_plus. The stationarity
# check sets its own eta_l for each horizon.
_GAP_SCHEDULE = dict(B=2, B_plus=4, T_l=4, eta_g=1.0, eta_l=0.05, kappa=1.0, beta=0.5)


def _seeded_gap_trace(
    base_seed: int, *, n_seeds: int, T: int, d: int, sigma_l: float, clip: float
) -> GapTrace:
    """The gap checks' run: 8 quadratic clients in d dimensions drawn from
    base_seed, traced under _GAP_SCHEDULE for the n_seeds seeds after it."""
    quad = make_quad_set(8, d, sigma_l=sigma_l, grad_clip=clip, seed=base_seed)
    seeds = range(base_seed + 1, base_seed + 1 + n_seeds)
    return run_gap_trace(quad, T=T, seeds=seeds, **_GAP_SCHEDULE)


def closed_form_gap(trace: GapTrace, t_next: int) -> np.ndarray:
    """a_{t+1} - w_{t+1} recomputed from logged deltas:

        eta_g * sum_{k=0..t} beta^k [ (1/B - 1/B_plus) * delta_fast[t-k]
                                      - (1/B_plus) * delta_slow[t-k] ]
    """
    if not 1 <= t_next <= trace.T:
        raise ValueError(f"t_next must be in [1, {trace.T}], got {t_next}")
    t = t_next - 1
    coef_fast = 1.0 / trace.B - 1.0 / trace.B_plus
    coef_slow = 1.0 / trace.B_plus
    total = np.zeros_like(trace.w[0])
    for k in range(t + 1):
        term = coef_fast * trace.delta_fast[t - k] - coef_slow * trace.delta_slow[t - k]
        total += (trace.beta**k) * term
    return trace.eta_g * total


@check
def check_gap_recursion(base_seed: int) -> tuple:
    """The measured a_t - w_t must match the closed form every round."""
    n_seeds, T, tol = 5, 50, 1e-9
    trace = _seeded_gap_trace(base_seed, n_seeds=n_seeds, T=T, d=32, sigma_l=0.2, clip=5.0)
    worst = 0.0
    for t_next in range(1, T + 1):
        lhs = trace.gap(t_next)
        rhs = closed_form_gap(trace, t_next)
        scale = np.maximum(np.maximum(_row_norms(lhs), _row_norms(rhs)), 1e-15)
        worst = max(worst, float((_row_norms(lhs - rhs) / scale).max()))
    detail = f"{n_seeds} seeds x {T} rounds, B={trace.B}, B_plus={trace.B_plus}"
    return worst <= tol, {"worst_rel_error": worst}, {"tol": tol}, detail


@check
def check_gap_zero_mean(base_seed: int) -> tuple:
    """Per-coordinate mean of the final gap must sit within 3 standard errors
    of zero for at least 99% of coordinates."""
    n_seeds, T, d = 200, 30, 256
    trace = _seeded_gap_trace(base_seed, n_seeds=n_seeds, T=T, d=d, sigma_l=0.2, clip=5.0)
    gaps = trace.gap(T)
    mean = gaps.mean(axis=0)
    se = gaps.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    within = np.abs(mean) <= 3.0 * se + 1e-15
    fraction = float(within.mean())
    measured = {"fraction_within_3se": fraction, "max_abs_mean": float(np.abs(mean).max())}
    detail = f"{n_seeds} seeds, {d} coordinates, T={T}"
    return fraction >= 0.99, measured, {"required_fraction": 0.99}, detail


@check
def check_local_grad_norm(base_seed: int) -> tuple:
    """E||stochastic gradient||^2 must not exceed sigma_l^2 + G^2 (+3 SE)."""
    n_draws, sigma_l, grad_clip = 100_000, 0.5, 5.0
    quad = make_quad_set(8, 64, sigma_l=sigma_l, grad_clip=grad_clip, seed=base_seed)
    gen = rng.stream(base_seed, rng.VERIFY, 2)
    idx = gen.integers(quad.m, size=n_draws)
    # States spread so that clipping binds on most draws but not all, keeping
    # the bound strict while both oracle branches are exercised.
    w = gen.standard_normal((n_draws, quad.d)) * 0.5
    clipped = np.linalg.norm(quad.grad(idx, w), axis=1) > grad_clip
    g = quad.stoch_grad(idx, w, gen.standard_normal(w.shape))
    sq = (g * g).sum(axis=1)
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_draws))
    bound = sigma_l**2 + grad_clip**2
    measured = {"mean_sq_norm": mean, "se": se, "clipped_fraction": float(clipped.mean())}
    detail = f"{n_draws} draws, sigma_l={sigma_l}, G={grad_clip}"
    return mean <= bound + 3.0 * se, measured, {"sigma_sq_plus_G_sq": bound}, detail


def gap_norm_bound(
    *, eta_g: float, eta_l: float, T_l: int, beta: float, B: int, B_plus: int,
    sigma_l: float, G: float,
) -> float:
    """Worst-case bound on E||a_t - w_t||^2, for a mixing weight beta < 1."""
    if not beta < 1.0:
        raise ValueError(f"beta must be < 1, got {beta}")
    return (
        4.0
        * eta_g**2
        * eta_l**2
        * T_l**2
        * (1.0 - B / B_plus) ** 2
        * (sigma_l**2 + G**2)
        / (1.0 - beta) ** 2
    )


@check
def check_gap_norm_bound(base_seed: int) -> tuple:
    """Mean squared gap (plus 3 SE) must stay below the worst-case bound at
    every logged round."""
    n_seeds, T, sigma_l, clip = 100, 40, 0.5, 2.0
    trace = _seeded_gap_trace(base_seed, n_seeds=n_seeds, T=T, d=64, sigma_l=sigma_l, clip=clip)
    sq_gaps = np.stack([np.vecdot(gap, gap) for gap in map(trace.gap, range(1, T + 1))], axis=1)
    schedule = {k: v for k, v in _GAP_SCHEDULE.items() if k != "kappa"}
    bound = gap_norm_bound(sigma_l=sigma_l, G=clip, **schedule)
    mean_t = sq_gaps.mean(axis=0)
    se_t = sq_gaps.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    upper = mean_t + 3.0 * se_t
    measured = {"worst_mean_plus_3se": float(upper.max()), "max_mean": float(mean_t.max())}
    detail = f"{n_seeds} seeds x {T} rounds, beta=B/B_plus={trace.beta}"
    return bool((upper <= bound).all()), measured, {"gap_sq_bound": bound}, detail


def stationarity_rhs(
    *, f_gap: float, T: int, lipschitz: float, sigma_l: float, G: float
) -> float:
    """Rate bound for the schedule eta_g*eta_l*T_l/2 = 1/sqrt(T), eta_g >= 1,
    beta <= B/B_plus."""
    return f_gap / math.sqrt(T) + (10.0 / math.sqrt(T) + 2.5 * lipschitz**2 / T) * (
        sigma_l**2 + G**2
    )


@check
def check_stationarity_schedule(base_seed: int) -> tuple:
    """Mean squared gradient norm at the auxiliary iterates must fall with T
    and stay below the rate bound with measured constants."""
    horizons, sigma_l = (64, 256, 1024), 0.1
    eta_g, T_l, beta = (_GAP_SCHEDULE[k] for k in ("eta_g", "T_l", "beta"))
    quad = make_quad_set(8, 16, sigma_l=sigma_l, grad_clip=None, seed=base_seed)
    f_gap = quad.f(np.zeros(quad.d)) - quad.f_star()
    measured: dict[str, float] = {}
    ms: list[float] = []
    ok_bound = True
    for T in horizons:
        schedule = {**_GAP_SCHEDULE, "eta_l": 2.0 / (eta_g * T_l * math.sqrt(T))}
        trace = run_gap_trace(quad, T=T, seeds=[base_seed + 1], **schedule)
        sq = [float(np.linalg.norm(quad.grad_f(trace.a[t][0])) ** 2) for t in range(1, T + 1)]
        m_t = float(np.mean(sq))
        rhs = stationarity_rhs(
            f_gap=f_gap, T=T, lipschitz=quad.lipschitz, sigma_l=sigma_l,
            G=float(trace.max_grad_norm[0]),
        )
        measured[f"M_{T}"] = m_t
        measured[f"rhs_{T}"] = rhs
        ms.append(m_t)
        ok_bound = ok_bound and m_t <= rhs
    ok_trend = all(ms[i + 1] <= 1.1 * ms[i] for i in range(len(ms) - 1))
    ok_halving = ms[-1] <= 0.5 * ms[0]
    bound = {"halving_ratio": 0.5, "trend_slack": 1.1}
    detail = f"horizons={horizons}, beta=B/B_plus={beta}, eta_g={eta_g}"
    return ok_bound and ok_trend and ok_halving, measured, bound, detail


def _traced_gap_error(sim: engine.Simulation) -> float:
    """The worst relative error of the gap recursion over the rounds of a
    traced FeAST run; inf if its rounds do not line up.

    For round t let B be its fast cohort, delta_f the sum of their deltas,
    and g = (delta_f + the deltas folded late into round t) / count_plus,
    where count_plus counts both. With gap_t = aux_t - w_t, the auxiliary
    model minus the global one after t steps of each, the paper's analysis
    gives

        gap_{t+1} = beta * gap_t + eta_g * (delta_f / B - g) + beta * (eta_g - eta_a) * g

    (beta = feast_beta, eta_a = kappa * eta_g), and gap_0 = 0 since the
    auxiliary model starts as a copy of w. Every term of round t comes from
    the trace (aggregated_updates: the fast updates and w_{t+1}; late_folded:
    the folded updates with their round ids; aux_rounds: aux_{t+1}), and the
    recursion runs one round at a time from the traced gap_t. A round's
    error is the norm of the difference over the norm of the traced gap.
    """
    steps = [e for e in sim.events if e.kind == "aggregated_updates"]
    aux = [e.w for e in sim.events if e.kind == "aux_rounds"]
    if not steps or len(aux) != len(steps):
        return math.inf
    folded: dict[int, list[np.ndarray]] = {}
    for event in sim.events:
        if event.kind == "late_folded":
            for u in event.updates:
                folded.setdefault(u.round_id, []).append(u.delta)
    algo = sim.algo
    beta, eta_g, eta_a = algo.feast_beta, algo.eta_g, algo.resolved_eta_a()
    gap = np.zeros_like(aux[0])
    worst = 0.0
    for t, (step, aux_next) in enumerate(zip(steps, aux)):
        if {u.round_id for u in step.updates} != {t}:
            return math.inf
        fast = [u.delta for u in step.updates]
        late = folded.pop(t, [])
        delta_f = np.sum(fast, axis=0)
        g = (delta_f + np.sum(late, axis=0)) / (len(fast) + len(late))
        predicted = beta * gap + eta_g * (delta_f / len(fast) - g) + beta * (eta_g - eta_a) * g
        gap = aux_next - step.w
        worst = max(worst, float(np.linalg.norm(predicted - gap) / np.linalg.norm(gap)))
    # an update folded into a round that never stepped
    return math.inf if folded else worst


@check
def check_engine_gap_recursion(base_seed: int) -> tuple:
    """The engine's traced FeAST runs must follow the paper's gap recursion
    (_traced_gap_error) every round. This holds the engine's orchestration
    (which deltas join a round, from which snapshot, in what order) to the
    analysis, with no recorded output.

    The runs take the acceptance feast config (configs/acceptance/feast.json),
    restated here, at budget 1,000 and data seed base_seed, with trial seeds
    base_seed to base_seed + 2, in three settings: the shipped tau_max, which
    folds every late update; tau_max 120 s, which drops some; and
    strict_sequential, which waits out each round's tau_max before the next
    starts. Runs measured before the check read errors of 7.8e-16 to 1.7e-15.
    """
    bound, seeds = 1e-12, range(base_seed, base_seed + 3)
    feast = ExperimentConfig(
        algo=algorithms.AlgoConfig("feast", dispatch_size=60, feast_beta=0.95),
        dataset=DatasetConfig(
            d_in=32, median_shard_size=34.0, concentration=1.0, cluster_spread=3.0,
            eval_size=16000, n_straggler_clients=60,
        ),
        model=ModelConfig(hidden=0),
        budget=1000, eval_every=50000, eval_cap=16000, base_seed=base_seed, name="feast",
    )
    settings = {
        "shipped_tau_max": {},
        "tau_max_120": {"tau_max": 120.0},
        "strict_sequential": {"strict_sequential": True},
    }
    worst = 0.0
    measured: dict[str, float] = {}
    for setting, knobs in settings.items():
        config = replace(feast, algo=replace(feast.algo, **knobs))
        folded, dropping = math.inf, 0
        for seed in seeds:
            sim = engine.Simulation(config, seed, trace=True)
            sim.run()
            worst = max(worst, _traced_gap_error(sim))
            folded = min(folded, sim.counters["late_folded"])
            dropping += sim.counters["dropped_after_deadline"] > 0
        measured[f"{setting}_min_late_folded"] = folded
        measured[f"{setting}_runs_dropping"] = dropping
    detail = f"{len(settings)} settings x {len(seeds)} seeds of feast, budget {feast.budget}"
    return worst <= bound, {"worst_rel_error": worst, **measured}, {"tol": bound}, detail


def suite_checks(which: str) -> list[str]:
    """The checks suite which runs ("all" or one name); ConfigError otherwise.
    The one rule for suite names, shared by run_suite and the CLI."""
    if which == "all":
        return list(CHECKS)
    if which not in CHECKS:
        raise ConfigError(f"unknown suite {which!r}; options: all, {', '.join(CHECKS)}")
    return [which]


def run_suite(which: str = "all", *, base_seed: int = 0) -> dict:
    """Run one named check or all of them; returns a JSON-ready report."""
    reports = [CHECKS[name](base_seed=base_seed) for name in suite_checks(which)]
    return {
        "suite": which,
        "base_seed": base_seed,
        "passed": all(r.passed for r in reports),
        "checks": [asdict(r) for r in reports],
    }
