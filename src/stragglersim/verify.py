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
E||noise||^2 = sigma_l^2 exactly).

The trace runner samples its own cohorts and bypasses the event engine:
the claims assume uniformly sampled cohorts and a uniformly chosen fast
subset of every cohort, with every dispatched client reporting, which
matches an infinite straggler-folding deadline rather than latency-ordered
completion. But w and a take the engine's own steps (algorithms.server_apply
and algorithms.aux_step), so the checks hold FeAST's code to the analysis.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import algorithms, rng
from .config import ConfigError


@dataclass(frozen=True)
class QuadClientSet:
    """Population of quadratic objectives with a stochastic gradient oracle."""

    curvatures: np.ndarray  # (m, d) diagonal entries in (0, L]
    centers: np.ndarray  # (m, d)
    sigma_l: float
    grad_clip: float | None

    @property
    def m(self) -> int:
        return self.curvatures.shape[0]

    @property
    def d(self) -> int:
        return self.curvatures.shape[1]

    @property
    def lipschitz(self) -> float:
        return float(self.curvatures.max())

    def grad(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.curvatures[i] * (w - self.centers[i])

    def clipped_grad(self, i: int, w: np.ndarray) -> np.ndarray:
        g = self.grad(i, w)
        if self.grad_clip is not None:
            norm = float(np.linalg.norm(g))
            if norm > self.grad_clip:
                g = g * (self.grad_clip / norm)
        return g

    def stoch_grad(self, i: int, w: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Clipped gradient plus isotropic noise with E||noise||^2 = sigma_l^2."""
        noise = (self.sigma_l / math.sqrt(self.d)) * gen.standard_normal(self.d)
        return self.clipped_grad(i, w) + noise

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
    lipschitz: float = 1.0,
    center_scale: float = 1.0,
    sigma_l: float = 0.0,
    grad_clip: float | None = None,
    seed: int = 0,
) -> QuadClientSet:
    """Random population with curvatures in [0.1 L, L] and Gaussian centers."""
    if m < 2 or d < 1:
        raise ValueError(f"need m >= 2 and d >= 1, got m={m}, d={d}")
    if lipschitz <= 0 or sigma_l < 0:
        raise ValueError("need lipschitz > 0 and sigma_l >= 0")
    if grad_clip is not None and grad_clip <= 0:
        raise ValueError("grad_clip must be > 0 when set")
    gen = rng.stream(seed, rng.VERIFY, 0)
    curvatures = gen.uniform(0.1 * lipschitz, lipschitz, size=(m, d))
    centers = gen.standard_normal((m, d)) * center_scale
    return QuadClientSet(curvatures, centers, sigma_l=sigma_l, grad_clip=grad_clip)


@dataclass
class GapTrace:
    """Logged quantities from one two-timescale run on the quad testbed."""

    B: int
    B_plus: int
    eta_g: float
    beta: float
    w: list[np.ndarray] = field(default_factory=list)
    a: list[np.ndarray] = field(default_factory=list)
    delta_fast: list[np.ndarray] = field(default_factory=list)
    delta_slow: list[np.ndarray] = field(default_factory=list)
    max_grad_norm: float = 0.0

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
    eta_a: float,
    beta: float,
    seed: int,
    w0: np.ndarray | None = None,
    fast_selector=None,
) -> GapTrace:
    """Run T rounds: sample B_plus clients, T_l local steps each, advance w on
    a uniformly chosen fast subset of B, fold everyone into the auxiliary
    update (all dispatched clients report).

    w and a step through server_apply and aux_step under feast's AlgoConfig
    (an SGD server, no EMA), which rejects invalid eta_g, eta_a and beta.

    fast_selector(t, gen) -> index array is a test seam for enumerating fast
    subsets; the default is a uniform draw.
    """
    if not 1 <= B <= B_plus <= quad.m:
        raise ValueError(f"need 1 <= B <= B_plus <= m, got {B}, {B_plus}, {quad.m}")
    if T < 1 or T_l < 1:
        raise ValueError("T and T_l must be >= 1")
    algo = algorithms.AlgoConfig("feast", eta_g=eta_g, eta_a=eta_a, feast_beta=beta)
    gen = rng.stream(seed, rng.VERIFY, 1)
    w = np.zeros(quad.d) if w0 is None else w0.astype(np.float64).copy()
    state = algorithms.ServerState(w, algo)
    a = w.copy()
    trace = GapTrace(B=B, B_plus=B_plus, eta_g=eta_g, beta=beta)
    trace.w.append(w.copy())
    trace.a.append(a.copy())

    for t in range(T):
        w = state.w
        cohort = gen.choice(quad.m, size=B_plus, replace=False)
        deltas = []
        for c in cohort:
            w_loc = w.copy()
            for _ in range(T_l):
                g = quad.stoch_grad(int(c), w_loc, gen)
                trace.max_grad_norm = max(trace.max_grad_norm, float(np.linalg.norm(g)))
                w_loc -= eta_l * g
            deltas.append(w - w_loc)
        if fast_selector is None:
            fast_pos = gen.choice(B_plus, size=B, replace=False)
        else:
            fast_pos = np.asarray(fast_selector(t, gen))
        fast_mask = np.zeros(B_plus, dtype=bool)
        fast_mask[fast_pos] = True

        delta_fast = np.zeros(quad.d)
        delta_slow = np.zeros(quad.d)
        for pos in range(B_plus):
            if fast_mask[pos]:
                delta_fast += deltas[pos]
            else:
                delta_slow += deltas[pos]

        a = algorithms.aux_step(a, w, delta_fast + delta_slow, B_plus, algo)
        algorithms.server_apply(state, delta_fast, B)

        trace.w.append(state.w.copy())
        trace.a.append(a.copy())
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


# The round schedule of the gap and stationarity checks: 2 of 4 dispatched
# clients are fast, 4 local steps each, beta = B / B_plus. The stationarity
# check sets its own eta_l for each horizon.
_GAP_SCHEDULE = dict(B=2, B_plus=4, T_l=4, eta_g=1.0, eta_l=0.05, eta_a=1.0, beta=0.5)


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


def check_gap_recursion(
    *,
    n_seeds: int = 5,
    T: int = 50,
    B: int = 2,
    B_plus: int = 4,
    tol: float = 1e-9,
    base_seed: int = 0,
) -> CheckReport:
    """The measured a_t - w_t must match the closed form every round."""
    start = time.monotonic()
    quad = make_quad_set(8, 32, sigma_l=0.2, grad_clip=5.0, seed=base_seed)
    worst = 0.0
    schedule = {**_GAP_SCHEDULE, "B": B, "B_plus": B_plus}
    for s in range(n_seeds):
        trace = run_gap_trace(quad, T=T, seed=base_seed + 1 + s, **schedule)
        for t_next in range(1, T + 1):
            lhs = trace.gap(t_next)
            rhs = closed_form_gap(trace, t_next)
            scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-15)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
    return CheckReport(
        name="gap_recursion",
        passed=worst <= tol,
        measured={"worst_rel_error": worst},
        bound={"tol": tol},
        detail=f"{n_seeds} seeds x {T} rounds, B={B}, B_plus={B_plus}",
        elapsed_s=time.monotonic() - start,
    )


def check_gap_zero_mean(
    *,
    n_seeds: int = 200,
    T: int = 30,
    d: int = 256,
    base_seed: int = 0,
) -> CheckReport:
    """Per-coordinate mean of the final gap must sit within 3 standard errors
    of zero for at least 99% of coordinates."""
    start = time.monotonic()
    if n_seeds < 100:
        raise ValueError(f"zero-mean check needs >= 100 seeds, got {n_seeds}")
    quad = make_quad_set(8, d, sigma_l=0.2, grad_clip=5.0, seed=base_seed)
    gaps = np.empty((n_seeds, d))
    for s in range(n_seeds):
        gaps[s] = run_gap_trace(quad, T=T, seed=base_seed + 1 + s, **_GAP_SCHEDULE).gap(T)
    mean = gaps.mean(axis=0)
    se = gaps.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    within = np.abs(mean) <= 3.0 * se + 1e-15
    fraction = float(within.mean())
    return CheckReport(
        name="gap_zero_mean",
        passed=fraction >= 0.99,
        measured={"fraction_within_3se": fraction, "max_abs_mean": float(np.abs(mean).max())},
        bound={"required_fraction": 0.99},
        detail=f"{n_seeds} seeds, {d} coordinates, T={T}",
        elapsed_s=time.monotonic() - start,
    )


def check_local_grad_norm(
    *,
    n_draws: int = 100_000,
    sigma_l: float = 0.5,
    grad_clip: float = 5.0,
    base_seed: int = 0,
) -> CheckReport:
    """E||stochastic gradient||^2 must not exceed sigma_l^2 + G^2 (+3 SE)."""
    start = time.monotonic()
    quad = make_quad_set(8, 64, sigma_l=sigma_l, grad_clip=grad_clip, seed=base_seed)
    gen = rng.stream(base_seed, rng.VERIFY, 2)
    idx = gen.integers(quad.m, size=n_draws)
    # States spread so that clipping binds on most draws but not all, keeping
    # the bound strict while both oracle branches are exercised.
    w = gen.standard_normal((n_draws, quad.d)) * 0.5
    g = quad.curvatures[idx] * (w - quad.centers[idx])
    norms = np.linalg.norm(g, axis=1)
    scale = np.minimum(1.0, grad_clip / np.maximum(norms, 1e-300))
    g *= scale[:, None]
    g += (sigma_l / math.sqrt(quad.d)) * gen.standard_normal((n_draws, quad.d))
    sq = (g * g).sum(axis=1)
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(n_draws))
    bound = sigma_l**2 + grad_clip**2
    return CheckReport(
        name="local_grad_norm",
        passed=mean <= bound + 3.0 * se,
        measured={"mean_sq_norm": mean, "se": se, "clipped_fraction": float((scale < 1.0).mean())},
        bound={"sigma_sq_plus_G_sq": bound},
        detail=f"{n_draws} draws, sigma_l={sigma_l}, G={grad_clip}",
        elapsed_s=time.monotonic() - start,
    )


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


def check_gap_norm_bound(
    *,
    n_seeds: int = 100,
    T: int = 40,
    base_seed: int = 0,
) -> CheckReport:
    """Mean squared gap (plus 3 SE) must stay below the worst-case bound at
    every logged round."""
    start = time.monotonic()
    sigma_l, clip = 0.5, 2.0
    quad = make_quad_set(8, 64, sigma_l=sigma_l, grad_clip=clip, seed=base_seed)
    sq_gaps = np.empty((n_seeds, T))
    for s in range(n_seeds):
        trace = run_gap_trace(quad, T=T, seed=base_seed + 1 + s, **_GAP_SCHEDULE)
        for t in range(1, T + 1):
            gap = trace.gap(t)
            sq_gaps[s, t - 1] = float(gap @ gap)
    schedule = {k: v for k, v in _GAP_SCHEDULE.items() if k != "eta_a"}
    bound = gap_norm_bound(sigma_l=sigma_l, G=clip, **schedule)
    mean_t = sq_gaps.mean(axis=0)
    se_t = sq_gaps.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    upper = mean_t + 3.0 * se_t
    worst = float(upper.max())
    return CheckReport(
        name="gap_norm_bound",
        passed=bool((upper <= bound).all()),
        measured={"worst_mean_plus_3se": worst, "max_mean": float(mean_t.max())},
        bound={"gap_sq_bound": bound},
        detail=f"{n_seeds} seeds x {T} rounds, beta=B/B_plus={_GAP_SCHEDULE['beta']}",
        elapsed_s=time.monotonic() - start,
    )


def stationarity_rhs(
    *, f_gap: float, T: int, lipschitz: float, sigma_l: float, G: float
) -> float:
    """Rate bound for the schedule eta_g*eta_l*T_l/2 = 1/sqrt(T), eta_g >= 1,
    beta <= B/B_plus."""
    return f_gap / math.sqrt(T) + (10.0 / math.sqrt(T) + 2.5 * lipschitz**2 / T) * (
        sigma_l**2 + G**2
    )


def check_stationarity_schedule(
    *,
    horizons: tuple[int, ...] = (64, 256, 1024),
    base_seed: int = 0,
) -> CheckReport:
    """Mean squared gradient norm at the auxiliary iterates must fall with T
    and stay below the rate bound with measured constants."""
    start = time.monotonic()
    sigma_l = 0.1
    eta_g, T_l, beta = (_GAP_SCHEDULE[k] for k in ("eta_g", "T_l", "beta"))
    quad = make_quad_set(8, 16, sigma_l=sigma_l, grad_clip=None, seed=base_seed)
    f_gap = quad.f(np.zeros(quad.d)) - quad.f_star()
    measured: dict[str, float] = {}
    ms: list[float] = []
    ok_bound = True
    for T in horizons:
        eta_l = 2.0 / (eta_g * T_l * math.sqrt(T))
        trace = run_gap_trace(quad, T=T, seed=base_seed + 1, **{**_GAP_SCHEDULE, "eta_l": eta_l})
        sq = [float(np.linalg.norm(quad.grad_f(trace.a[t])) ** 2) for t in range(1, T + 1)]
        m_t = float(np.mean(sq))
        rhs = stationarity_rhs(
            f_gap=f_gap, T=T, lipschitz=quad.lipschitz, sigma_l=sigma_l,
            G=trace.max_grad_norm,
        )
        measured[f"M_{T}"] = m_t
        measured[f"rhs_{T}"] = rhs
        ms.append(m_t)
        ok_bound = ok_bound and m_t <= rhs
    ok_trend = all(ms[i + 1] <= 1.1 * ms[i] for i in range(len(ms) - 1))
    ok_halving = ms[-1] <= 0.5 * ms[0]
    return CheckReport(
        name="stationarity_schedule",
        passed=ok_bound and ok_trend and ok_halving,
        measured=measured,
        bound={"halving_ratio": 0.5, "trend_slack": 1.1},
        detail=f"horizons={horizons}, beta=B/B_plus={beta}, eta_g={eta_g}",
        elapsed_s=time.monotonic() - start,
    )


CHECKS = {
    "gap_recursion": check_gap_recursion,
    "gap_zero_mean": check_gap_zero_mean,
    "local_grad_norm": check_local_grad_norm,
    "gap_norm_bound": check_gap_norm_bound,
    "stationarity_schedule": check_stationarity_schedule,
}


def suite_checks(which: str) -> list[str]:
    """The checks suite which runs ("all" or one name); ConfigError otherwise."""
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
