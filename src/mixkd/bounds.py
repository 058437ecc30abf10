"""Sample-size threshold calculators and an empirical gap-coverage verifier.

The calculators implement the explicit inequalities from the proofs of
the three augmentation sample-size results (finite class / Rademacher /
capacity-based), with the distribution-shift term Delta always supplied
by the caller or estimated explicitly, never silently assumed zero.

The verifier runs on an enumerable boolean testbed where the population
risk of every hypothesis is an exact finite sum, so the Hoeffding-style
coverage statement can be checked by Monte Carlo over repeated draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .mixup import MixupConfig, make_pairs


class BoundError(Exception):
    pass


class VacuousBoundError(BoundError):
    """A precondition fails, making the requested threshold undefined."""


@dataclass
class BoundReport:
    bound_value: float
    coverage_fraction: float
    trials: int
    delta: float
    passed: bool
    eps_star_hat: float
    eps_p_hat: float
    gamma: int
    required_b: Optional[int] = None
    gaps_augmented: list = field(default_factory=list)
    gaps_plain: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"bound_value": self.bound_value,
                "coverage_fraction": self.coverage_fraction,
                "trials": self.trials, "delta": self.delta,
                "passed": self.passed, "eps_star_hat": self.eps_star_hat,
                "eps_p_hat": self.eps_p_hat, "gamma": self.gamma,
                "required_b": self.required_b}


# ---------------------------------------------------------------------------
# threshold calculators
# ---------------------------------------------------------------------------

def _check_inputs(delta: float, M: float = 1.0, g_cardinality: int = 1,
                  **nonnegative: float) -> None:
    """The domain shared by the calculators; each passes the arguments it
    takes (the defaults always pass), and by name those that must be >= 0."""
    if not M > 0:
        raise BoundError(f"M must be positive, got {M}")
    if not 0.0 < delta <= 1.0:
        raise BoundError(f"delta must lie in (0, 1], got {delta}")
    if g_cardinality < 1:
        raise BoundError(f"|G| must be >= 1, got {g_cardinality}")
    for name, value in nonnegative.items():
        if not value >= 0:
            raise BoundError(f"{name} must be nonnegative, got {value}")


def hoeffding_gap_bound(M: float, g_cardinality: int, delta: float,
                        n: int) -> float:
    """Uniform finite-class gap bound M*sqrt(log(|G|/delta)/(2n))."""
    if n < 1:
        raise BoundError("n must be >= 1")
    _check_inputs(delta, M=M, g_cardinality=g_cardinality)
    return M * math.sqrt(math.log(g_cardinality / delta) / (2.0 * n))


def _ceil_clamped(value: float) -> int:
    return max(0, math.ceil(value))


def thm1_required_b(M: float, g_cardinality: int, delta: float, a: int,
                    epsilon_p: float, triangle: float) -> int:
    """Augmented samples needed so the finite-class gap bound undercuts epsilon_p."""
    _check_inputs(delta, M=M, g_cardinality=g_cardinality, a=a)
    if epsilon_p <= triangle:
        raise VacuousBoundError(
            f"epsilon_p ({epsilon_p}) must exceed the shift term ({triangle})")
    margin = epsilon_p - triangle
    return _ceil_clamped(
        M * M * math.log(g_cardinality / delta) / (2.0 * margin * margin) - a)


def thm2_required_b(M: float, delta: float, a: int, epsilon_p: float,
                    triangle: float, lipschitz: float,
                    rademacher_r: float) -> int:
    """Threshold for the Lipschitz/Rademacher case."""
    _check_inputs(delta, M=M, a=a, lipschitz=lipschitz,
                  rademacher_r=rademacher_r)
    margin = epsilon_p - triangle - 2.0 * lipschitz * rademacher_r
    if margin <= 0:
        raise VacuousBoundError(
            "epsilon_p must exceed triangle + 2*L*R "
            f"({epsilon_p} vs {triangle} + 2*{lipschitz}*{rademacher_r})")
    return _ceil_clamped(
        M * M * math.log(1.0 / delta) / (2.0 * margin * margin) - a)


def thm3_required_b(delta: float, a: int, epsilon_p: float, triangle: float,
                    log_capacity: float) -> tuple[int, int]:
    """Capacity-based thresholds (required_b, required_a_min).

    log_capacity is caller-supplied; computing the capacity itself is out
    of scope.
    """
    _check_inputs(delta, a=a, log_capacity=log_capacity)
    if epsilon_p <= triangle:
        raise VacuousBoundError(
            f"epsilon_p ({epsilon_p}) must exceed the shift term ({triangle})")
    margin_sq = (epsilon_p - triangle) ** 2
    required_a_min = _ceil_clamped(16.0 / margin_sq)
    if a < 1:
        raise VacuousBoundError("a must be >= 1 for the capacity threshold")
    denom = margin_sq - 64.0 * log_capacity / a
    if denom <= 0:
        raise VacuousBoundError(
            f"(epsilon_p - triangle)^2 = {margin_sq} must exceed "
            f"64*log_capacity/a = {64.0 * log_capacity / a}")
    if a < required_a_min:
        raise VacuousBoundError(
            f"a = {a} is below the required minimum {required_a_min}")
    required_b = _ceil_clamped(64.0 * math.log(4.0 / delta) / denom)
    return required_b, required_a_min


# ---------------------------------------------------------------------------
# enumerable testbed
# ---------------------------------------------------------------------------

@dataclass
class ThresholdScorer:
    """g(x) = 1[w . x >= theta] over real-valued feature vectors."""
    weights: np.ndarray
    threshold: float

    def predict(self, points: np.ndarray) -> np.ndarray:
        return (points @ self.weights >= self.threshold).astype(np.float64)


@dataclass
class ThresholdScorerClass:
    """A finite, enumerable class of threshold scorers plus the teacher.

    Exposes a loss matrix (|G| x n of 0/1 absolute-difference losses) so
    both the Rademacher estimator and the ERM in the gap experiment can
    enumerate it.
    """
    weights: np.ndarray      # [G, m]
    thresholds: np.ndarray   # [G]
    teacher: ThresholdScorer

    @property
    def cardinality(self) -> int:
        return self.weights.shape[0]

    def predictions(self, points: np.ndarray) -> np.ndarray:
        return (points @ self.weights.T >= self.thresholds).T.astype(np.float64)

    def loss_matrix(self, points: np.ndarray) -> np.ndarray:
        if len(points) == 0:
            raise BoundError("empty sample")
        f = self.teacher.predict(points)
        return np.abs(self.predictions(points) - f)


@dataclass
class EnumerableTestbed:
    """All binary strings of a small length with explicit point masses."""
    inputs: np.ndarray   # [N, m] float 0/1
    probs: np.ndarray    # [N], sums to 1

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.choice(len(self.probs), size=n, p=self.probs)
        return self.inputs[idx]


def make_testbed(n_bits: int = 10, seed: int = 0) -> EnumerableTestbed:
    if n_bits < 1:
        raise BoundError(f"n_bits must be >= 1, got {n_bits}")
    if n_bits > 16:
        raise BoundError(f"2^{n_bits} points is too large to enumerate")
    grid = ((np.arange(2 ** n_bits)[:, None]
             >> np.arange(n_bits)[None, :]) & 1).astype(np.float64)
    rng = np.random.default_rng(seed)
    weights = rng.random(len(grid)) + 0.05
    return EnumerableTestbed(inputs=grid, probs=weights / weights.sum())


def make_scorer_class(testbed: EnumerableTestbed, g_size: int,
                      seed: int = 0) -> ThresholdScorerClass:
    """Teacher plus |G| scorers: half perturbations of the teacher weights
    (so ERM has genuinely good candidates), half independent draws."""
    if g_size < 1:
        raise BoundError(f"g_size must be >= 1, got {g_size}")
    rng = np.random.default_rng(seed)
    m = testbed.inputs.shape[1]
    w_star = rng.normal(size=m)
    scores = testbed.inputs @ w_star
    teacher = ThresholdScorer(w_star, float(np.median(scores)))

    weights = np.empty((g_size, m))
    half = g_size // 2
    weights[:half] = w_star + rng.normal(scale=0.4, size=(half, m))
    weights[half:] = rng.normal(size=(g_size - half, m))
    qs = rng.uniform(0.3, 0.7, size=g_size)
    thresholds = np.array([
        float(np.quantile(testbed.inputs @ weights[i], qs[i]))
        for i in range(g_size)])
    return ThresholdScorerClass(weights, thresholds, teacher)


def population_risks(testbed: EnumerableTestbed,
                     g_class: ThresholdScorerClass) -> np.ndarray:
    """Exact R(f, g, p) for every g, by enumeration of the input space."""
    return g_class.loss_matrix(testbed.inputs) @ testbed.probs


# ---------------------------------------------------------------------------
# Rademacher estimation
# ---------------------------------------------------------------------------

def rademacher_mc_estimate(hypothesis_class, sample: np.ndarray, trials: int,
                           rng: np.random.Generator) -> float:
    """Monte-Carlo E_sigma[sup_g (1/n) sum_i sigma_i * loss(g, x_i)]."""
    if trials < 1:
        raise BoundError("trials must be >= 1")
    losses = hypothesis_class.loss_matrix(np.asarray(sample, dtype=np.float64))
    n = losses.shape[1]
    sigma = rng.choice([-1.0, 1.0], size=(trials, n))
    sups = (losses @ sigma.T).max(axis=0) / n
    return float(sups.mean())


# ---------------------------------------------------------------------------
# shift term and the gap experiment
# ---------------------------------------------------------------------------

def _mix_points(testbed: EnumerableTestbed, originals: np.ndarray, b_mix: int,
                rng: np.random.Generator) -> np.ndarray:
    """b_mix interpolated points: parents cycle the originals, partners are
    fresh independent draws (the independent-pairing construction)."""
    pool = testbed.sample(b_mix, rng)
    pairs = make_pairs(b_mix, MixupConfig(), rng, extra_pool_size=b_mix)
    parents = originals[pairs.index_i % len(originals)]
    lam = pairs.lam[:, None]
    return lam * parents + (1.0 - lam) * pool[pairs.index_j]


def estimate_shift_delta(testbed: EnumerableTestbed,
                         g_class: ThresholdScorerClass, g_index: int,
                         n_mc: int, rng: np.random.Generator) -> float:
    """Delta = E_p[l(f, g)] - E_q[l(f, g)]: exact under p, Monte Carlo under
    the mixup distribution q."""
    under_p = float(population_risks(testbed, g_class)[g_index])
    originals = testbed.sample(n_mc, rng)
    mixed = _mix_points(testbed, originals, n_mc, rng)
    under_q = float(g_class.loss_matrix(mixed)[g_index].mean())
    return under_p - under_q


def empirical_gap_experiment(testbed: EnumerableTestbed,
                             g_class: ThresholdScorerClass,
                             a: int, b_mix: int, trials: int, delta: float,
                             rng: np.random.Generator,
                             M: float = 1.0) -> BoundReport:
    """Repeatedly draw data, fit the ERM, and compare the exact generalization
    gap against the finite-class bound at n = a + b_mix.

    Also reports the (1 - delta)-quantile of the observed gaps with and
    without augmentation as surrogates for the minimal achievable
    thresholds (the true minimal values are not observable).
    """
    if len(testbed.inputs) > 2 ** 16 or g_class.cardinality > 10 ** 4:
        raise BoundError("testbed or hypothesis class too large to enumerate")
    if a < 1 or trials < 1:
        raise BoundError("a and trials must be >= 1")
    if b_mix < 0:
        raise BoundError(f"b_mix must be nonnegative, got {b_mix}")
    pop = population_risks(testbed, g_class)
    bound = hoeffding_gap_bound(M, g_class.cardinality, delta, a + b_mix)

    gaps_aug = np.empty(trials)
    gaps_plain = np.empty(trials)
    for t in range(trials):
        originals = testbed.sample(a, rng)
        if b_mix > 0:
            mixed = _mix_points(testbed, originals, b_mix, rng)
            pooled = np.vstack([originals, mixed])
        else:
            pooled = originals
        # the originals are the first a columns of the pooled loss matrix
        losses = g_class.loss_matrix(pooled)
        emp_aug = losses.mean(axis=1)
        g_hat = int(emp_aug.argmin())
        gaps_aug[t] = pop[g_hat] - emp_aug[g_hat]

        emp_plain = losses[:, :a].mean(axis=1)
        g_p = int(emp_plain.argmin())
        gaps_plain[t] = pop[g_p] - emp_plain[g_p]

    coverage = float((gaps_aug <= bound).mean())
    return BoundReport(
        bound_value=bound,
        coverage_fraction=coverage,
        trials=trials,
        delta=delta,
        passed=coverage >= 1.0 - delta,
        eps_star_hat=float(np.quantile(gaps_aug, 1.0 - delta)),
        eps_p_hat=float(np.quantile(gaps_plain, 1.0 - delta)),
        gamma=(a + b_mix) // a,
        gaps_augmented=gaps_aug.tolist(),
        gaps_plain=gaps_plain.tolist(),
    )
