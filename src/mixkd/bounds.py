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
from dataclasses import dataclass, field, fields
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
        """Every field but the per-trial gaps, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("gaps_augmented", "gaps_plain")}


# ---------------------------------------------------------------------------
# threshold calculators
# ---------------------------------------------------------------------------

def _check_inputs(delta: float, M: float = 1.0, g_cardinality: int = 1,
                  epsilon_p: float = 0.0, triangle: float = 0.0,
                  **nonnegative: float) -> None:
    """The domain shared by the calculators; each passes the arguments it
    takes (the defaults always pass), and by name those that must be >= 0.
    Every real argument must be finite."""
    if not 0.0 < M < math.inf:
        raise BoundError(f"M must be positive and finite, got {M}")
    if not 0.0 < delta <= 1.0:
        raise BoundError(f"delta must lie in (0, 1], got {delta}")
    if g_cardinality < 1:
        raise BoundError(f"|G| must be >= 1, got {g_cardinality}")
    for name, value in (("epsilon_p", epsilon_p), ("triangle", triangle)):
        if not math.isfinite(value):
            raise BoundError(f"{name} must be finite, got {value}")
    for name, value in nonnegative.items():
        if not 0 <= value < math.inf:
            raise BoundError(
                f"{name} must be nonnegative and finite, got {value}")


def _finite(value: float, delta: float) -> float:
    if not math.isfinite(value):
        raise BoundError(f"the result overflows float64 at delta = {delta}")
    return value


def _required(numerator: float, denominator: float, a: int,
              delta: float) -> int:
    """max(0, ceil(numerator / denominator - a)) for a denominator >= 0,
    which is 0 only when a margin's square underflows: then the quotient
    is taken as infinite."""
    quotient = numerator / denominator if denominator else math.inf
    return max(0, math.ceil(_finite(quotient - a, delta)))


def hoeffding_gap_bound(M: float, g_cardinality: int, delta: float,
                        n: int) -> float:
    """Uniform finite-class gap bound M*sqrt(log(|G|/delta)/(2n))."""
    if n < 1:
        raise BoundError("n must be >= 1")
    _check_inputs(delta, M=M, g_cardinality=g_cardinality)
    return _finite(
        M * math.sqrt(math.log(g_cardinality / delta) / (2.0 * n)), delta)


def thm1_required_b(M: float, g_cardinality: int, delta: float, a: int,
                    epsilon_p: float, triangle: float) -> int:
    """Augmented samples needed so the finite-class gap bound undercuts epsilon_p."""
    _check_inputs(delta, M=M, g_cardinality=g_cardinality,
                  epsilon_p=epsilon_p, triangle=triangle, a=a)
    if epsilon_p <= triangle:
        raise VacuousBoundError(
            f"epsilon_p ({epsilon_p}) must exceed the shift term ({triangle})")
    margin = epsilon_p - triangle
    return _required(M * M * math.log(g_cardinality / delta),
                     2.0 * margin * margin, a, delta)


def thm2_required_b(M: float, delta: float, a: int, epsilon_p: float,
                    triangle: float, lipschitz: float,
                    rademacher_r: float) -> int:
    """Threshold for the Lipschitz/Rademacher case."""
    _check_inputs(delta, M=M, epsilon_p=epsilon_p, triangle=triangle, a=a,
                  lipschitz=lipschitz, rademacher_r=rademacher_r)
    margin = epsilon_p - triangle - 2.0 * lipschitz * rademacher_r
    if margin <= 0:
        raise VacuousBoundError(
            "epsilon_p must exceed triangle + 2*L*R "
            f"({epsilon_p} vs {triangle} + 2*{lipschitz}*{rademacher_r})")
    return _required(M * M * math.log(1.0 / delta), 2.0 * margin * margin,
                     a, delta)


def thm3_required_b(delta: float, a: int, epsilon_p: float, triangle: float,
                    log_capacity: float) -> tuple[int, int]:
    """Capacity-based thresholds (required_b, required_a_min).

    log_capacity is caller-supplied; computing the capacity itself is out
    of scope.
    """
    _check_inputs(delta, epsilon_p=epsilon_p, triangle=triangle, a=a,
                  log_capacity=log_capacity)
    if epsilon_p <= triangle:
        raise VacuousBoundError(
            f"epsilon_p ({epsilon_p}) must exceed the shift term ({triangle})")
    margin_sq = (epsilon_p - triangle) ** 2
    required_a_min = _required(16.0, margin_sq, 0, delta)
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
    required_b = _required(64.0 * math.log(4.0 / delta), denom, 0, delta)
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
        return points @ self.weights >= self.threshold


@dataclass
class ThresholdScorerClass:
    """A finite, enumerable class of threshold scorers plus the teacher.

    ``errors`` says which scorer gets which point wrong, so both the
    Rademacher estimator and the ERM in the gap experiment can enumerate
    the class; ``loss_matrix`` is the same as 0/1 absolute-difference
    losses.
    """
    weights: np.ndarray      # [G, m]
    thresholds: np.ndarray   # [G]
    teacher: ThresholdScorer

    @property
    def cardinality(self) -> int:
        return self.weights.shape[0]

    def errors(self, points: np.ndarray) -> np.ndarray:
        """[G, n] booleans: scorer g disagrees with the teacher on point x."""
        if len(points) == 0:
            raise BoundError("empty sample")
        fires = points @ self.weights.T >= self.thresholds
        return (fires != self.teacher.predict(points)[:, None]).T

    def loss_matrix(self, points: np.ndarray) -> np.ndarray:
        """``errors`` as a float [G, n] matrix.  It is the transpose of a
        C-ordered [n, G] array: population_risks' GEMV on a C-ordered copy
        sums in another order and moves the risks of 10-bit, |G| = 64
        testbeds by up to 6.7e-16."""
        return self.errors(points).astype(np.float64)


@dataclass(frozen=True, eq=False)
class EnumerableTestbed:
    """All binary strings of a small length with explicit point masses.

    ``probs`` is checked once, with the conditions ``Generator.choice``
    checks on every call, and its CDF is kept.  ``sample`` draws by
    inversion from that CDF, which is ``choice``'s own code path, so every
    index and the generator's state afterwards equal those of
    ``rng.choice(N, size=n, p=probs)``.  The arrays are read-only copies.
    """
    inputs: np.ndarray   # [N, m] float 0/1
    probs: np.ndarray    # [N], sums to 1
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=np.float64)
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1 or len(probs) != len(inputs):
            raise BoundError(f"probs must be 1-D with one mass per input, got "
                             f"shape {probs.shape} for {len(inputs)} inputs")
        if np.isnan(probs).any():
            raise BoundError("probs contain NaN")
        if (probs < 0).any():
            raise BoundError("probs must be nonnegative")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= math.sqrt(np.finfo(np.float64).eps):
            raise BoundError(f"probs must sum to 1, got {total}")
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        for name, arr in (("inputs", inputs), ("probs", probs), ("cdf", cdf)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.inputs[self.cdf.searchsorted(rng.random(n), side="right")]


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
        # the originals are the first a columns of the pooled errors; a
        # count over n equals the mean of n 0/1 losses bit for bit
        wrong = g_class.errors(pooled)
        wrong_plain = np.count_nonzero(wrong[:, :a], axis=1)
        emp_aug = ((wrong_plain + np.count_nonzero(wrong[:, a:], axis=1))
                   / len(pooled))
        g_hat = int(emp_aug.argmin())
        gaps_aug[t] = pop[g_hat] - emp_aug[g_hat]

        emp_plain = wrong_plain / a
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
