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

import numpy as np

from .mixup import (MixupConfig, beta_from_gammas, check_pairs, draw_round,
                    mix_labels)
from .ranges import COUNT, FINITE, FRACTION, INDEX, NONNEGATIVE, POSITIVE


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
    gaps_augmented: list = field(default_factory=list)
    gaps_plain: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field but the per-trial gaps, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("gaps_augmented", "gaps_plain")}


# ---------------------------------------------------------------------------
# threshold calculators
# ---------------------------------------------------------------------------

# the range of each argument that ``_check`` checks by name (the gap
# experiment's ``a`` is a COUNT); a value outside it is a BoundError
_ARGS = {"M": POSITIVE, "g_cardinality": COUNT, "delta": FRACTION,
         "n": COUNT, "a": INDEX, "epsilon_p": FINITE, "triangle": FINITE,
         "lipschitz": NONNEGATIVE, "rademacher_r": NONNEGATIVE,
         "log_capacity": NONNEGATIVE, "b_mix": INDEX, "trials": COUNT,
         "g_size": COUNT, "n_mc": COUNT, "n_bits": COUNT}


def _check(**args) -> None:
    for name, value in args.items():
        _ARGS[name].check(name, value, BoundError)


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
    _check(M=M, g_cardinality=g_cardinality, delta=delta, n=n)
    return _finite(
        M * math.sqrt(math.log(g_cardinality / delta) / (2.0 * n)), delta)


def thm1_required_b(M: float, g_cardinality: int, delta: float, a: int,
                    epsilon_p: float, triangle: float) -> int:
    """Augmented samples needed so the finite-class gap bound undercuts epsilon_p."""
    _check(M=M, g_cardinality=g_cardinality, delta=delta, a=a,
           epsilon_p=epsilon_p, triangle=triangle)
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
    _check(M=M, delta=delta, a=a, epsilon_p=epsilon_p, triangle=triangle,
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
    _check(delta=delta, a=a, epsilon_p=epsilon_p, triangle=triangle,
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

@dataclass(eq=False)
class ThresholdScorerClass:
    """A finite, enumerable class of threshold scorers
    g(x) = 1[w . x >= theta] over real-valued feature vectors, plus the
    teacher f, a scorer of the same form.

    ``errors`` says which scorer gets which point wrong, so both the
    Rademacher estimator and the ERM in the gap experiment can enumerate
    the class; ``loss_matrix`` is the same as 0/1 absolute-difference
    losses.  The teacher is row 0 of one weight matrix and one threshold
    vector, stacked once when the class is built; ``teacher_weights``,
    ``weights`` and ``thresholds`` are read-only views of them.
    """
    weights: np.ndarray          # [G, m]
    thresholds: np.ndarray       # [G]
    teacher_weights: np.ndarray  # [m]
    teacher_threshold: float
    stacked_weights: np.ndarray = field(init=False, repr=False)     # [1+G, m]
    stacked_thresholds: np.ndarray = field(init=False, repr=False)  # [1+G]

    def __post_init__(self):
        stacked = np.vstack([self.teacher_weights, self.weights])
        cuts = np.append(self.teacher_threshold, self.thresholds)
        stacked.flags.writeable = False
        cuts.flags.writeable = False
        self.stacked_weights, self.stacked_thresholds = stacked, cuts
        self.teacher_weights, self.weights = stacked[0], stacked[1:]
        self.thresholds = cuts[1:]

    @property
    def cardinality(self) -> int:
        return self.weights.shape[0]

    def errors(self, points: np.ndarray) -> np.ndarray:
        """[G, n] booleans: scorer g disagrees with the teacher on point x.
        The teacher is column 0 of the scorers' product, so all scores of
        a point are one GEMM row."""
        if len(points) == 0:
            raise BoundError("empty sample")
        fires = points @ self.stacked_weights.T >= self.stacked_thresholds
        return (fires[:, 1:] != fires[:, :1]).T

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
    checks on every call, and its CDF is kept.  ``draw`` inverts that CDF
    (``invert``) at uniform draws, which is ``choice``'s own code path, so
    every index and the generator's state afterwards equal those of
    ``rng.choice(N, size=n, p=probs)``.  The arrays are read-only copies.

    Inversion looks the answer up instead of running a binary search per
    draw.  [0, 1) is cut into S slices, S the smallest power of two
    >= 16 N but at most 2^16; ``below[j]`` counts the CDF entries <= j / S.  A draw u in slice j
    (u * S is exact, S being a power of two) has ``below[j]`` entries
    below it plus one if the next entry is <= u, as long as at most one
    entry falls inside the slice.  The draws in ``crowded`` slices, which
    hold more, are searched.
    """
    inputs: np.ndarray   # [N, m] float 0/1
    probs: np.ndarray    # [N], sums to 1
    cdf: np.ndarray = field(init=False, repr=False)
    below: np.ndarray = field(init=False, repr=False)     # [S]
    crowded: np.ndarray = field(init=False, repr=False)   # [S] bool

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
        slices = 1 << min(16, (16 * len(cdf) - 1).bit_length())
        edges = cdf.searchsorted(np.arange(slices + 1) / slices, side="right")
        for name, arr in (("inputs", inputs), ("probs", probs), ("cdf", cdf),
                          ("below", edges[:-1]),
                          ("crowded", np.diff(edges) > 1)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n indices into ``inputs``, inverted at ``rng.random(n)``."""
        return self.invert(rng.random(n))

    def invert(self, u: np.ndarray) -> np.ndarray:
        """Indices into ``inputs`` at uniform draws ``u`` of any shape:
        ``cdf.searchsorted(u, side="right")``, looked up by slice."""
        j = (u * len(self.below)).astype(np.intp)
        idx = self.below[j]
        # cdf[-1] == 1 > u, so idx < N
        idx += self.cdf[idx] <= u
        crowded = self.crowded[j]
        if crowded.any():
            idx[crowded] = self.cdf.searchsorted(u[crowded], side="right")
        return idx

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.inputs[self.draw(n, rng)]


def make_testbed(n_bits: int = 10, seed: int = 0) -> EnumerableTestbed:
    _check(n_bits=n_bits)
    if n_bits > 16:
        raise BoundError(f"2^{n_bits} points is too large to enumerate")
    grid = ((np.arange(2 ** n_bits)[:, None]
             >> np.arange(n_bits)[None, :]) & 1).astype(np.float64)
    rng = np.random.default_rng(seed)
    weights = rng.random(len(grid)) + 0.05
    return EnumerableTestbed(inputs=grid, probs=weights / weights.sum())


def _check_enumerable(n_inputs: int, g_size: int) -> None:
    """BoundError unless the gap experiment can enumerate ``n_inputs``
    testbed inputs and ``g_size`` scorers."""
    if n_inputs > 2 ** 16 or g_size > 10 ** 4:
        raise BoundError(f"|G| = {g_size} scorers on {n_inputs} inputs is "
                         "too large to enumerate: at most 2^16 inputs and "
                         "10^4 scorers")


def make_scorer_class(testbed: EnumerableTestbed, g_size: int,
                      seed: int = 0) -> ThresholdScorerClass:
    """Teacher plus |G| scorers: half perturbations of the teacher weights
    (so ERM has genuinely good candidates), half independent draws."""
    _check(g_size=g_size)
    _check_enumerable(len(testbed.inputs), g_size)
    rng = np.random.default_rng(seed)
    m = testbed.inputs.shape[1]
    w_star = rng.normal(size=m)
    scores = testbed.inputs @ w_star

    weights = np.empty((g_size, m))
    half = g_size // 2
    weights[:half] = w_star + rng.normal(scale=0.4, size=(half, m))
    weights[half:] = rng.normal(size=(g_size - half, m))
    qs = rng.uniform(0.3, 0.7, size=g_size)
    thresholds = np.array([
        float(np.quantile(testbed.inputs @ weights[i], qs[i]))
        for i in range(g_size)])
    return ThresholdScorerClass(weights, thresholds, w_star,
                                float(np.median(scores)))


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
    _check(trials=trials)
    losses = hypothesis_class.loss_matrix(np.asarray(sample, dtype=np.float64))
    n = losses.shape[1]
    sigma = rng.choice([-1.0, 1.0], size=(trials, n))
    sups = (losses @ sigma.T).max(axis=0) / n
    return float(sups.mean())


# ---------------------------------------------------------------------------
# shift term and the gap experiment
# ---------------------------------------------------------------------------

# the gap experiment scores whole trials in blocks of at most this many
# original and this many mixed points (one trial may hold more)
_BLOCK_ROWS = 1024


def _draw_trials(testbed: EnumerableTestbed, a: int, b_mix: int, k: int,
                 rng: np.random.Generator):
    """k trials of a originals and b_mix mixed points each -> (the
    originals' indices into ``inputs`` [k, a], the mixed points
    [k * b_mix, m], or None if b_mix is 0).  A mixed point's parent
    cycles its trial's originals and its partner is a distinct draw of a
    fresh pool (the independent pairing construction)."""
    u = np.empty((k, a + b_mix))
    partners = np.empty((k, b_mix), dtype=np.intp)
    gammas = np.empty((k, b_mix, 2))
    alpha = MixupConfig.beta_alpha  # the default, with no config to check
    for t in range(k):
        rng.random(out=u[t])
        if b_mix > 0:
            partners[t] = draw_round(b_mix, alpha, rng, b_mix, gammas[t])
    drawn = testbed.invert(u)
    originals = drawn[:, :a]
    if b_mix == 0:
        return originals, None
    lam = beta_from_gammas(gammas)
    parent_slots = np.arange(b_mix) % a
    check_pairs(parent_slots, partners, lam)
    parents = originals[:, parent_slots]
    mates = np.take_along_axis(drawn[:, a:], partners, axis=1)
    return originals, mix_labels(testbed.inputs[parents.ravel()],
                                 testbed.inputs[mates.ravel()], lam.ravel())


def estimate_shift_delta(testbed: EnumerableTestbed,
                         g_class: ThresholdScorerClass, g_index: int,
                         n_mc: int, rng: np.random.Generator) -> float:
    """Delta = E_p[l(f, g)] - E_q[l(f, g)]: exact under p, Monte Carlo under
    the mixup distribution q.

    Both terms take scorer g's row of a computation over the whole class:
    a product of that row alone with the point masses sums in another
    order and differs in most rows (1094 of 1280 at 10 bits, |G| = 64,
    seeds 0-19)."""
    if not INDEX.admits(g_index) or g_index >= g_class.cardinality:
        raise BoundError(f"g_index must be an int in [0, |G| = "
                         f"{g_class.cardinality}), got {g_index!r}")
    _check(n_mc=n_mc)
    under_p = float(population_risks(testbed, g_class)[g_index])
    _, mixed = _draw_trials(testbed, n_mc, n_mc, 1, rng)
    under_q = float(g_class.loss_matrix(mixed)[g_index].mean())
    return under_p - under_q


def _per_trial(wrong: np.ndarray, k: int, dtype) -> np.ndarray:
    """[k * n, G] errors, n points per trial -> [k, G] error counts."""
    return wrong.reshape(k, -1, wrong.shape[1]).sum(axis=1, dtype=dtype)


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

    The trials run in blocks of whole trials, at most ``_BLOCK_ROWS``
    originals and as many mixed points a block (unless one trial holds
    more), so memory does not grow with ``trials``.  A block has three
    phases:

    - Draw (``_draw_trials``): each trial makes three generator calls,
      in a per-trial loop's order: one ``random`` for its originals' and
      its pool's uniforms (each float64 takes one 64-bit output, so this
      is the stream of two ``draw`` calls), then ``mixup.draw_round``,
      which draws the partners among the pool and the Gamma pairs.
    - Per block, with no draws: the uniforms are inverted to indices into
      ``inputs``, lambdas are formed from the Gamma pairs, each mixed
      point gets its partner from its trial's pool and its parent by
      cycling the originals, the pairs get ``MixupPairs``' checks, and
      the mixed points are interpolated.
    - Score, with no draws: the originals' errors are gathered from the
      error table of every input, which is built once per report and
      whose float copy gives ``population_risks`` bit for bit.  The mixed
      points are scored by one ``errors`` call.  Both risks are error
      counts over n, which equal the means of n 0/1 losses bit for bit.

    The result equals a per-trial loop's because a point's errors do not
    depend on which other points share the ``errors`` call.  Its GEMM,
    which scores the teacher with the scorers, gives that bit for bit in
    any call of two rows or more; numpy sends one-row products to GEMV,
    whose rounding can differ, which changes an error only for a score
    within rounding of a threshold.
    tests/test_bounds.py::test_errors_rows_do_not_depend_on_the_block pins
    the error matrices at criterion 10's shape.
    """
    _check_enumerable(len(testbed.inputs), g_class.cardinality)
    COUNT.check("a", a, BoundError)
    _check(trials=trials, b_mix=b_mix)
    table = g_class.errors(testbed.inputs)
    pop = table.astype(np.float64) @ testbed.probs
    bound = hoeffding_gap_bound(M, g_class.cardinality, delta, a + b_mix)

    per_block = max(1, _BLOCK_ROWS // max(a, b_mix))
    counts = np.min_scalar_type(a + b_mix)   # holds every error count
    gaps_aug = np.empty(trials)
    gaps_plain = np.empty(trials)
    for start in range(0, trials, per_block):
        k = min(per_block, trials - start)
        originals, mixed = _draw_trials(testbed, a, b_mix, k, rng)

        # errors returns the transpose of a C-ordered [n, G] array
        wrong_plain = _per_trial(table.T[originals.ravel()], k, counts)
        wrong_aug = wrong_plain
        if mixed is not None:
            wrong_aug = wrong_plain + _per_trial(g_class.errors(mixed).T, k,
                                                 counts)

        rows = np.arange(k)
        for emp, gaps in ((wrong_aug / (a + b_mix), gaps_aug),
                          (wrong_plain / a, gaps_plain)):
            g = emp.argmin(axis=1)
            gaps[start:start + k] = pop[g] - emp[rows, g]

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
