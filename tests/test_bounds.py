"""Threshold calculators against an arbitrary-precision oracle, plus the
enumerable coverage testbed."""

import copy
import json
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from mixkd import bounds as B
from mixkd.mixup import MixupConfig, beta_from_gammas, draw_round

mp.mp.dps = 50


def mp_hoeffding(M, G, delta, n):
    return mp.mpf(M) * mp.sqrt(mp.log(mp.mpf(G) / mp.mpf(delta))
                               / (2 * mp.mpf(n)))


def mp_thm1_b(M, G, delta, a, eps, tri):
    margin = mp.mpf(eps) - mp.mpf(tri)
    raw = mp.mpf(M) ** 2 * mp.log(mp.mpf(G) / mp.mpf(delta)) / (2 * margin ** 2) - a
    return max(0, int(mp.ceil(raw)))


def mp_thm2_b(M, delta, a, eps, tri, L, R):
    margin = mp.mpf(eps) - mp.mpf(tri) - 2 * mp.mpf(L) * mp.mpf(R)
    raw = mp.mpf(M) ** 2 * mp.log(1 / mp.mpf(delta)) / (2 * margin ** 2) - a
    return max(0, int(mp.ceil(raw)))


def mp_thm3(delta, a, eps, tri, logC):
    margin_sq = (mp.mpf(eps) - mp.mpf(tri)) ** 2
    denom = margin_sq - 64 * mp.mpf(logC) / a
    b = max(0, int(mp.ceil(64 * mp.log(4 / mp.mpf(delta)) / denom)))
    a_min = max(0, int(mp.ceil(16 / margin_sq)))
    return b, a_min


def test_hoeffding_against_oracle(rng):
    for _ in range(50):
        M = float(rng.uniform(0.1, 5.0))
        G = int(rng.integers(1, 10 ** 6))
        delta = float(rng.uniform(1e-4, 1.0))
        n = int(rng.integers(1, 10 ** 7))
        got = B.hoeffding_gap_bound(M, G, delta, n)
        want = float(mp_hoeffding(M, G, delta, n))
        assert got == pytest.approx(want, rel=1e-12)


def test_hoeffding_input_validation():
    with pytest.raises(B.BoundError):
        B.hoeffding_gap_bound(1.0, 10, 0.1, 0)
    with pytest.raises(B.BoundError):
        B.hoeffding_gap_bound(1.0, 0, 0.1, 10)
    with pytest.raises(B.BoundError):
        B.hoeffding_gap_bound(1.0, 10, 1.5, 10)


def test_thm1_against_oracle(rng):
    for _ in range(50):
        M = float(rng.uniform(0.1, 4.0))
        G = int(rng.integers(2, 10 ** 4))
        delta = float(rng.uniform(0.001, 0.5))
        a = int(rng.integers(0, 1000))
        tri = float(rng.uniform(0.0, 0.2))
        eps = tri + float(rng.uniform(0.01, 0.5))
        assert B.thm1_required_b(M, G, delta, a, eps, tri) == \
            mp_thm1_b(M, G, delta, a, eps, tri)


def test_thm1_vacuous():
    with pytest.raises(B.VacuousBoundError):
        B.thm1_required_b(1.0, 10, 0.1, 0, 0.05, 0.05)


def test_thm2_against_oracle(rng):
    for _ in range(50):
        M = float(rng.uniform(0.1, 4.0))
        delta = float(rng.uniform(0.001, 0.5))
        a = int(rng.integers(0, 1000))
        tri = float(rng.uniform(0.0, 0.1))
        L = float(rng.uniform(0.1, 2.0))
        R = float(rng.uniform(0.0, 0.05))
        eps = tri + 2 * L * R + float(rng.uniform(0.01, 0.5))
        assert B.thm2_required_b(M, delta, a, eps, tri, L, R) == \
            mp_thm2_b(M, delta, a, eps, tri, L, R)


def test_thm2_vacuous():
    with pytest.raises(B.VacuousBoundError):
        B.thm2_required_b(1.0, 0.1, 0, 0.1, 0.0, 1.0, 0.1)


def test_thm3_against_oracle(rng):
    for _ in range(50):
        delta = float(rng.uniform(0.001, 0.5))
        tri = float(rng.uniform(0.0, 0.1))
        eps = tri + float(rng.uniform(0.2, 1.0))
        margin_sq = (eps - tri) ** 2
        a_min = max(1, math.ceil(16.0 / margin_sq))
        a = int(rng.integers(a_min, a_min + 2000))
        logC = float(rng.uniform(0.0, margin_sq * a / 64.0 * 0.9))
        assert B.thm3_required_b(delta, a, eps, tri, logC) == \
            mp_thm3(delta, a, eps, tri, logC)


def test_thm3_vacuous_cases():
    with pytest.raises(B.VacuousBoundError):
        B.thm3_required_b(0.1, 100, 0.1, 0.1, 0.0)  # no margin
    with pytest.raises(B.VacuousBoundError):
        B.thm3_required_b(0.1, 0, 0.5, 0.0, 0.0)  # a < 1
    with pytest.raises(B.VacuousBoundError):
        B.thm3_required_b(0.1, 10, 0.5, 0.0, 10.0)  # capacity term dominates
    with pytest.raises(B.VacuousBoundError):
        B.thm3_required_b(0.1, 10, 1.0, 0.0, 0.001)  # a below 16/margin^2


def test_bound_input_validation():
    """M > 0, 0 < delta <= 1, g_cardinality >= 1 and a >= 0, checked by every
    calculator for the arguments it takes; estimate_shift_delta's n_mc is
    an int >= 1."""
    calculators = {
        "hoeffding": lambda M=1.0, G=1, delta=0.05, a=0:
            B.hoeffding_gap_bound(M, G, delta, 100),
        "thm1": lambda M=1.0, G=1, delta=0.05, a=0:
            B.thm1_required_b(M, G, delta, a, 0.1, 0.0),
        "thm2": lambda M=1.0, G=1, delta=0.05, a=0:
            B.thm2_required_b(M, delta, a, 0.1, 0.0, 1.0, 0.0),
        "thm3": lambda M=1.0, G=1, delta=0.05, a=1000:
            B.thm3_required_b(delta, a, 0.9, 0.0, 0.0),
    }
    takes = {"hoeffding": "M G delta", "thm1": "M G delta a",
             "thm2": "M delta a", "thm3": "delta a"}
    bad = {"M": [("M", 0.0), ("M", -1.0), ("M", float("nan")),
                 ("M", math.inf)],
           "G": [("g_cardinality", 0)],
           "delta": [("delta", 0.0), ("delta", 2.0), ("delta", -0.1)],
           "a": [("a", -1)]}
    for name, calc in calculators.items():
        calc()
        for arg in takes[name].split():
            for label, value in bad[arg]:
                with pytest.raises(B.BoundError, match=f"^{re.escape(label)} "):
                    calc(**{arg: value})
    tb = B.make_testbed(n_bits=6, seed=7)
    gc = B.make_scorer_class(tb, g_size=8, seed=8)
    for n_mc in [0, -1, 2.5, True, "10", None]:
        with pytest.raises(B.BoundError, match="^n_mc must be an int >= 1, "
                                               f"got {re.escape(repr(n_mc))}$"):
            B.estimate_shift_delta(tb, gc, g_index=0, n_mc=n_mc,
                                   rng=np.random.default_rng(0))


def test_monotonicity_grids():
    ns = [10, 100, 1000, 10000]
    vals = [B.hoeffding_gap_bound(1.0, 64, 0.1, n) for n in ns]
    assert vals == sorted(vals, reverse=True)

    eps_grid = [0.05, 0.1, 0.2, 0.4]
    bs = [B.thm1_required_b(1.0, 64, 0.1, 0, e, 0.0) for e in eps_grid]
    assert bs == sorted(bs, reverse=True)

    deltas = [0.01, 0.05, 0.2]
    bs = [B.thm1_required_b(1.0, 64, d, 0, 0.1, 0.0) for d in deltas]
    assert bs == sorted(bs, reverse=True)

    # larger a means fewer augmented samples required
    as_grid = [0, 50, 150]
    bs = [B.thm1_required_b(1.0, 64, 0.1, a, 0.1, 0.0) for a in as_grid]
    assert bs == sorted(bs, reverse=True)


# ---------------------------------------------------------------------------
# enumerable testbed
# ---------------------------------------------------------------------------

def test_make_testbed_properties():
    tb = B.make_testbed(n_bits=6, seed=0)
    assert tb.inputs.shape == (64, 6)
    assert set(np.unique(tb.inputs)) == {0.0, 1.0}
    assert tb.probs.sum() == pytest.approx(1.0)
    assert (tb.probs > 0).all()
    with pytest.raises(B.BoundError):
        B.make_testbed(n_bits=20)


@pytest.mark.parametrize("n_bits", [1, 6, 10])
def test_sample_is_choice_bitwise(n_bits):
    """Inversion from the stored CDF draws the indices that
    rng.choice(N, size=n, p=probs) draws and leaves the generator in the
    same state."""
    tb = B.make_testbed(n_bits=n_bits, seed=n_bits)
    for seed in range(5):
        for n in (1, 7, 199, 200):
            rng = np.random.default_rng(seed)
            ref = copy.deepcopy(rng)
            got = tb.sample(n, rng)
            want = tb.inputs[ref.choice(len(tb.probs), size=n, p=tb.probs)]
            assert got.shape == want.shape == (n, n_bits)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


class _Keys:
    """Stands in for a Generator whose next uniform draws are ``keys``."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.float64)

    def random(self, n):
        assert n == len(self.keys)
        return self.keys


def _masses(n, zeros, rng):
    """n point masses spanning several orders of magnitude, with a share
    of zeros: repeated CDF entries and slices holding many of them."""
    probs = rng.random(n) ** 8
    probs[rng.random(n) < zeros] = 0.0
    return probs / probs.sum()


@pytest.mark.parametrize("probs, crowded", [
    (np.full(4, 0.25), False), (np.full(1024, 1 / 1024), False),
    (_masses(64, 0.3, np.random.default_rng(0)), True),
    (_masses(1000, 0.0, np.random.default_rng(1)), True),
    (_masses(5000, 0.5, np.random.default_rng(2)), True),
    (B.make_testbed(n_bits=10, seed=0).probs, False),
], ids=["uniform-4", "uniform-1024", "zeros-64", "spread-1000",
        "zeros-5000", "testbed-10"])
def test_draw_is_searchsorted_bitwise(probs, crowded):
    """The slice lookup returns cdf.searchsorted(u, side="right") for
    random draws and for the keys where it could go wrong: 0, the largest
    draw below 1, every CDF entry and slice edge and their neighbours.
    The cases cover testbeds with and without crowded slices."""
    n = len(probs)
    inputs = ((np.arange(n)[:, None] >> np.arange(13)[None, :]) & 1)
    tb = B.EnumerableTestbed(inputs.astype(np.float64), probs)
    assert tb.crowded.any() == crowded
    slices = len(tb.below)
    edges = np.arange(slices) / slices
    near = np.concatenate([tb.cdf, edges])
    keys = np.concatenate([
        [0.0, 1.0 - 2.0 ** -53], near, np.nextafter(near, 0.0),
        np.nextafter(near, 1.0), np.random.default_rng(n).random(20000)])
    keys = keys[(keys >= 0.0) & (keys < 1.0)]
    got = tb.draw(len(keys), _Keys(keys))
    np.testing.assert_array_equal(got, tb.cdf.searchsorted(keys,
                                                           side="right"))
    assert got.dtype == np.intp
    for arr in (tb.below, tb.crowded):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


@pytest.mark.parametrize("probs", [
    _masses(64, 0.3, np.random.default_rng(0)),
    _masses(5000, 0.5, np.random.default_rng(2)),
    B.make_testbed(n_bits=10, seed=0).probs,
], ids=["zeros-64", "zeros-5000", "testbed-10"])
def test_invert_block_is_draw_per_row(probs):
    """Inverting a [k, n] block of uniforms, drawn row by row, gives each
    row's ``draw`` bit for bit, crowded slices included, and leaves the
    generator where the ``draw`` calls do."""
    n = len(probs)
    inputs = ((np.arange(n)[:, None] >> np.arange(13)[None, :]) & 1)
    tb = B.EnumerableTestbed(inputs.astype(np.float64), probs)
    rng = np.random.default_rng(n)
    replay = copy.deepcopy(rng)
    u = np.empty((7, 399))
    for row in u:
        rng.random(out=row)
    if n != 1024:
        assert tb.crowded[(u * len(tb.below)).astype(np.intp)].any()
    got = tb.invert(u)
    want = np.stack([tb.draw(399, replay) for _ in range(7)])
    assert got.dtype == np.intp and got.shape == (7, 399)
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("probs, match", [
    ([0.5, 0.6, -0.1, 0.0], "nonnegative"),
    ([0.5, np.nan, 0.25, 0.25], "NaN"),
    ([0.25, 0.25, 0.25, 0.2], "sum to 1"),
    ([np.inf, 0.0, 0.0, 0.0], "sum to 1"),
    ([0.5, 0.5], "one mass per input"),
    ([[0.25, 0.25], [0.25, 0.25]], "1-D"),
], ids=["negative", "nan", "sum", "inf", "length", "2d"])
def test_testbed_rejects_malformed_probs(probs, match):
    inputs = B.make_testbed(n_bits=2).inputs
    with pytest.raises(B.BoundError, match=match):
        B.EnumerableTestbed(inputs, np.array(probs))


def test_testbed_arrays_read_only():
    probs = np.full(8, 0.125)
    tb = B.EnumerableTestbed(B.make_testbed(n_bits=3).inputs, probs)
    for arr in (tb.inputs, tb.probs, tb.cdf):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(AttributeError):
        tb.probs = probs
    probs[0] = 0.0  # the testbed holds a copy
    assert tb.probs[0] == 0.125 and tb.cdf[-1] == 1.0


def test_scorer_class_enumeration(rng):
    tb = B.make_testbed(n_bits=6, seed=1)
    gc = B.make_scorer_class(tb, g_size=16, seed=2)
    assert gc.cardinality == 16
    losses = gc.loss_matrix(tb.inputs)
    assert losses.shape == (16, 64)
    assert set(np.unique(losses)) <= {0.0, 1.0}
    with pytest.raises(B.BoundError):
        gc.loss_matrix(np.empty((0, 6)))


def test_population_risks_exact(rng):
    tb = B.make_testbed(n_bits=5, seed=3)
    gc = B.make_scorer_class(tb, g_size=8, seed=4)
    risks = B.population_risks(tb, gc)
    assert ((0.0 <= risks) & (risks <= 1.0)).all()
    # brute-force check for one scorer
    g0 = (tb.inputs @ gc.weights[0] >= gc.thresholds[0]).astype(float)
    f = tb.inputs @ gc.teacher_weights >= gc.teacher_threshold
    assert risks[0] == pytest.approx(float((np.abs(g0 - f) * tb.probs).sum()))


def test_rademacher_estimate_range(rng):
    tb = B.make_testbed(n_bits=6, seed=5)
    gc = B.make_scorer_class(tb, g_size=16, seed=6)
    sample = tb.sample(100, rng)
    est = B.rademacher_mc_estimate(gc, sample, trials=200, rng=rng)
    assert 0.0 <= est <= 1.0
    with pytest.raises(B.BoundError):
        B.rademacher_mc_estimate(gc, sample, trials=0, rng=rng)


def test_estimate_shift_delta_bounded(rng):
    tb = B.make_testbed(n_bits=6, seed=7)
    gc = B.make_scorer_class(tb, g_size=8, seed=8)
    d = B.estimate_shift_delta(tb, gc, g_index=0, n_mc=2000, rng=rng)
    assert -1.0 <= d <= 1.0


@pytest.mark.parametrize("g_index", [-1, 8, 1.0, "0", True, None])
def test_estimate_shift_delta_checks_g_index(g_index, rng):
    tb = B.make_testbed(n_bits=4, seed=7)
    gc = B.make_scorer_class(tb, g_size=8, seed=8)
    with pytest.raises(B.BoundError, match="^g_index must be an int in "
                                           r"\[0, \|G\| = 8\)"):
        B.estimate_shift_delta(tb, gc, g_index=g_index, n_mc=10, rng=rng)
    replay = copy.deepcopy(rng)
    assert (B.estimate_shift_delta(tb, gc, g_index=np.int64(7), n_mc=10,
                                   rng=rng)
            == B.estimate_shift_delta(tb, gc, g_index=7, n_mc=10, rng=replay))


def _mixed_trial(tb, a, b_mix, rng):
    """One trial's draws, written per call: a originals, a pool of b_mix
    fresh draws, then one ``draw_round`` over the pool.  Mixed point k
    has parent ``originals[k % a]`` and a distinct pool row as partner.
    Returns (the originals' indices into ``inputs``, the mixed points, or
    None if b_mix is 0)."""
    idx = tb.draw(a, rng)
    if b_mix == 0:
        return idx, None
    pool = tb.draw(b_mix, rng)
    gammas = np.empty((b_mix, 2))
    partners = draw_round(b_mix, MixupConfig().beta_alpha, rng, b_mix, gammas)
    lam = beta_from_gammas(gammas)[:, None]
    parents = tb.inputs[idx[np.arange(b_mix) % a]]
    return idx, lam * parents + (1.0 - lam) * tb.inputs[pool[partners]]


@pytest.mark.parametrize("n_mc", [1, 7, 200])
@pytest.mark.parametrize("n_bits, seed", [(6, 7), (10, 0)])
def test_estimate_shift_delta_equals_per_call_recipe(n_bits, seed, n_mc):
    """The shift estimate is one trial of n_mc originals and n_mc mixed
    points: bit for bit the per-call recipe's, and the generator ends
    where the recipe leaves it."""
    tb = B.make_testbed(n_bits=n_bits, seed=seed)
    gc = B.make_scorer_class(tb, g_size=16, seed=seed + 1)
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    delta = B.estimate_shift_delta(tb, gc, g_index=3, n_mc=n_mc, rng=rng)
    _, mixed = _mixed_trial(tb, n_mc, n_mc, oracle)
    expected = (float(B.population_risks(tb, gc)[3])
                - float(gc.loss_matrix(mixed)[3].mean()))
    assert np.float64(delta).tobytes() == np.float64(expected).tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_draw_trials_pairs_fresh_pool_rows(rng):
    """Each of k trials draws its originals and a fresh pool in one
    ``random`` call, then its partners, distinct pool rows, and Gamma
    pairs; mixed point k of a trial mixes its originals, cycled, with
    its partner's pool row.  Without mixed points only the originals are
    drawn."""
    tb = B.make_testbed(n_bits=6, seed=7)
    replay = copy.deepcopy(rng)
    originals, mixed = B._draw_trials(tb, 5, 12, 3, rng)
    assert originals.shape == (3, 5)
    assert mixed.shape == (3 * 12, tb.inputs.shape[1])
    for t in range(3):
        u = replay.random(5 + 12)
        np.testing.assert_array_equal(originals[t], tb.invert(u[:5]))
        pool = tb.invert(u[5:])
        gammas = np.empty((12, 2))
        partners = draw_round(12, 0.4, replay, 12, gammas)
        assert sorted(partners.tolist()) == list(range(12))
        for k, (j, lam) in enumerate(zip(partners,
                                         beta_from_gammas(gammas))):
            parent = tb.inputs[originals[t, k % 5]]
            np.testing.assert_array_equal(
                mixed[12 * t + k],
                lam * parent + (1.0 - lam) * tb.inputs[pool[j]])
    assert rng.bit_generator.state == replay.bit_generator.state
    originals, mixed = B._draw_trials(tb, 5, 0, 2, rng)
    assert mixed is None
    np.testing.assert_array_equal(originals, tb.invert(replay.random((2, 5))))
    assert rng.bit_generator.state == replay.bit_generator.state


def _two_call_gaps(tb, gc, a, b_mix, trials, rng):
    """empirical_gap_experiment's gaps with the plain risks taken from a
    second loss_matrix call on the originals alone."""
    pop = B.population_risks(tb, gc)
    aug, plain = [], []
    for _ in range(trials):
        idx, mixed = _mixed_trial(tb, a, b_mix, rng)
        originals = tb.inputs[idx]
        pooled = originals if mixed is None else np.vstack([originals, mixed])
        for sample, gaps in ((pooled, aug), (originals, plain)):
            emp = gc.loss_matrix(sample).mean(axis=1)
            g = int(emp.argmin())
            gaps.append(float(pop[g] - emp[g]))
    return aug, plain


@pytest.mark.parametrize("a, b_mix, n_bits, g_size, trials", [
    (200, 199, 8, 32, 6), (50, 0, 8, 32, 6), (20, 300, 8, 32, 6),
    (7, 3, 8, 32, 6), (200, 199, 10, 64, 6), (200, 199, 10, 64, 7),
    (200, 199, 10, 64, 41)],
    ids=["200-199", "50-0", "20-300", "7-3", "criterion_10", "criterion_10-7",
         "criterion_10-41"])
def test_gap_experiment_one_loss_matrix_per_trial(a, b_mix, n_bits, g_size,
                                                  trials, monkeypatch):
    tb = B.make_testbed(n_bits=n_bits, seed=3)
    gc = B.make_scorer_class(tb, g_size=g_size, seed=4)
    oracle_rng = np.random.default_rng(5)
    aug, plain = _two_call_gaps(tb, gc, a, b_mix, trials, oracle_rng)
    calls = []

    def counted(points):
        calls.append(len(points))
        return B.ThresholdScorerClass.errors(gc, points)
    monkeypatch.setattr(gc, "errors", counted)
    rng = np.random.default_rng(5)
    report = B.empirical_gap_experiment(tb, gc, a=a, b_mix=b_mix,
                                        trials=trials, delta=0.1, rng=rng)
    # the error table of the whole testbed, then blocks of whole trials'
    # mixed points
    assert calls[0] == len(tb.inputs)
    blocks = calls[1:]
    assert sum(blocks) == trials * b_mix
    assert all(n % b_mix == 0 and n <= B._BLOCK_ROWS for n in blocks)
    assert report.gaps_augmented == aug
    assert report.gaps_plain == plain
    assert rng.random() == oracle_rng.random()


def _trial_errors(tb, gc, a, b_mix, rng):
    """One trial's (originals, mixed points) errors, from one call on its
    pooled points, as the experiment made them per trial."""
    idx, mixed = _mixed_trial(tb, a, b_mix, rng)
    wrong = gc.errors(np.vstack([tb.inputs[idx], mixed]))
    return wrong[:, :a], wrong[:, a:], mixed


@pytest.mark.parametrize("seed", range(5))
def test_errors_rows_do_not_depend_on_the_block(seed):
    """At criterion 10's shape, the errors of a trial's points are the same
    when scored with the trial's other points, as rows of the table of
    every input, or in one call on five trials' mixed points: the row
    invariance the experiment's block scoring relies on."""
    tb = B.make_testbed(n_bits=10, seed=seed)
    gc = B.make_scorer_class(tb, g_size=64, seed=seed + 1)
    table = gc.errors(tb.inputs)
    rng = np.random.default_rng(seed)
    replay = copy.deepcopy(rng)
    trials = [_trial_errors(tb, gc, 200, 199, rng) for _ in range(5)]
    block = gc.errors(np.vstack([mixed for _, _, mixed in trials]))
    for t, (wrong_originals, wrong_mixed, _) in enumerate(trials):
        idx, _ = _mixed_trial(tb, 200, 199, replay)
        np.testing.assert_array_equal(table[:, idx], wrong_originals)
        np.testing.assert_array_equal(block[:, 199 * t:199 * (t + 1)],
                                      wrong_mixed)


def test_gap_experiment_memory_does_not_grow_with_trials():
    """Beyond the gap lists, a report holds one block at a time: the
    traced peak at 400 trials is within 1.5x of that at 40."""
    tb = B.make_testbed(n_bits=10, seed=0)
    gc = B.make_scorer_class(tb, g_size=64, seed=1)
    peaks = []
    for trials in (40, 400):
        tracemalloc.start()
        try:
            B.empirical_gap_experiment(tb, gc, a=200, b_mix=199,
                                       trials=trials, delta=0.1,
                                       rng=np.random.default_rng(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_empirical_gap_experiment_report(rng):
    tb = B.make_testbed(n_bits=6, seed=9)
    gc = B.make_scorer_class(tb, g_size=16, seed=10)
    report = B.empirical_gap_experiment(tb, gc, a=50, b_mix=25, trials=30,
                                        delta=0.1, rng=rng)
    assert report.trials == 30
    assert 0.0 <= report.coverage_fraction <= 1.0
    assert report.gamma == (50 + 25) // 50
    assert len(report.gaps_augmented) == 30
    d = report.to_dict()
    assert d["delta"] == 0.1
    # `mixkd bound verify` prints this dict: its JSON keeps the key order
    # and values of the fields written out by hand
    assert json.dumps(d) == json.dumps({
        "bound_value": report.bound_value,
        "coverage_fraction": report.coverage_fraction,
        "trials": report.trials, "delta": report.delta,
        "passed": report.passed, "eps_star_hat": report.eps_star_hat,
        "eps_p_hat": report.eps_p_hat, "gamma": report.gamma})
    with pytest.raises(B.BoundError):
        B.empirical_gap_experiment(tb, gc, a=0, b_mix=0, trials=5, delta=0.1,
                                   rng=rng)
    with pytest.raises(B.BoundError, match="b_mix"):
        B.empirical_gap_experiment(tb, gc, a=10, b_mix=-3, trials=1,
                                   delta=0.1, rng=rng)
