"""Acceptance gate: thirteen end-to-end criteria, one PASS/FAIL line each.

Criteria 7 and 13 include a reported-but-not-gated observation; the
gated assertion for each criterion is stated next to its report line.
"""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd import bounds as B
from mixkd import synthetic
from mixkd.autodiff import Tensor, constant, finite_diff_check
from mixkd.data import make_batch, subsample
from mixkd.distill import (LossWeights, SweepGrid, TrainConfig, _train_loop,
                           distill_student, run_seeds, sweep_grid,
                           train_teacher)
from mixkd.evaluation import throughput_bench
from mixkd.mixup import MixupConfig, mix_batch, sample_lambda
from mixkd.model import (ModelConfig, embed_batch, forward_from_embeddings,
                         init_random, init_student_from_teacher,
                         load_checkpoint, parameter_count_formula,
                         save_checkpoint)

mp.mp.dps = 50


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nCRITERION {criterion:2d}: {status} - {detail}")


# ---------------------------------------------------------------------------
# shared experiment fixtures (module scope: built once)
# ---------------------------------------------------------------------------

TEACHER_MODEL = dict(num_layers=4, hidden_dim=64, num_heads=4, ffn_dim=128,
                     num_classes=2)
SEEDS = list(range(10))


@pytest.fixture(scope="module")
def effect_task():
    return synthetic.make_task(n_train=2000, n_dev=500, seed=7,
                               signal_rate=0.2)


@pytest.fixture(scope="module")
def teacher_full(effect_task):
    config = ModelConfig(vocab_size=effect_task.vocab.size,
                         max_seq_len=effect_task.max_len, **TEACHER_MODEL)
    train_config = TrainConfig(epochs=3, batch_size=32, learning_rate=1e-3,
                               seed=0)
    params, record = train_teacher(train_config, config, effect_task)
    return params, config, record


def _student_runs(task, teacher, teacher_config, epochs):
    """Final dev accuracy per seed for the plain and mixup-distilled student."""
    student_config = dataclasses.replace(teacher_config, num_layers=1)
    config = TrainConfig(epochs=epochs, batch_size=32, learning_rate=1e-3)
    return {variant: np.array(run_seeds(config, student_config, task, teacher,
                                        variant, SEEDS)["per_seed"])
            for variant in ("ft", "sm_tmkd")}


@pytest.fixture(scope="module")
def effect_runs(effect_task, teacher_full):
    teacher, teacher_config, _ = teacher_full
    before = teacher.checksum()
    runs = _student_runs(effect_task, teacher, teacher_config, epochs=1)
    return runs, before, teacher.checksum()


@pytest.fixture(scope="module")
def limited_runs(effect_task, teacher_full):
    small = dataclasses.replace(
        effect_task, train=subsample(effect_task.train, 0.1, seed=123))
    _, teacher_config, _ = teacher_full
    train_config = TrainConfig(epochs=30, batch_size=32, learning_rate=1e-3,
                               seed=0)
    teacher, _ = train_teacher(train_config, teacher_config, small)
    return _student_runs(small, teacher, teacher_config, epochs=6)


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness(rng):
    start = time.monotonic()

    # (a) primitives
    primitive_err = 0.0

    def check(f, x):
        nonlocal primitive_err
        rep = finite_diff_check(f, x, h=1e-4, tol=1e-4, max_entries=8,
                                rng=rng)
        primitive_err = max(primitive_err, rep.max_rel_err)

    other = constant(rng.normal(size=(3, 4)))
    for op in (ad.add, ad.sub, ad.mul):
        check(lambda t, op=op: ad.tsum(op(t, other)),
              Tensor(rng.normal(size=(3, 4)), requires_grad=True))
    check(lambda t: ad.tsum(ad.scale(t, 1.7)),
          Tensor(rng.normal(size=(3, 4)), requires_grad=True))
    b2 = constant(rng.normal(size=(4, 3)))
    check(lambda t: ad.tsum(ad.matmul(t, b2)),
          Tensor(rng.normal(size=(2, 4)), requires_grad=True))
    bb = constant(rng.normal(size=(2, 4, 3)))
    check(lambda t: ad.tsum(ad.matmul(t, bb)),
          Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True))
    check(lambda t: ad.tsum(ad.gather_rows(t, np.array([0, 2, 2, 1]))),
          Tensor(rng.normal(size=(3, 4)), requires_grad=True))
    xc = constant(rng.normal(size=(3, 4)))
    check(lambda t: ad.tsum(ad.add_bias(xc, t)),
          Tensor(rng.normal(size=(4,)), requires_grad=True))
    check(lambda t: ad.tsum(ad.select_index(t, 0)),
          Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True))
    w = constant(rng.normal(size=(4, 6)))
    check(lambda t: ad.tsum(ad.mul(ad.softmax(t), w)),
          Tensor(rng.normal(size=(4, 6)), requires_grad=True))
    gain = constant(rng.normal(size=(6,)) + 1.0)
    bias = constant(rng.normal(size=(6,)))
    w2 = constant(rng.normal(size=(5, 6)))
    check(lambda t: ad.tsum(ad.mul(ad.layer_norm(t, gain, bias), w2)),
          Tensor(rng.normal(size=(5, 6)), requires_grad=True))
    check(lambda t: ad.tsum(ad.gelu(t)),
          Tensor(rng.normal(size=(4, 5)), requires_grad=True))
    targets = constant(np.eye(3)[[0, 2, 1, 1]])
    check(lambda t: ad.cross_entropy(ad.softmax(t), targets),
          Tensor(rng.normal(size=(4, 3)), requires_grad=True))
    mb = constant(rng.normal(size=(3, 4)))
    check(lambda t: ad.mse(t, mb),
          Tensor(rng.normal(size=(3, 4)), requires_grad=True))

    # (b) the full training objective of a 2-layer d=8 model, per parameter
    config = ModelConfig(num_layers=2, hidden_dim=8, num_heads=2, ffn_dim=16,
                         vocab_size=24, max_seq_len=6, num_classes=2)
    teacher = init_random(config, seed=1).freeze()
    student = init_random(config, seed=2)
    ids = rng.integers(4, 24, size=(4, 6))
    ids[:, 0] = 2
    mask = np.ones((4, 6), dtype=bool)
    mask[1, 4:] = False
    ids[1, 4:] = 0
    labels = np.eye(2)[[0, 1, 1, 0]]
    from mixkd.data import Batch
    from mixkd.distill import total_loss
    from mixkd.mixup import MixupPairs
    batch = Batch(ids, mask, labels)
    pairs = MixupPairs(np.arange(4), (np.arange(4) + 1) % 4,
                       0.35 + 0.1 * np.arange(4))
    weights = LossWeights(alpha_sm=1.0, alpha_tmkd=1.0)

    def objective(_):
        loss, _ = total_loss(batch, pairs, teacher, student, weights,
                             variant="sm_tmkd")
        return loss

    model_err = 0.0
    for name in student.names:
        rep = finite_diff_check(objective, student[name], h=1e-4, tol=1e-4,
                                max_entries=3, rng=rng)
        model_err = max(model_err, rep.max_rel_err)

    elapsed = time.monotonic() - start
    max_err = max(primitive_err, model_err)
    passed = max_err < 1e-4 and elapsed < 60.0
    report(1, passed, f"max relative gradient error {max_err:.2e} "
                      f"(primitives {primitive_err:.2e}, full objective "
                      f"{model_err:.2e}), {elapsed:.1f}s")
    assert passed


# ---------------------------------------------------------------------------
# 2. mixup algebra
# ---------------------------------------------------------------------------

def test_criterion_02_mixup_algebra(rng):
    failures = 0
    cases = 1000
    for _ in range(cases):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        len_i = int(rng.integers(1, t + 1))
        len_j = int(rng.integers(1, t + 1))
        mask_i = np.arange(t) < len_i
        mask_j = np.arange(t) < len_j
        ei = rng.normal(size=(n, t, d))
        ej = rng.normal(size=(n, t, d))
        ei[:, ~mask_i] = 0.0
        ej[:, ~mask_j] = 0.0
        mi = np.broadcast_to(mask_i, (n, t)).copy()
        mj = np.broadcast_to(mask_j, (n, t)).copy()
        li = np.eye(2)[rng.integers(0, 2, n)]
        lj = np.eye(2)[rng.integers(0, 2, n)]
        lam = rng.uniform(size=n)
        try:
            mixed, mm, ml = mix_batch(constant(ei), constant(ej), mi, mj,
                                      li, lj, lam)
            # endpoints
            one, _, lab1 = mix_batch(constant(ei), constant(ej), mi, mj,
                                     li, lj, np.ones(n))
            assert np.array_equal(one.data, ei)
            assert np.array_equal(lab1, li)
            zero, _, lab0 = mix_batch(constant(ei), constant(ej), mi, mj,
                                      li, lj, np.zeros(n))
            assert np.array_equal(zero.data, ej)
            assert np.array_equal(lab0, lj)
            # simplex
            assert np.abs(ml.sum(axis=1) - 1.0).max() <= 1e-12
            # symmetry
            sym, _, lsym = mix_batch(constant(ej), constant(ei), mj, mi,
                                     lj, li, 1.0 - lam)
            assert np.allclose(mixed.data, sym.data, atol=1e-13)
            assert np.allclose(ml, lsym, atol=1e-13)
            # pad tail of the shorter sequence: lambda * x_i exactly
            if len_j < len_i:
                tail = slice(len_j, len_i)
                assert np.allclose(mixed.data[:, tail],
                                   lam[:, None, None] * ei[:, tail],
                                   atol=1e-13)
            # same-lambda coherence: one shared lambda mixes every row alike
            shared = float(lam[0])
            coh, _, _ = mix_batch(constant(ei), constant(ej), mi, mj, li, lj,
                                  np.full(n, shared))
            assert np.allclose(coh.data, shared * ei + (1 - shared) * ej,
                               atol=1e-13)
            assert np.array_equal(mm, mi | mj)
        except AssertionError:
            failures += 1
    passed = failures == 0
    report(2, passed, f"{cases - failures}/{cases} randomized algebra cases")
    assert passed


# ---------------------------------------------------------------------------
# 3. Beta sampler moments
# ---------------------------------------------------------------------------

def test_criterion_03_beta_sampler():
    rng = np.random.default_rng(12345)
    config = MixupConfig(beta_alpha=0.4)
    n = 10 ** 5
    draws = np.array([sample_lambda(config, rng) for _ in range(n)])
    # analytic moments of Beta(0.4, 0.4): mean 1/2,
    # variance a^2/((2a)^2 (2a+1)) = 5/36, central fourth moment (frozen
    # 50-digit evaluation) 0.027412280701754386
    var_true = 5.0 / 36.0
    mu4 = 0.027412280701754386
    three_sigma = 3.0 * math.sqrt((mu4 - var_true ** 2) / n)
    mean_ok = abs(draws.mean() - 0.5) <= 0.01
    var_ok = abs(draws.var() - var_true) <= three_sigma
    passed = mean_ok and var_ok
    report(3, passed,
           f"mean {draws.mean():.4f} (target 0.5±0.01), variance "
           f"{draws.var():.5f} vs {var_true:.5f} ± {three_sigma:.5f} (3 MC sigma)")
    assert passed


# ---------------------------------------------------------------------------
# 4. FT-equivalence
# ---------------------------------------------------------------------------

def test_criterion_04_ft_equivalence():
    task = synthetic.make_task(n_train=400, n_dev=100, seed=21,
                               signal_rate=0.3)
    model_config = ModelConfig(num_layers=2, hidden_dim=16, num_heads=2,
                               ffn_dim=32, vocab_size=task.vocab.size,
                               max_seq_len=task.max_len, num_classes=2)
    teacher = init_random(model_config, seed=5)
    student_config = dataclasses.replace(model_config, num_layers=1)
    config = TrainConfig(epochs=10, batch_size=16, seed=17,
                         mixup=MixupConfig(mixup_ratio=0),
                         loss=LossWeights(alpha_sm=0.0, alpha_tmkd=0.0))

    plain = init_student_from_teacher(teacher, student_config)
    plain_best, plain_rec = _train_loop(plain, config, task, teacher=None,
                                        variant="ft", max_steps=50)
    distilled, rec = distill_student(config, student_config, task, teacher,
                                     variant="ft", max_steps=50)
    same_steps = all(
        a["loss_total"] == b["loss_total"] and a["loss_mle"] == b["loss_mle"]
        for a, b in zip(plain_rec.steps, rec.steps))
    same_params = plain_best.checksum() == distilled.checksum()
    passed = (same_steps and same_params and len(rec.steps) == 50)
    report(4, passed,
           f"50-step trajectory bitwise identical: losses {same_steps}, "
           f"final parameter checksum match {same_params}")
    assert passed


# ---------------------------------------------------------------------------
# 5 & 6. teacher frozenness and the desk-scale distillation effect
# ---------------------------------------------------------------------------

def test_criterion_05_teacher_frozen(effect_runs):
    _, before, after = effect_runs
    passed = before == after
    report(5, passed, f"teacher checksum unchanged across 20 distillation "
                      f"runs ({before[:12]}...)")
    assert passed


def test_criterion_06_distillation_effect(effect_runs):
    runs, _, _ = effect_runs
    ft, sm = runs["ft"], runs["sm_tmkd"]
    wins = int((sm >= ft).sum())
    passed = sm.mean() >= ft.mean() and wins >= 7
    report(6, passed,
           f"mean dev accuracy mixup-distilled {sm.mean():.4f} vs plain "
           f"{ft.mean():.4f} over {len(SEEDS)} seeds; wins {wins}/10")
    assert passed


def test_criterion_07_limited_data(effect_runs, limited_runs):
    runs, _, _ = effect_runs
    full_gap = runs["sm_tmkd"].mean() - runs["ft"].mean()
    ft, sm = limited_runs["ft"], limited_runs["sm_tmkd"]
    gap = sm.mean() - ft.mean()
    passed = gap >= 0.0
    exceeds = gap > full_gap
    report(7, passed,
           f"10%-data accuracy gap {gap:+.4f} (gated: >= 0); full-data gap "
           f"{full_gap:+.4f}; limited-data gap exceeds full-data gap: "
           f"{exceeds} (reported, not gated)")
    assert passed


# ---------------------------------------------------------------------------
# 8. bound formulas vs an arbitrary-precision oracle
# ---------------------------------------------------------------------------

def test_criterion_08_bound_formulas():
    rng = np.random.default_rng(99)
    worst = 0.0

    def rel(got, want):
        w = float(want)
        return abs(float(got) - w) / max(abs(w), 1.0)

    for _ in range(100):
        M = float(rng.uniform(0.1, 5.0))
        G = int(rng.integers(1, 10 ** 6))
        delta = float(rng.uniform(1e-4, 0.999))
        n = int(rng.integers(1, 10 ** 7))
        want = mp.mpf(M) * mp.sqrt(mp.log(mp.mpf(G) / mp.mpf(delta))
                                   / (2 * mp.mpf(n)))
        worst = max(worst, rel(B.hoeffding_gap_bound(M, G, delta, n), want))

    for _ in range(100):
        M = float(rng.uniform(0.1, 4.0))
        G = int(rng.integers(2, 10 ** 4))
        delta = float(rng.uniform(0.001, 0.5))
        a = int(rng.integers(0, 1000))
        tri = float(rng.uniform(0.0, 0.2))
        eps = tri + float(rng.uniform(0.01, 0.5))
        margin = mp.mpf(eps) - mp.mpf(tri)
        want = max(0, int(mp.ceil(
            mp.mpf(M) ** 2 * mp.log(mp.mpf(G) / mp.mpf(delta))
            / (2 * margin ** 2) - a)))
        worst = max(worst, rel(B.thm1_required_b(M, G, delta, a, eps, tri),
                               want))

    for _ in range(100):
        M = float(rng.uniform(0.1, 4.0))
        delta = float(rng.uniform(0.001, 0.5))
        a = int(rng.integers(0, 1000))
        tri = float(rng.uniform(0.0, 0.1))
        L = float(rng.uniform(0.1, 2.0))
        R = float(rng.uniform(0.0, 0.05))
        eps = tri + 2 * L * R + float(rng.uniform(0.01, 0.5))
        margin = mp.mpf(eps) - mp.mpf(tri) - 2 * mp.mpf(L) * mp.mpf(R)
        want = max(0, int(mp.ceil(
            mp.mpf(M) ** 2 * mp.log(1 / mp.mpf(delta)) / (2 * margin ** 2)
            - a)))
        worst = max(worst,
                    rel(B.thm2_required_b(M, delta, a, eps, tri, L, R), want))

    for _ in range(100):
        delta = float(rng.uniform(0.001, 0.5))
        tri = float(rng.uniform(0.0, 0.1))
        eps = tri + float(rng.uniform(0.2, 1.0))
        margin_sq = (mp.mpf(eps) - mp.mpf(tri)) ** 2
        a_min = max(1, int(mp.ceil(16 / margin_sq)))
        a = int(rng.integers(a_min, a_min + 2000))
        logC = float(rng.uniform(0.0, float(margin_sq) * a / 64.0 * 0.9))
        denom = margin_sq - 64 * mp.mpf(logC) / a
        want_b = max(0, int(mp.ceil(64 * mp.log(4 / mp.mpf(delta)) / denom)))
        got_b, got_a = B.thm3_required_b(delta, a, eps, tri, logC)
        worst = max(worst, rel(got_b, want_b), rel(got_a, a_min))

    # monotonicity grids
    hoeff = [B.hoeffding_gap_bound(1.0, 64, 0.1, n)
             for n in (10, 100, 1000, 10000)]
    thm1_eps = [B.thm1_required_b(1.0, 64, 0.1, 0, e, 0.0)
                for e in (0.05, 0.1, 0.2, 0.4)]
    thm1_a = [B.thm1_required_b(1.0, 64, 0.1, a, 0.1, 0.0)
              for a in (0, 50, 150)]
    monotone = (hoeff == sorted(hoeff, reverse=True)
                and thm1_eps == sorted(thm1_eps, reverse=True)
                and thm1_a == sorted(thm1_a, reverse=True))

    passed = worst <= 1e-12 and monotone
    report(8, passed, f"400 oracle comparisons, worst relative error "
                      f"{worst:.2e}; monotonicity grids {monotone}")
    assert passed


# ---------------------------------------------------------------------------
# 9 & 10. empirical bound behaviour on the enumerable testbed
# ---------------------------------------------------------------------------

def test_criterion_09_bound_coverage():
    start = time.monotonic()
    testbed = B.make_testbed(n_bits=10, seed=0)
    g_class = B.make_scorer_class(testbed, g_size=64, seed=1)
    rng = np.random.default_rng(42)
    rep = B.empirical_gap_experiment(testbed, g_class, a=200, b_mix=0,
                                     trials=2000, delta=0.1, rng=rng, M=1.0)
    elapsed = time.monotonic() - start
    passed = rep.coverage_fraction >= 0.9 - 0.02 and elapsed < 300.0
    report(9, passed,
           f"gap <= bound in {rep.coverage_fraction:.3f} of 2000 trials "
           f"(threshold 0.88, bound {rep.bound_value:.4f}), {elapsed:.1f}s")
    assert passed


def test_criterion_10_augmented_surrogate_gap():
    testbed = B.make_testbed(n_bits=10, seed=0)
    g_class = B.make_scorer_class(testbed, g_size=64, seed=1)
    required_b = B.thm1_required_b(1.0, 64, 0.1, 200, 0.09, 0.0)
    wins = 0
    reps = 200
    for r in range(reps):
        rng = np.random.default_rng(1000 + r)
        rep = B.empirical_gap_experiment(testbed, g_class, a=200,
                                         b_mix=required_b, trials=40,
                                         delta=0.1, rng=rng, M=1.0)
        wins += rep.eps_star_hat <= rep.eps_p_hat
    passed = wins >= 0.9 * reps
    report(10, passed,
           f"augmented surrogate gap <= plain in {wins}/{reps} repetitions "
           f"with b = {required_b} (threshold 90%)")
    assert passed


# ---------------------------------------------------------------------------
# 11. checkpoint round-trip
# ---------------------------------------------------------------------------

def test_criterion_11_checkpoint_roundtrip(effect_task, teacher_full,
                                           tmp_path):
    teacher, config, _ = teacher_full
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(teacher, config, p1)
    loaded, loaded_config, _ = load_checkpoint(p1)
    save_checkpoint(loaded, loaded_config, p2)
    identical = p1.read_bytes() == p2.read_bytes()

    batch = make_batch(effect_task.dev[:32], effect_task.vocab,
                       effect_task.max_len, 2)
    before = forward_from_embeddings(
        teacher, embed_batch(teacher, batch.token_ids, batch.pad_mask),
        batch.pad_mask).data
    after = forward_from_embeddings(
        loaded, embed_batch(loaded, batch.token_ids, batch.pad_mask),
        batch.pad_mask).data
    drift = float(np.abs(before - after).max())
    passed = identical and drift < 1e-5
    report(11, passed, f"save-load-save byte-identical: {identical}; "
                       f"logit drift {drift:.2e} (< 1e-5)")
    assert passed


# ---------------------------------------------------------------------------
# 12. throughput ordering
# ---------------------------------------------------------------------------

def test_criterion_12_throughput_ordering():
    base = dict(hidden_dim=64, num_heads=4, ffn_dim=128, vocab_size=500,
                max_seq_len=32, num_classes=2)
    deep = init_random(ModelConfig(num_layers=12, **base), seed=0)
    shallow = init_random(ModelConfig(num_layers=3, **base), seed=0)
    slow = throughput_bench(deep, batch_size=16, warmup=2,
                            measured_batches=8)
    fast = throughput_bench(shallow, batch_size=16, warmup=2,
                            measured_batches=8)
    speedup = fast["samples_per_second"] / slow["samples_per_second"]
    counts = [parameter_count_formula(ModelConfig(num_layers=k, **base))
              for k in (1, 3, 6, 12)]
    monotone = counts == sorted(counts) and len(set(counts)) == 4
    passed = speedup >= 1.5 and monotone
    report(12, passed,
           f"3-layer student {speedup:.2f}x faster than 12-layer teacher at "
           f"batch 16 ({fast['samples_per_second']:.0f} vs "
           f"{slow['samples_per_second']:.0f} samples/s); parameter counts "
           f"monotone in depth: {monotone}")
    assert passed


# ---------------------------------------------------------------------------
# 13. sweep stability (reported, not gated)
# ---------------------------------------------------------------------------

def test_criterion_13_sweep_stability(effect_task, teacher_full):
    teacher, teacher_config, _ = teacher_full
    student_config = dataclasses.replace(teacher_config, num_layers=1)
    alphas = [0.1, 0.5, 1.0, 2.0, 4.0]
    base = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3, seed=0)
    grid = SweepGrid(alpha_sm_values=alphas, alpha_tmkd_values=alphas,
                     mixup_ratio_values=[1], base=base)
    results = sweep_grid(grid, student_config, effect_task, teacher)
    errors = [c for c in results if c["error"] is not None]
    accs = np.array([c["dev_accuracy"] for c in results
                     if c["dev_accuracy"] is not None])
    spread = float(accs.max() - accs.min()) if len(accs) else float("nan")
    within_five_points = spread <= 0.05
    passed = len(errors) == 0 and len(accs) == 25
    report(13, passed,
           f"5x5 alpha grid: accuracy spread {spread * 100:.2f} points "
           f"(max {accs.max():.4f}, min {accs.min():.4f}); spread <= 5 "
           f"points: {within_five_points} (reported, not gated)")
    assert passed
