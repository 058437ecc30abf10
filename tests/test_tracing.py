"""The benchmark's tracer (perfbench/tracing.py) wraps mixkd's public
functions from outside.  These tests keep a refactor of mixkd from
silently breaking ``perfbench/run.py --trace 1``."""

import sys
from pathlib import Path

import numpy as np

# every module the tracer patches, imported before the snapshot
from mixkd import (autodiff, bounds, data, distill, evaluation,  # noqa: F401
                   kernels, mixup, model)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

PATCHED_CLASSES = (autodiff.Tensor, autodiff.Tape, distill.Adam,
                   bounds.EnumerableTestbed, bounds.ThresholdScorerClass)


def _attributes():
    """Every attribute of every mixkd module and patched class."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "mixkd" or name.startswith("mixkd.")]
    return {owner: dict(vars(owner)) for owner in owners + list(PATCHED_CLASSES)}


def _assert_restored(before):
    after = _attributes()
    for owner, attrs in before.items():
        assert set(after[owner]) == set(attrs), owner
        changed = [k for k, v in attrs.items() if after[owner][k] is not v]
        assert not changed, (owner, changed)


def test_tracer_uninstall_restores_every_attribute(tiny_params, tiny_config):
    before = _attributes()
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        assert autodiff.matmul is not before[autodiff]["matmul"]
        ids = np.arange(12).reshape(2, 6) % tiny_config.vocab_size
        mask = np.ones((2, 6), dtype=bool)
        logits = model.forward_from_embeddings(
            tiny_params, model.embed_batch(tiny_params, ids, mask), mask)
        autodiff.backward(autodiff.tsum(logits))
        tiny_params.zero_grads()
    finally:
        tracer.uninstall()
    _assert_restored(before)
    # the traced step reached the names the per-layer metrics are built from
    counts = {name: n for name, (_, _, n) in tracer.totals().items()}
    for name in ("model.embed", "model.forward", "autodiff.fwd.matmul",
                 "autodiff.vjp.matmul", "kernels.layernorm_rows",
                 "kernels.softmax_rows", "kernels.gelu_forward",
                 "kernels.gelu_backward",
                 "autodiff.backward", "autodiff.check_finite",
                 "autodiff.tensor_init"):
        assert counts.get(name, 0) > 0, name


def test_traced_make_pairs_counts_its_pairs():
    """perfbench's ``mixup.make_pairs.specs`` metric is ``len`` of what
    make_pairs returns, wherever a mixkd module calls it."""
    rng = np.random.default_rng(0)
    testbed = bounds.make_testbed(n_bits=4, seed=1)
    originals = testbed.sample(5, rng)
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        pairs = mixup.make_pairs(8, mixup.MixupConfig(mixup_ratio=3), rng)
        bounds._mix_points(testbed, originals, 12, rng)
    finally:
        tracer.uninstall()
    assert len(pairs) == 24
    assert tracer.counters["specs"] == 24 + 12
    assert tracer.totals()["mixup.make_pairs"][2] == 2


def test_traced_gap_experiment_keeps_its_spans():
    """A traced report records one ``bounds.experiment`` span, equals the
    untraced report, and the tracer's uninstall restores every attribute.
    The experiment draws its pairs with ``mixup.draw_round``, not
    ``make_pairs``, so ``mixup.make_pairs`` records no span on it."""
    testbed = bounds.make_testbed(n_bits=10, seed=0)
    g_class = bounds.make_scorer_class(testbed, g_size=64, seed=1)

    def report():
        rep = bounds.empirical_gap_experiment(testbed, g_class, a=200,
                                              b_mix=199, trials=7, delta=0.1,
                                              rng=np.random.default_rng(0))
        return rep.to_dict(), rep.gaps_augmented, rep.gaps_plain

    untraced = report()
    before = _attributes()
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        traced = report()
    finally:
        tracer.uninstall()
    _assert_restored(before)
    totals = tracer.totals()
    assert totals["bounds.experiment"][2] == 1
    assert totals["mixup.make_pairs"][2] == 0
    assert traced == untraced
