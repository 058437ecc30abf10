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
    after = _attributes()
    for owner, attrs in before.items():
        assert set(after[owner]) == set(attrs), owner
        changed = [k for k, v in attrs.items() if after[owner][k] is not v]
        assert not changed, (owner, changed)
    # the traced step reached the names the per-layer metrics are built from
    counts = {name: n for name, (_, _, n) in tracer.totals().items()}
    for name in ("model.embed", "model.forward", "autodiff.fwd.matmul",
                 "autodiff.vjp.matmul", "autodiff.fwd.gelu",
                 "kernels.gelu_forward", "kernels.gelu_backward",
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
    """A traced report still records ``bounds.experiment`` and one
    ``mixup.make_pairs`` span per trial, so ``mixup.make_pairs.specs``
    counts trials x b_mix pairs (199 per trial on bound_verify)."""
    testbed = bounds.make_testbed(n_bits=10, seed=0)
    g_class = bounds.make_scorer_class(testbed, g_size=64, seed=1)
    tracer = tracing.Tracer({})
    tracer.install()
    try:
        bounds.empirical_gap_experiment(testbed, g_class, a=200, b_mix=199,
                                        trials=7, delta=0.1,
                                        rng=np.random.default_rng(0))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["bounds.experiment"][2] == 1
    assert totals["mixup.make_pairs"][2] == 7
    assert tracer.counters["specs"] == 7 * 199
