"""Loss stack, optimizer, training loops, seed aggregation and sweeps."""

import dataclasses
import json
import re

import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd import distill, model
from mixkd.autodiff import Tensor, constant
from mixkd.distill import (Adam, LossWeights, SweepGrid, TrainConfig,
                           _train_loop, distill_student, format_mean_std,
                           loss_mle, loss_sm, loss_tmkd, run_seeds, sweep_grid,
                           total_loss, train_teacher)
from mixkd.data import Vocab, make_batch, tokenize
from mixkd.mixup import MixupConfig, MixupPairs, make_pairs, materialize
from mixkd.model import (embed_batch, forward_from_embeddings,
                         init_random, init_student_from_teacher)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha_sm=-0.1)
    with pytest.raises(ValueError):
        LossWeights(distance_metric="cosine")
    with pytest.raises(ValueError):
        LossWeights(temperature=0.0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="eval_every must be an int >= 0"):
        TrainConfig(eval_every=-1)


def test_loss_mle_rejects_soft_labels(rng):
    logits = constant(rng.normal(size=(2, 2)))
    with pytest.raises(ValueError):
        loss_mle(logits, np.array([[0.7, 0.3], [0.5, 0.5]]))


def test_loss_mle_matches_manual(rng):
    z = rng.normal(size=(3, 2))
    onehot = np.eye(2)[[1, 0, 1]]
    loss = loss_mle(constant(z), onehot).item()
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    manual = -np.log(p[np.arange(3), [1, 0, 1]]).mean()
    assert loss == pytest.approx(manual, rel=1e-12)


def test_loss_sm_soft_targets(rng):
    z = rng.normal(size=(2, 2))
    soft = np.array([[0.25, 0.75], [0.6, 0.4]])
    loss = loss_sm(constant(z), soft).item()
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    assert loss == pytest.approx(-(soft * np.log(p)).sum() / 2, rel=1e-12)


def test_loss_tmkd_mse_value(rng):
    t = constant(rng.normal(size=(3, 2)))
    s = constant(rng.normal(size=(3, 2)))
    loss = loss_tmkd(t, s, LossWeights()).item()
    assert loss == pytest.approx(((t.data - s.data) ** 2).mean(), rel=1e-12)


def test_loss_tmkd_temperature_ce(rng):
    weights = LossWeights(distance_metric="temperature_ce", temperature=2.0)
    z_t = rng.normal(size=(2, 2))
    z_s = rng.normal(size=(2, 2))
    loss = loss_tmkd(constant(z_t), constant(z_s), weights).item()

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    pt, ps = softmax(z_t / 2.0), softmax(z_s / 2.0)
    assert loss == pytest.approx(4.0 * -(pt * np.log(ps)).sum() / 2, rel=1e-10)


def test_loss_tmkd_detaches_teacher(rng):
    t = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    s = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    ad.backward(loss_tmkd(t, s, LossWeights()))
    assert t.grad is None
    assert s.grad is not None


@pytest.fixture
def tiny_setup(small_task, small_model_config):
    teacher = init_random(small_model_config, seed=1)
    student_config = dataclasses.replace(small_model_config, num_layers=1)
    batch = make_batch(small_task.train[:6], small_task.vocab,
                       small_task.max_len, 2)
    return teacher, student_config, batch


def test_total_loss_components_recombine(tiny_setup, rng):
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    teacher.freeze()
    pairs = MixupPairs(np.arange(6), (np.arange(6) + 1) % 6, np.full(6, 0.4))
    weights = LossWeights(alpha_sm=0.7, alpha_tmkd=1.3)
    loss, comp = total_loss(batch, pairs, teacher, student, weights,
                            variant="sm_tmkd")
    recombined = comp["mle"] + 0.7 * comp["sm"] + 1.3 * comp["tmkd"]
    assert comp["total"] == pytest.approx(recombined, abs=1e-12)
    assert loss.item() == pytest.approx(comp["total"])


def test_total_loss_ft_ignores_mixup(tiny_setup):
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    pairs = MixupPairs([0], [1], [0.5])
    _, comp = total_loss(batch, pairs, None, student, LossWeights(),
                         variant="ft")
    assert comp["sm"] == 0.0 and comp["tmkd"] == 0.0


def test_total_loss_tmkd_skips_sm_term(tiny_setup):
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    teacher.freeze()
    pairs = MixupPairs(np.arange(6), 5 - np.arange(6), np.full(6, 0.3))
    _, comp = total_loss(batch, pairs, teacher, student, LossWeights(),
                         variant="tmkd")
    assert comp["sm"] == 0.0 and comp["tmkd"] > 0.0


def test_total_loss_requires_teacher(tiny_setup):
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    with pytest.raises(ValueError):
        total_loss(batch, MixupPairs([0], [1], [0.5]), None, student,
                   LossWeights(), variant="tmkd")


@pytest.mark.parametrize("variant", ["tmkd", "sm_tmkd"])
@pytest.mark.parametrize("pairs", ["list", "ratio_0", "pairs"])
def test_total_loss_requires_teacher_before_any_forward(variant, pairs,
                                                       tiny_setup,
                                                       monkeypatch):
    """A distilling variant without a teacher fails before the student is
    embedded, also when the batch has no pairs to query it on."""
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    given = {"list": [],
             "ratio_0": make_pairs(6, MixupConfig(mixup_ratio=0),
                                   np.random.default_rng(0)),
             "pairs": MixupPairs([0], [1], [0.5])}[pairs]
    embedded = []
    monkeypatch.setattr(distill, "embed_batch",
                        lambda *args: embedded.append(args))
    with pytest.raises(ValueError,
                       match=f"^variant {variant} requires a teacher$"):
        total_loss(batch, given, None, student, LossWeights(),
                   variant=variant)
    assert embedded == []


def test_total_loss_unknown_variant(tiny_setup):
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    with pytest.raises(ValueError):
        total_loss(batch, [], None, student, LossWeights(), variant="plain")


def test_teacher_gets_no_gradients(tiny_setup):
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    frozen = teacher.copy().freeze()
    pairs = MixupPairs(np.arange(6), (np.arange(6) + 2) % 6, np.full(6, 0.6))
    loss, _ = total_loss(batch, pairs, frozen, student, LossWeights(),
                         variant="sm_tmkd")
    ad.backward(loss)
    assert all(t.grad is None for t in frozen.arrays.values())
    assert np.abs(student["tok_emb"].grad).sum() > 0


def test_teacher_forward_builds_no_graph(tiny_setup, monkeypatch):
    """Even an unfrozen teacher is queried under no_grad."""
    teacher, student_config, batch = tiny_setup
    student = init_student_from_teacher(teacher, student_config)
    outs = {}

    def spy(params, *args, **kwargs):
        out = forward_from_embeddings(params, *args, **kwargs)
        outs[id(params)] = out
        return out
    monkeypatch.setattr(distill, "forward_from_embeddings", spy)
    pairs = MixupPairs(np.arange(6), (np.arange(6) + 2) % 6, np.full(6, 0.6))
    loss, _ = total_loss(batch, pairs, teacher, student, LossWeights(),
                         variant="sm_tmkd")
    assert outs[id(teacher)]._inputs == () and outs[id(teacher)]._vjp is None
    assert outs[id(student)]._inputs  # the student's mixed forward is taped
    ad.backward(loss)
    assert all(t.grad is None for t in teacher.arrays.values())


def _two_embedding_sm_tmkd(batch, pairs, teacher, student, weights):
    """The sm_tmkd loss with the student embedded twice: once for L_MLE
    and once more for mixup."""
    l_mle = loss_mle(forward_from_embeddings(
        student, embed_batch(student, batch.token_ids, batch.pad_mask),
        batch.pad_mask), batch.labels_onehot)
    emb = embed_batch(student, batch.token_ids, batch.pad_mask)
    mixed_emb, mixed_mask, mixed_labels = materialize(
        pairs, emb, batch.pad_mask, batch.labels_onehot)
    s_mixed = forward_from_embeddings(student, mixed_emb, mixed_mask)
    l_sm = loss_sm(s_mixed, mixed_labels)
    with ad.no_grad():
        query_emb, _, _ = materialize(
            pairs, embed_batch(teacher, batch.token_ids, batch.pad_mask),
            batch.pad_mask, batch.labels_onehot)
        t_mixed = forward_from_embeddings(teacher, query_emb, mixed_mask)
    l_tmkd = loss_tmkd(t_mixed, s_mixed, weights)
    total = ad.add(ad.add(l_mle, ad.scale(l_sm, weights.alpha_sm)),
                   ad.scale(l_tmkd, weights.alpha_tmkd))
    return total, {"mle": l_mle.item(), "sm": l_sm.item(),
                   "tmkd": l_tmkd.item(), "total": total.item()}


def test_student_embedded_once_per_step(tiny_setup, monkeypatch):
    teacher, student_config, batch = tiny_setup
    teacher.freeze()
    pairs = MixupPairs(np.arange(6), (np.arange(6) + 1) % 6, np.full(6, 0.4))
    weights = LossWeights(alpha_sm=0.7, alpha_tmkd=1.3)
    calls = []

    def spy(params, *args):
        calls.append(id(params))
        return embed_batch(params, *args)
    # forward_tokens would reach model.embed_batch
    for module in (distill, model):
        monkeypatch.setattr(module, "embed_batch", spy)
    student = init_student_from_teacher(teacher, student_config)
    loss, comp = total_loss(batch, pairs, teacher, student, weights,
                            variant="sm_tmkd")
    assert sorted(calls) == sorted([id(student), id(teacher)])

    reference = init_student_from_teacher(teacher, student_config)
    ref_loss, ref_comp = _two_embedding_sm_tmkd(batch, pairs, teacher,
                                                reference, weights)
    assert comp == ref_comp  # same values, bit for bit
    ad.backward(loss)
    ad.backward(ref_loss)
    # the shared embedding sums its two gradient paths in another order
    np.testing.assert_allclose(student["tok_emb"].grad,
                               reference["tok_emb"].grad, rtol=1e-12)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _grad_params(config, seed=0):
    params = init_random(config, seed)
    rng = np.random.default_rng(7)
    for t in params.arrays.values():
        t.grad = rng.normal(size=t.shape)
    return params


def test_adam_first_step_matches_closed_form(tiny_config):
    params = _grad_params(tiny_config)
    before = params["tok_emb"].data.copy()
    g = params["tok_emb"].grad.copy()
    opt = Adam(lr=1e-3)
    opt.step(params)
    # after one step the bias-corrected moments equal g and g^2
    expected = before - 1e-3 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params["tok_emb"].data, expected, rtol=1e-10)


def test_adam_allocates_its_state_once(tiny_config, monkeypatch):
    params = _grad_params(tiny_config)
    opt = Adam(lr=1e-3)
    opt.step(params)
    assert set(opt.m) == set(opt.v) == set(params.names)
    state = {name: (opt.m[name], opt.v[name]) for name in params.names}
    allocated = []
    real = np.zeros_like
    monkeypatch.setattr(np, "zeros_like",
                        lambda *a, **k: allocated.append(a) or real(*a, **k))
    opt.step(params)
    assert allocated == []
    assert all(opt.m[name] is m and opt.v[name] is v
               for name, (m, v) in state.items())


def test_adam_steps_bitwise_equal_the_allocating_formula(tiny_config):
    """Three in-place steps give the bits of the textbook expression, one
    numpy temporary per operation."""
    params = _grad_params(tiny_config)
    data = {n: params[n].data.copy() for n in params.names}
    m = {n: np.zeros_like(d) for n, d in data.items()}
    v = {n: np.zeros_like(d) for n, d in data.items()}
    opt = Adam(lr=3e-3)
    for t in range(1, 4):
        opt.step(params)
        bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for n in params.names:
            g = params[n].grad
            m[n] *= 0.9
            m[n] += (1.0 - 0.9) * g
            v[n] *= 0.999
            v[n] += (1.0 - 0.999) * g * g
            data[n] -= 3e-3 * (m[n] / bc1) / (np.sqrt(v[n] / bc2) + 1e-8)
            assert params[n].data.tobytes() == data[n].tobytes()


def test_optimizer_checks_parameters(tiny_config):
    params = _grad_params(tiny_config)
    params["layers.1.ffn.w2"].data[...] = 1.75e308
    params["layers.1.ffn.w2"].grad[...] = -2.0
    with np.errstate(over="ignore"), pytest.raises(
            ad.NonFiniteError,
            match="^parameter layers.1.ffn.w2 contains NaN or Inf after the "
                  "Adam step$"):
        Adam(lr=1e307).step(params)


def test_adam_skips_missing_grads(tiny_config):
    params = init_random(tiny_config, seed=0)
    before = params.checksum()
    Adam(lr=1.0).step(params)
    assert params.checksum() == before


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def test_train_teacher_smoke(small_task, small_model_config):
    config = TrainConfig(epochs=1, batch_size=32, seed=0)
    params, record = train_teacher(config, small_model_config, small_task,
                                   max_steps=3)
    assert params is not None
    assert len(record.steps) == 3
    assert 0.0 <= record.final_metrics["dev_accuracy"] <= 1.0
    assert record.wall_clock > 0


def test_run_record_jsonl(small_task, small_model_config):
    config = TrainConfig(epochs=1, batch_size=64, seed=0)
    _, record = train_teacher(config, small_model_config, small_task,
                              max_steps=2)
    import json
    lines = [json.loads(l) for l in record.jsonl().splitlines()]
    assert lines[0]["type"] == "step"
    assert lines[-1]["type"] == "summary"


def test_ft_equivalence_short(small_task, small_model_config):
    """Distillation with all augmentation off is bitwise plain training."""
    config = TrainConfig(epochs=1, batch_size=32, seed=4,
                         mixup=MixupConfig(mixup_ratio=0),
                         loss=LossWeights(alpha_sm=0.0, alpha_tmkd=0.0))
    teacher = init_random(small_model_config, seed=2)
    student_config = dataclasses.replace(small_model_config, num_layers=1)

    plain = init_student_from_teacher(teacher, student_config)
    plain_best, plain_rec = _train_loop(plain, config, small_task,
                                        teacher=None, variant="ft",
                                        max_steps=4)
    distilled, rec = distill_student(config, student_config, small_task,
                                     teacher, variant="ft", max_steps=4)
    assert plain_best.checksum() == distilled.checksum()
    for a, b in zip(plain_rec.steps, rec.steps):
        assert a["loss_total"] == b["loss_total"]


def test_max_steps_evaluates_the_last_weights(small_task, small_model_config):
    """A run stopped inside an epoch evaluates its final step, so the best
    checkpoint can come from the steps after the last epoch end."""
    config = TrainConfig(epochs=2, batch_size=40, seed=0)  # 3 steps an epoch
    params = init_random(small_model_config, seed=0)
    _, record = _train_loop(params, config, small_task, teacher=None,
                            variant="ft", max_steps=5)
    assert [e["step"] for e in record.evals] == [3, 5]


@pytest.mark.parametrize("every, steps", [(3, [3, 6]), (2, [2, 3, 4, 6])],
                         ids=["every_3", "every_2"])
def test_train_loop_evaluates_each_step_once(small_task, small_model_config,
                                             every, steps):
    """An eval_every that divides an epoch's last step evaluates those
    weights once, not again at the epoch end."""
    config = TrainConfig(epochs=2, batch_size=40, seed=0,  # 3 steps an epoch
                         eval_every=every)
    params = init_random(small_model_config, seed=0)
    _, record = _train_loop(params, config, small_task, teacher=None,
                            variant="ft")
    assert [e["step"] for e in record.evals] == steps
    accs = [e["accuracy"] for e in record.evals]
    assert record.final_metrics["dev_accuracy"] == max(accs)
    assert record.best_step == steps[accs.index(max(accs))]


def test_train_loop_tokenizes_the_dev_split_once(small_task,
                                                small_model_config,
                                                monkeypatch):
    """Evaluating after every step re-batches the dev split but tokenizes
    no text again: the vocabulary memoizes each encoding, so every train
    and dev text is tokenized once over two epochs and six evals."""
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr("mixkd.data.tokenize", counting)
    # a fresh vocabulary: the session's task has encoded its texts already
    task = dataclasses.replace(small_task,
                               vocab=Vocab(small_task.vocab.token_to_id))
    config = TrainConfig(epochs=2, batch_size=40, seed=0, eval_every=1)
    params = init_random(small_model_config, seed=0)
    _, record = _train_loop(params, config, task, teacher=None, variant="ft")
    assert len(record.evals) == 6
    texts = {ex.text_a for ex in task.train + task.dev}
    assert sorted(calls) == sorted(texts)


def test_backward_after_evaluate_in_train_loop(small_task, small_model_config):
    """evaluate runs under no_grad; the steps after it must still train."""
    base = TrainConfig(epochs=1, batch_size=32, seed=0)
    runs = []
    for every in (0, 1):
        params = init_random(small_model_config, seed=0)
        config = dataclasses.replace(base, eval_every=every)
        _, record = _train_loop(params, config, small_task, teacher=None,
                                variant="ft", max_steps=3)
        runs.append((params.checksum(), [s["loss_total"] for s in record.steps],
                     len(record.evals)))
    (plain_sum, plain_losses, _), (eval_sum, eval_losses, n_evals) = runs
    assert n_evals == 3
    assert eval_losses == plain_losses
    assert eval_sum == plain_sum
    assert plain_sum != init_random(small_model_config, seed=0).checksum()
    assert ad._grad_enabled.get()


def _diverging_loop(small_task, small_model_config, config, plant=None):
    """A 4-layer ``ft`` run; ``plant`` maps parameter names to a value
    every entry is set to, behind the constructor's check."""
    params = init_random(dataclasses.replace(small_model_config, num_layers=4),
                         seed=0)
    for name, value in (plant or {}).items():
        params[name].data[...] = value
    with np.errstate(all="ignore"):
        _train_loop(params, config, small_task, teacher=None, variant="ft",
                    max_steps=3)


def test_train_loop_names_first_non_finite_op(small_task, small_model_config):
    config = TrainConfig(epochs=1, batch_size=32, seed=0)
    with pytest.raises(distill.TrainingDiverged) as info:
        _diverging_loop(small_task, small_model_config, config,
                        plant={"layers.2.ffn.w1": np.nan})
    assert str(info.value).startswith(
        "first non-finite: matmul in layers.2.ffn at step 0 ")
    assert not ad._anomaly.get()


def test_train_loop_names_the_teacher_op(small_task, small_model_config):
    # the student copies only layer 0, so only the teacher overflows
    teacher = init_random(small_model_config, seed=0)
    teacher["layers.1.ffn.w1"].data[...] = 1e308
    config = TrainConfig(epochs=1, batch_size=32, seed=0)
    with np.errstate(all="ignore"), pytest.raises(
            distill.TrainingDiverged) as info:
        distill_student(config,
                        dataclasses.replace(small_model_config, num_layers=1),
                        small_task, teacher, variant="sm_tmkd", max_steps=3)
    assert str(info.value).startswith(
        "first non-finite: matmul in teacher/layers.1.ffn at step 0 ")
    assert ad._scope.get() == "top level"


def test_train_loop_names_non_finite_parameter(small_task, small_model_config):
    # Adam's first update is about -lr * sign(g): the forward is finite,
    # and 1e308 + 1e308 overflows in the head bias of a class with g < 0
    config = TrainConfig(epochs=1, batch_size=32, seed=0, learning_rate=1e308)
    with pytest.raises(distill.TrainingDiverged,
                       match="^parameter head.bias contains NaN or Inf after "
                             "the Adam step at step 0 "):
        _diverging_loop(small_task, small_model_config, config,
                        plant={"head.bias": 1e308})


def test_train_loop_rerun_without_culprit_raises_original(
        small_task, small_model_config, monkeypatch):
    """A failure the anomaly re-run does not reproduce is still fatal."""
    real, calls = ad.backward, []

    def fails_once(loss):
        calls.append(ad._anomaly.get())
        if len(calls) == 1:
            raise ad.NonFiniteError("a leaf gradient contains NaN or Inf")
        real(loss)
    monkeypatch.setattr(ad, "backward", fails_once)
    config = TrainConfig(epochs=1, batch_size=32, seed=0)
    with pytest.raises(distill.TrainingDiverged,
                       match="^a leaf gradient contains NaN or Inf at step 0 "):
        _diverging_loop(small_task, small_model_config, config)
    assert calls == [False, True]


def test_teacher_unchanged_by_distillation(small_task, small_model_config):
    teacher = init_random(small_model_config, seed=3)
    before = teacher.checksum()
    config = TrainConfig(epochs=1, batch_size=32, seed=0)
    student_config = dataclasses.replace(small_model_config, num_layers=1)
    distill_student(config, student_config, small_task, teacher,
                    variant="sm_tmkd", max_steps=3)
    assert teacher.checksum() == before


def test_distill_student_queries_the_callers_teacher(small_task,
                                                     small_model_config,
                                                     monkeypatch):
    """The teacher object itself reaches ``total_loss`` (``None`` for
    ``ft``): no per-run copy, and its parameters keep ``requires_grad``
    and get no gradient."""
    teacher = init_random(small_model_config, seed=3)
    seen = []

    def spy(batch, pairs, teacher, *args, **kwargs):
        seen.append(teacher)
        return total_loss(batch, pairs, teacher, *args, **kwargs)
    monkeypatch.setattr(distill, "total_loss", spy)
    config = TrainConfig(epochs=1, batch_size=32, seed=0)
    student_config = dataclasses.replace(small_model_config, num_layers=1)
    for variant, expected in (("sm_tmkd", teacher), ("tmkd", teacher),
                              ("ft", None)):
        seen.clear()
        distill_student(config, student_config, small_task, teacher,
                        variant=variant, max_steps=2)
        assert len(seen) == 2 and all(t is expected for t in seen)
    assert all(t.requires_grad and t.grad is None
               for t in teacher.arrays.values())


def test_distill_rejects_unknown_variant(small_task, small_model_config):
    teacher = init_random(small_model_config, seed=0)
    with pytest.raises(ValueError):
        distill_student(TrainConfig(), small_model_config, small_task,
                        teacher, variant="bogus")


def test_run_seeds_aggregation(small_task, small_model_config):
    teacher = init_random(small_model_config, seed=0)
    student_config = dataclasses.replace(small_model_config, num_layers=1)
    config = TrainConfig(epochs=1, batch_size=64, seed=0)
    summary = run_seeds(config, student_config, small_task, teacher,
                        "ft", seeds=[0, 1])
    assert summary["seeds"] == [0, 1]
    accs = np.array(summary["per_seed"])
    assert summary["mean"] == pytest.approx(accs.mean())
    assert summary["std"] == pytest.approx(accs.std())
    assert "±" in summary["formatted"]


def test_run_seeds_names_the_diverged_seed(small_task, small_model_config):
    teacher = init_random(small_model_config, seed=0)
    student_config = dataclasses.replace(small_model_config, num_layers=1)
    config = TrainConfig(epochs=1, batch_size=64, learning_rate=1e300)
    with pytest.raises(distill.TrainingDiverged, match="^seed 3: "):
        run_seeds(config, student_config, small_task, teacher, "ft",
                  seeds=[3, 4])


def test_run_seeds_needs_two(small_task, small_model_config):
    teacher = init_random(small_model_config, seed=0)
    with pytest.raises(ValueError):
        run_seeds(TrainConfig(), small_model_config, small_task, teacher,
                  "ft", seeds=[0])


def test_sweep_grid_runs_and_writes(small_task, small_model_config, tmp_path):
    teacher = init_random(small_model_config, seed=0)
    student_config = dataclasses.replace(small_model_config, num_layers=1)
    base = TrainConfig(epochs=1, batch_size=64, seed=0)
    grid = SweepGrid(alpha_sm_values=[0.5, 1.0], alpha_tmkd_values=[1.0],
                     mixup_ratio_values=[1], base=base)
    results = sweep_grid(grid, student_config, small_task, teacher,
                         out_dir=tmp_path)
    assert len(results) == 2
    assert all(c["error"] is None for c in results)
    assert all(0.0 <= c["dev_accuracy"] <= 1.0 for c in results)
    table = (tmp_path / "grid.tsv").read_text().splitlines()
    assert table[0].startswith("alpha_sm\t")
    assert len(table) == 3
    cells = json.loads((tmp_path / "grid.json").read_text())
    assert cells[0]["alpha_sm"] == 0.5


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid([], [1.0], [1], TrainConfig())


def _fake_distill(trained, fails, error):
    """A distill_student stand-in that logs each config it trains, raises
    ``error`` on those that ``fails`` picks, and reports the n-th run's
    accuracy as n / 10."""
    def fake(config, student_config, dataset, teacher, variant="sm_tmkd"):
        trained.append(config)
        if fails(config):
            raise error
        return None, distill.RunRecord(
            seed=config.seed, variant=variant,
            final_metrics={"dev_accuracy": len(trained) / 10})
    return fake


@pytest.mark.parametrize("error, raised, message", [
    (distill.TrainingDiverged("loss contains NaN or Inf"),
     distill.TrainingDiverged, "seed 2: loss contains NaN or Inf"),
    (ValueError("bad batch"), RuntimeError, "seed 2 failed: bad batch"),
], ids=["diverged", "other"])
def test_run_seeds_trains_no_seed_after_a_failure(error, raised, message,
                                                  monkeypatch):
    trained = []
    monkeypatch.setattr(distill, "distill_student", _fake_distill(
        trained, lambda config: config.seed == 2, error))
    with pytest.raises(raised, match=f"^{message}$") as info:
        run_seeds(TrainConfig(), None, None, None, "ft", seeds=[0, 1, 2, 3])
    assert info.value.__cause__ is error
    assert [config.seed for config in trained] == [0, 1, 2]


def test_run_seeds_rejects_a_repeated_seed(monkeypatch):
    """A seed given twice would train twice and count twice in the mean
    and std; it is rejected before any seed trains."""
    trained = []
    monkeypatch.setattr(distill, "distill_student", _fake_distill(
        trained, lambda config: False, None))
    with pytest.raises(ValueError, match="seed 1 is repeated"):
        run_seeds(TrainConfig(), None, None, None, "ft", seeds=[1, 0, 1])
    assert trained == []


def test_sweep_grid_records_a_failed_cell_and_goes_on(monkeypatch):
    trained = []
    monkeypatch.setattr(distill, "distill_student", _fake_distill(
        trained, lambda config: config.loss.alpha_sm == 1.0,
        ValueError("bad cell")))
    grid = SweepGrid(alpha_sm_values=[0.5, 1.0], alpha_tmkd_values=[2.0],
                     mixup_ratio_values=[1, 3], base=TrainConfig())
    results = sweep_grid(grid, None, None, None)
    assert [(c.mixup.mixup_ratio, c.loss.alpha_sm, c.loss.alpha_tmkd)
            for c in trained] == [(1, 0.5, 2.0), (1, 1.0, 2.0),
                                  (3, 0.5, 2.0), (3, 1.0, 2.0)]
    assert [(c["dev_accuracy"], c["error"]) for c in results] == [
        (0.1, None), (None, "bad cell"), (0.3, None), (None, "bad cell")]


def test_format_mean_std():
    assert format_mean_std(0.9118, 0.0042) == "91.18±0.42"


@pytest.mark.parametrize("call, error, message", [
    (lambda: loss_tmkd(constant(np.zeros((2, 3))), constant(np.zeros((2, 4))),
                       LossWeights()),
     ad.ShapeError, "loss_tmkd: (2, 3) vs (2, 4)"),
    (lambda: distill.RunRecord(seed=0, variant="ft").log_step(
        3, total=1.0, mle=0.5, sm=0.25, tmkd=0.25, alpha_sm=1.0,
        alpha_tmkd=1.0 + 1e-6),
     AssertionError, "loss components do not recombine at step 3: 1.0 vs "
     "1.00000025"),
], ids=["tmkd_shapes", "log_step_recombination"])
def test_loss_parts_are_checked(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
