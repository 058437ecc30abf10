"""Loss stack, optimizers, training loops, and seed aggregation."""

import dataclasses

import numpy as np
import pytest

from mixkd import autodiff as ad
from mixkd import distill, model
from mixkd.autodiff import Tensor, constant
from mixkd.distill import (Adam, LossWeights, SGD, TrainConfig, _train_loop,
                           distill_student, format_mean_std, loss_mle, loss_sm,
                           loss_tmkd, run_seeds, total_loss, train_teacher)
from mixkd.data import make_batch
from mixkd.mixup import MixupConfig, MixupPairs, materialize
from mixkd.model import (embed_batch, forward_from_embeddings, forward_tokens,
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
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


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
    """The sm_tmkd loss with the student embedded twice: once inside
    forward_tokens for L_MLE and once more for mixup."""
    l_mle = loss_mle(forward_tokens(student, batch), batch.labels_onehot)
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
# optimizers
# ---------------------------------------------------------------------------

def _grad_params(config, seed=0):
    params = init_random(config, seed)
    rng = np.random.default_rng(7)
    for t in params.arrays.values():
        t.grad = rng.normal(size=t.shape)
    return params


def test_sgd_step(tiny_config):
    params = _grad_params(tiny_config)
    before = params["tok_emb"].data.copy()
    grad = params["tok_emb"].grad.copy()
    SGD(lr=0.1).step(params)
    np.testing.assert_allclose(params["tok_emb"].data, before - 0.1 * grad)


def test_adam_first_step_matches_closed_form(tiny_config):
    params = _grad_params(tiny_config)
    before = params["tok_emb"].data.copy()
    g = params["tok_emb"].grad.copy()
    opt = Adam(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
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


@pytest.mark.parametrize("optimizer", [SGD(lr=1e307), Adam(lr=1e307)],
                         ids=["SGD", "Adam"])
def test_optimizer_checks_parameters(tiny_config, optimizer):
    params = _grad_params(tiny_config)
    params["layers.1.ffn.w2"].data[...] = 1.75e308
    params["layers.1.ffn.w2"].grad[...] = -2.0
    with np.errstate(over="ignore"), pytest.raises(
            ad.NonFiniteError,
            match=f"^parameter layers.1.ffn.w2 contains NaN or Inf after the "
                  f"{type(optimizer).__name__} step$"):
        optimizer.step(params)


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


def test_run_record_jsonl(tmp_path, small_task, small_model_config):
    config = TrainConfig(epochs=1, batch_size=64, seed=0)
    _, record = train_teacher(config, small_model_config, small_task,
                              max_steps=2)
    out = tmp_path / "run.jsonl"
    record.to_jsonl(out)
    import json
    lines = [json.loads(l) for l in out.read_text().splitlines()]
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
    # the student copies only layer 0, so only the frozen teacher overflows
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


def test_run_seeds_needs_two(small_task, small_model_config):
    teacher = init_random(small_model_config, seed=0)
    with pytest.raises(ValueError):
        run_seeds(TrainConfig(), small_model_config, small_task, teacher,
                  "ft", seeds=[0])


def test_format_mean_std():
    assert format_mean_std(0.9118, 0.0042) == "91.18±0.42"
