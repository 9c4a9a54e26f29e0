import math

import numpy as np
import pytest

from eitnet.metrics import make_split
from eitnet.pipeline import PipelineConfig, PipelineModel, evaluate_pipeline
from eitnet.rng import Rng
from eitnet.synthetic import DatasetConfig, generate_synthetic_dataset
from eitnet.training import (
    Adam,
    EarlyStopper,
    FeatureBatch,
    Hyperparams,
    TrainingDiverged,
    _extract_batch,
    gradient_check,
    heads_loss_and_grads,
    train_toy,
)


class TestSchedule:
    def test_decade_steps(self):
        hp = Hyperparams()
        for epoch in range(1, 51):
            expected = 0.001 * 0.1 ** ((epoch - 1) // 10)
            assert hp.learning_rate(epoch) == expected

    def test_first_two_decades_quoted_values(self):
        hp = Hyperparams()
        assert all(hp.learning_rate(e) == 0.001 for e in range(1, 11))
        assert all(hp.learning_rate(e) == pytest.approx(0.0001) for e in range(11, 21))


class TestEarlyStopper:
    def test_fires_after_exactly_five_bad_epochs(self):
        stopper = EarlyStopper(patience=5)
        assert not stopper.update(1.0)
        fired = [stopper.update(1.0) for _ in range(5)]
        assert fired == [False, False, False, False, True]

    def test_improvement_resets_budget(self):
        stopper = EarlyStopper(patience=5)
        stopper.update(1.0)
        for _ in range(4):
            assert not stopper.update(1.0)
        assert not stopper.update(0.5)  # improvement
        for _ in range(4):
            assert not stopper.update(0.5)
        assert stopper.update(0.5)

    def test_equal_loss_is_not_improvement(self):
        stopper = EarlyStopper(patience=2)
        stopper.update(1.0)
        assert not stopper.update(1.0)
        assert stopper.update(1.0)


class TestAdam:
    def test_minimizes_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        opt = Adam(params)
        for _ in range(2000):
            opt.step({"x": 2.0 * params["x"]}, lr=0.01)
        assert np.abs(params["x"]).max() < 1e-3


def random_batch(rng, b=6, d_cls=5, d_pose=4, classes=4, out=9):
    return FeatureBatch(
        cls_feats=rng.normals(b * d_cls).reshape(b, d_cls),
        labels=np.array([rng.below(classes) for _ in range(b)]),
        pose_feats=rng.normals(b * d_pose).reshape(b, d_pose),
        pose_targets=rng.normals(b * out).reshape(b, out),
    )


def head_params(rng, d_cls=5, d_pose=4, classes=4, out=9):
    return {
        "cls_weight": rng.normals(d_cls * classes).reshape(d_cls, classes) * 0.3,
        "cls_bias": rng.normals(classes) * 0.1,
        "pose_weight": rng.normals(d_pose * out).reshape(d_pose, out) * 0.3,
        "pose_bias": rng.normals(out) * 0.1,
    }


class TestGradientCheck:
    def test_quadratic_at_origin(self):
        err = gradient_check(
            lambda x: float((x**2).sum()), lambda x: 2.0 * x, np.zeros(4), h=1e-5
        )
        assert err <= 1e-10

    def test_every_head_layer_agrees_with_finite_differences(self):
        rng = Rng(200)
        batch = random_batch(rng)
        params = head_params(rng)

        for name in ("cls_weight", "cls_bias", "pose_weight", "pose_bias"):

            def loss_at(value):
                trial = {k: v.copy() for k, v in params.items()}
                trial[name] = value
                ce, mse, _ = heads_loss_and_grads(trial, batch)
                return ce + mse

            def grad_at(value):
                trial = {k: v.copy() for k, v in params.items()}
                trial[name] = value
                return heads_loss_and_grads(trial, batch)[2][name]

            err = gradient_check(loss_at, grad_at, params[name], h=1e-5)
            assert err <= 1e-4, f"{name}: {err}"

    def test_softmax_head_identity(self):
        """Analytic classification gradient equals (probabilities - one-hot) x features."""
        rng = Rng(201)
        batch = random_batch(rng, b=1)
        params = head_params(rng)
        ce, _, grads = heads_loss_and_grads(params, batch)
        logits = batch.cls_feats @ params["cls_weight"] + params["cls_bias"]
        shifted = np.exp(logits - logits.max())
        probs = shifted / shifted.sum()
        delta = probs.copy()
        delta[0, batch.labels[0]] -= 1.0
        np.testing.assert_allclose(grads["cls_weight"], np.outer(batch.cls_feats[0], delta[0]), atol=1e-12)
        np.testing.assert_allclose(grads["cls_bias"], delta[0], atol=1e-12)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="positive"):
            gradient_check(lambda x: 0.0, lambda x: x, np.zeros(2), h=0.0)


@pytest.fixture(scope="module")
def tiny_run():
    """A short deterministic training run shared by the integration tests."""
    samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=11)
    split = make_split("subject", 11)
    train = [s for s in samples if s.subject_id in split.train_ids]
    test = [s for s in samples if s.subject_id in split.test_ids]
    model = PipelineModel(PipelineConfig(), seed=11)
    hp = Hyperparams(seed=11, epochs=6)
    result = train_toy(model, train, hp)
    return model, hp, result, test


@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train"])
def test_batch_targets_are_the_indexed_samples_pose_rows_bitwise(train_mode):
    samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)
    indices = [5, 0, 199, 17, 5]
    model = PipelineModel(PipelineConfig(), seed=7)
    batch = _extract_batch(model, samples, indices, 1, Hyperparams(seed=7), train_mode)
    want = [np.concatenate([p.joints.ravel() for p in samples[i].poses]) / 1000.0 for i in indices]
    assert batch.pose_targets.shape == (5, 8 * 5 * 3)
    assert batch.pose_targets.tobytes() == np.stack(want).tobytes()
    assert batch.labels.tolist() == [samples[i].label_index for i in indices]
    assert len(batch.cls_feats) == len(batch.pose_feats) == 5


class TestTrainToy:
    def test_history_schema_and_schedule(self, tiny_run):
        _, hp, result, _ = tiny_run
        assert 1 <= len(result.history) <= hp.epochs
        for i, st in enumerate(result.history, start=1):
            assert st.epoch == i
            assert st.lr == hp.learning_rate(i)
            assert math.isfinite(st.train_loss) and math.isfinite(st.val_loss)

    def test_loss_decreases_and_beats_chance(self, tiny_run):
        model, _, result, test = tiny_run
        assert result.history[-1].train_loss < result.history[0].train_loss
        metrics = evaluate_pipeline(model, test)
        assert metrics["accuracy"] > 25.0

    def test_training_is_deterministic(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=13)[:40]
        results = []
        for _ in range(2):
            model = PipelineModel(PipelineConfig(), seed=13)
            res = train_toy(model, samples, Hyperparams(seed=13, epochs=2))
            results.append((res.history[-1].train_loss, model.cls_weight.copy()))
        assert results[0][0] == results[1][0]
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_early_stop_tail_is_nonimproving(self):
        """When the stopper fires the last `patience` epochs never beat the prior best."""
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=11)
        train = [s for s in samples if s.subject_id <= 6]
        model = PipelineModel(PipelineConfig(), seed=11)
        hp = Hyperparams(seed=11, epochs=50)
        result = train_toy(model, train, hp)
        if result.stopped_early:
            losses = [st.val_loss for st in result.history]
            best_before = min(losses[: -hp.patience])
            assert all(v >= best_before for v in losses[-hp.patience :])
            assert len(result.history) < hp.epochs
        else:  # ran the full budget; the rule never had 5 bad epochs in a row
            assert len(result.history) == hp.epochs

    def test_nonfinite_loss_aborts(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=11)[:16]
        model = PipelineModel(PipelineConfig(), seed=11)
        model.pose_weight[:] = 1e200  # force an overflowing squared error
        with pytest.raises(TrainingDiverged):
            train_toy(model, samples, Hyperparams(seed=11, epochs=1))
