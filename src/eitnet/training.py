"""Head training with the fixed regimen, plus finite-difference gradient checks.

The optimizer is Adam (beta1 0.9, beta2 0.999, eps 1e-8) at an initial
learning rate of 0.001, decayed by 0.1 every 10 epochs, for at most 50
epochs; training stops early once the validation loss has failed to improve
on its best value for 5 consecutive epochs.  Every clip is re-augmented each
epoch before the frozen stages run: a batch's clips are augmented as one
stack (``synthetic.augment``), each from its own seed, then run through the
frozen stages in stacks (``PipelineModel.extract_batch``), each clip with its
own dropout seed, which switches I3D's dropout (``i3d.DROPOUT``) on.  Only the
classification and pose heads receive gradients, which are analytic for the
linear+softmax and linear+squared-error forms; everything upstream stays
frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .pipeline import PipelineModel
from .rng import Rng, derive_seed
from .synthetic import SampleSet, augment
from .tensorops import softmax


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss appears; carries the offending epoch."""


# The fixed regimen; only the initial rate, the epoch cap and the seed are set per run.
LR_DECAY = 0.1
DECAY_EVERY = 10
BATCH_SIZE = 8
PATIENCE = 5
VAL_FRACTION = 0.2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Hyperparams:
    lr: float = 1e-3
    epochs: int = 50
    seed: int = 0
    patience: ClassVar[int] = PATIENCE  # not a field: fixed, but readable from an instance

    def learning_rate(self, epoch: int) -> float:
        """Schedule value for a 1-indexed epoch: lr * decay^floor((epoch-1)/every)."""
        if epoch < 1:
            raise ValueError("epochs are 1-indexed")
        return self.lr * LR_DECAY ** ((epoch - 1) // DECAY_EVERY)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float

    def csv_row(self) -> str:
        return (
            f"{self.epoch},{self.lr!r},{self.train_loss!r},{self.train_acc!r},"
            f"{self.val_loss!r},{self.val_acc!r}"
        )


LEARNING_CURVE_HEADER = "epoch,lr,train_loss,train_acc,val_loss,val_acc"


@dataclass
class TrainResult:
    history: list[EpochStats]
    stopped_early: bool


class EarlyStopper:
    """Strictly-better-than-best rule with a consecutive-failure budget."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs >= self.patience


class Adam:
    """Moment-tracking updates over a dict of named parameter arrays."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = params
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        for key, grad in grads.items():
            self.m[key] = ADAM_BETA1 * self.m[key] + (1 - ADAM_BETA1) * grad
            self.v[key] = ADAM_BETA2 * self.v[key] + (1 - ADAM_BETA2) * grad * grad
            m_hat = self.m[key] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[key] / (1 - ADAM_BETA2**self.t)
            self.params[key] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class FeatureBatch:
    """Frozen-stage features with targets, the unit the heads train on."""

    cls_feats: np.ndarray  # [B, d_model]
    labels: np.ndarray  # [B] int
    pose_feats: np.ndarray  # [B, pose_dim]
    pose_targets: np.ndarray  # [B, out_dim] joint trajectories flattened, in meters


def heads_loss_and_grads(
    params: dict[str, np.ndarray], batch: FeatureBatch
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Cross-entropy + pose squared error, with analytic gradients per head.

    The classification gradient uses the probabilities-minus-one-hot times
    features identity; the pose gradient is the scaled residual outer product.
    """
    b = batch.cls_feats.shape[0]
    logits = batch.cls_feats @ params["cls_weight"] + params["cls_bias"]
    probs = softmax(logits, axis=-1)
    picked = probs[np.arange(b), batch.labels]
    ce = float(-np.log(np.maximum(picked, 1e-300)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(b), batch.labels] -= 1.0
    dlogits /= b

    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan reach the caller's finiteness check
        pose_pred = batch.pose_feats @ params["pose_weight"] + params["pose_bias"]
        residual = pose_pred - batch.pose_targets
        out_dim = residual.shape[1]
        pose_mse = float((residual**2).mean())
        dpose = 2.0 * residual / (b * out_dim)

    grads = {
        "cls_weight": batch.cls_feats.T @ dlogits,
        "cls_bias": dlogits.sum(axis=0),
        "pose_weight": batch.pose_feats.T @ dpose,
        "pose_bias": dpose.sum(axis=0),
    }
    return ce, pose_mse, grads


def gradient_check(loss_fn, grad_fn, point: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error of analytic vs central-difference gradients at point."""
    if h <= 0:
        raise ValueError("step size must be positive")
    point = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(grad_fn(point), dtype=np.float64).ravel()
    flat = point.ravel()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        up = loss_fn(bumped.reshape(point.shape))
        bumped[i] -= 2 * h
        down = loss_fn(bumped.reshape(point.shape))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"non-finite loss at coordinate {i}")
        numeric[i] = (up - down) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


def _label_accuracy(params, cls_feats, labels) -> float:
    logits = cls_feats @ params["cls_weight"] + params["cls_bias"]
    return 100.0 * float(np.mean(logits.argmax(axis=1) == labels))


def _extract_batch(model: PipelineModel, samples, indices, epoch, hp, train_mode) -> FeatureBatch:
    """Features of the indexed samples, extracted as one ``extract_batch`` call.

    In train mode the stack is augmented first, each clip from its own seed,
    and then runs with dropout, each clip masked from its own seed; otherwise
    no seeds are passed and dropout stays off.
    """
    chosen = samples[indices]
    if train_mode:
        clips = augment(chosen.clips, [derive_seed(hp.seed, "aug", epoch, idx) for idx in indices])
        seeds = [derive_seed(hp.seed, "drop", epoch, idx) for idx in indices]
        cls_feats, pose_feats = model.extract_batch(clips, seeds)
    else:
        cls_feats, pose_feats = model.extract_batch(chosen.clips)
    return FeatureBatch(
        cls_feats=cls_feats,
        labels=chosen.labels,
        pose_feats=pose_feats,
        pose_targets=chosen.joints.reshape(len(chosen), -1) / 1000.0,
    )


def train_toy(model: PipelineModel, samples, hp: Hyperparams) -> TrainResult:
    """Train the heads on the given samples under the fixed regimen.

    A seeded fraction of the samples is held out for validation (never
    augmented, dropout off, features cached).  Adam updates the model's
    head arrays in place.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples to carve out validation data")
    samples = SampleSet.of(samples)
    order = list(range(len(samples)))
    Rng(derive_seed(hp.seed, "val-split")).shuffle(order)
    n_val = max(1, int(len(order) * VAL_FRACTION))
    val_idx, train_idx = order[:n_val], order[n_val:]

    model.fit_feature_norm(samples[train_idx])
    params = model.head_parameters()
    # Start the pose head at the mean training trajectory so it learns
    # per-sample deviations instead of spending steps on the global offset.
    params["pose_bias"][:] = np.mean(samples.joints[train_idx] / 1000.0, axis=0).ravel()
    optimizer = Adam(params)
    stopper = EarlyStopper(PATIENCE)
    val_batch = _extract_batch(model, samples, val_idx, 0, hp, train_mode=False)

    history: list[EpochStats] = []
    stopped = False
    # Divergence overflows to inf/nan, which the finiteness checks raise for.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, hp.epochs + 1):
            lr = hp.learning_rate(epoch)
            shuffled = train_idx[:]
            Rng(derive_seed(hp.seed, "order", epoch)).shuffle(shuffled)
            losses, accs = [], []
            for start in range(0, len(shuffled), BATCH_SIZE):
                batch_idx = shuffled[start : start + BATCH_SIZE]
                batch = _extract_batch(model, samples, batch_idx, epoch, hp, train_mode=True)
                ce, pose_mse, grads = heads_loss_and_grads(params, batch)
                loss = ce + pose_mse
                if not math.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss {loss} at epoch {epoch} (ce={ce}, pose={pose_mse})"
                    )
                optimizer.step(grads, lr)
                losses.append(loss)
                accs.append(_label_accuracy(params, batch.cls_feats, batch.labels))
            val_ce, val_mse, _ = heads_loss_and_grads(params, val_batch)
            val_loss = val_ce + val_mse
            if not math.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
            history.append(
                EpochStats(
                    epoch=epoch,
                    lr=lr,
                    train_loss=float(np.mean(losses)),
                    train_acc=float(np.mean(accs)),
                    val_loss=val_loss,
                    val_acc=_label_accuracy(params, val_batch.cls_feats, val_batch.labels),
                )
            )
            if stopper.update(val_loss):
                stopped = True
                break
    return TrainResult(history=history, stopped_early=stopped)
