"""Command-line entry point: one binary, one subcommand per task.

Subcommands: gen-data, run-pipeline, train, eval, ablate, simulate,
gradcheck, complexity.  Every stochastic subcommand requires --seed and all
randomness derives from it, so reruns produce byte-identical outputs.  CSVs
carry the seed in a leading ``#`` comment.  Exit codes: 0 success, 1 runtime
failure (single ``error:`` line on stderr), 2 usage, 3 invalid config.
run-pipeline writes its [N, F] pose features as one features.bin, in manifest order.
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import ACTION_LABELS, FRAME_HW, __version__
from .ablation import ABLATION_CSV_HEADER, run_ablation, split_samples
from .detection import DETECTION_CSV_HEADER, detection_csv_row, detection_loss
from .encoder import CLASSIFICATION_CSV_HEADER
from .fileio import (
    default_out_dir,
    load_dataset,
    parse_camera_config,
    save_dataset,
    write_csv,
    write_fresh,
)
from .metrics import make_split
from .pipeline import (
    PipelineConfig,
    PipelineModel,
    count_attention_projections,
    count_conv3d,
    count_linear,
    count_params_flops,
    evaluate_pipeline,
)
from .rng import Rng, derive_seed
from .stream import (
    FEEDBACK_CSV_HEADER,
    CameraSpec,
    check_simulation,
    report_csv_text,
    run_simulation,
)
from .synthetic import DatasetConfig, generate_synthetic_dataset, pose_bounding_box
from .tensorops import save_tensor, softmax
from .training import LEARNING_CURVE_HEADER, Hyperparams, train_toy

METRICS_CSV_HEADER = "split_axis,seed,accuracy,mpjpe,pa_mpjpe"
GRADCHECK_CSV_HEADER = "layer,max_rel_error,h"
COMPLEXITY_CSV_HEADER = "config,parameters,macs"
# simulate's camera flags and defaults; parsed as None when absent, so a config can refuse them
_CAMERA_FLAGS = {"--cameras": 5, "--period-us": 33333, "--offset-us": 200,
                 "--jitter-us": 0.0, "--drop-prob": 0.0}
# the most decimal digits int() reads or writes by default; a duration's bound too
_MAX_DURATION_DIGITS = 4300


class ConfigError(Exception):
    """Unresolvable paths, invalid option values or a split with a short side (exit code 3)."""


def _config(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError reported as an invalid option."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_duration_us(text: str) -> int:
    """A duration in whole microseconds: a decimal number, then us (the default), ms or s.

    The number is read exactly, so 9007199254740993us stays odd; a value that
    is not a whole number of microseconds, such as 1.5us, is a ``ConfigError``.
    """
    raw = text.strip().lower()
    number, scale = raw, 1
    for suffix, factor in (("us", 1), ("ms", 1_000), ("s", 1_000_000)):
        if raw.endswith(suffix):
            number, scale = raw[: -len(suffix)], factor
            break
    try:
        float(number)  # float's grammar: Decimal alone would also take 1__0
        value = Decimal(number)
        # Within int()'s digit limit as a count of microseconds, so every message can
        # print it; and no 1e-999999999 builds a billion-digit denominator.
        valid = (
            value.is_finite()
            and value.as_tuple().exponent >= -_MAX_DURATION_DIGITS
            and value.adjusted() + len(str(scale)) <= _MAX_DURATION_DIGITS
        )
    except (ValueError, InvalidOperation):
        valid = False
    if not valid:
        raise ConfigError(f"invalid duration {text!r}; use e.g. 2s, 250ms, 33333us")
    duration = Fraction(value) * scale
    if duration.denominator != 1:
        raise ConfigError(f"duration {text!r} is not a whole number of microseconds")
    return duration.numerator


def parse_toggles(text: str) -> PipelineConfig:
    valid = {"det", "i3d", "tsf"}
    parts = {p.strip() for p in text.split(",") if p.strip()}
    unknown = parts - valid
    if unknown:
        raise ConfigError(f"unknown stage toggles {sorted(unknown)}; choose from det,i3d,tsf")
    return _config(
        PipelineConfig,
        detection="det" in parts,
        spatiotemporal="i3d" in parts,
        temporal="tsf" in parts,
    )


def _hyperparams(args) -> Hyperparams:
    """The training regimen from --lr, --epochs and --seed."""
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    if not 0.0 < args.lr < float("inf"):
        raise ConfigError(f"--lr must be positive and finite, got {args.lr}")
    return Hyperparams(lr=args.lr, epochs=args.epochs, seed=args.seed)


def _require_dataset(path_text: str | None):
    if not path_text:
        raise ConfigError("--dataset is required")
    samples = _config(load_dataset, path_text)
    if not samples:
        raise ConfigError(f"dataset at {path_text} has no samples")
    return samples


def _split(args, samples, need_test: bool):
    """The --axis/--seed split plan and its (train, test) samples.

    Training needs at least 2 samples, and evaluation at least 1 test
    sample; a dataset whose split leaves less is an invalid config.
    """
    plan = make_split(args.axis, args.seed)
    train, test = split_samples(samples, plan)
    for side, ids, got, need in (
        ("train", plan.train_ids, train, 2),
        ("test", plan.test_ids, test, int(need_test)),
    ):
        if len(got) < need:
            missing = [i for i in ids if i not in getattr(got, f"{plan.axis}_ids")]
            raise ConfigError(
                f"the {plan.axis} split has {len(got)} {side} samples, need at least {need}; "
                f"the dataset has none for {side} {plan.axis} ids {missing}"
            )
    return plan, train, test


def _outdir(args, *subdirs: str) -> Path:
    """Create ``--out`` and the named subdirectories under it, before any work."""
    out = default_out_dir(args.out)
    for path in (out, *(out / name for name in subdirs)):
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc
    return out


def _refuse_older_layout(args, layout: str, *subdirs: str) -> None:
    """Refuse an ``--out`` that holds any named subdirectory of an older layout."""
    old = [p for p in (default_out_dir(args.out) / name for name in subdirs) if p.is_dir()]
    if old:
        raise ConfigError(f"older {layout} layout at {', '.join(map(str, old))}; remove it first")


def cmd_gen_data(args) -> int:
    config = _config(DatasetConfig, repetitions=args.repetitions)
    _refuse_older_layout(args, "dataset", "clips", "poses")
    out = _outdir(args)
    samples = generate_synthetic_dataset(config, args.seed)
    save_dataset(out, samples, args.seed)
    print(f"wrote {len(samples)} samples to {out}")
    return 0


def cmd_run_pipeline(args) -> int:
    if not 0.0 <= args.lam < float("inf"):
        raise ConfigError(f"--lambda must be nonnegative and finite, got {args.lam}")
    config = parse_toggles(args.toggles)
    _refuse_older_layout(args, "run-pipeline", "features")
    samples = _require_dataset(args.dataset)
    out = _outdir(args)
    model = PipelineModel(config, seed=args.seed)
    boxes = model.frame_boxes(samples.clips)  # [N, T, 5]; the dataset load validated the clips
    cls_feats, pose_feats = model.extract_batch(samples.clips, boxes=boxes)
    probs = model.head_probs(cls_feats)
    n, t = boxes.shape[:2]
    boxes = boxes.reshape(n * t, 5)
    true_boxes = pose_bounding_box(samples.joints, *FRAME_HW).reshape(n * t, 4)
    parts = detection_loss(boxes[:, 4], boxes[:, :4], true_boxes, lam=args.lam)
    cameras = np.repeat(samples.view_ids, t).tolist()
    detection_rows = [
        detection_csv_row(k, camera, box)
        for k, (camera, box) in enumerate(zip(cameras, boxes.tolist()))
    ]
    write_csv(
        out / "detections.csv",
        DETECTION_CSV_HEADER,
        detection_rows,
        seed=args.seed,
        comments=(
            f"detection_loss total={parts.total!r} cls={parts.cls!r} "
            f"reg={parts.reg!r} lambda={parts.lam!r}",
        ),
    )
    class_rows = [
        f"{i},{k},{p!r}" for i, clip_probs in enumerate(probs.tolist())
        for k, p in enumerate(clip_probs)
    ]
    write_csv(out / "classifications.csv", CLASSIFICATION_CSV_HEADER, class_rows, seed=args.seed)
    save_tensor(out / "features.bin", pose_feats)
    print(f"processed {len(samples)} clips into {out} (detection loss {parts.total:.3f})")
    return 0


def _split_comments(plan) -> tuple[str, ...]:
    return (
        f"split axis={plan.axis} train={len(plan.train_ids)} test={len(plan.test_ids)}",
        f"train_ids={list(plan.train_ids)}",
        f"test_ids={list(plan.test_ids)}",
    )


def cmd_train(args) -> int:
    hp = _hyperparams(args)
    config = parse_toggles(args.toggles)
    plan, train_samples = _split(args, _require_dataset(args.dataset), need_test=False)[:2]
    out = _outdir(args)
    if not (out / "weights").is_dir():
        _outdir(args, "weights")  # exits 3 now, before training, if it cannot be made,
        (out / "weights").rmdir()  # and is made again once training succeeds
    model = PipelineModel(config, seed=args.seed)
    result = train_toy(model, train_samples, hp)
    _outdir(args, "weights")
    write_csv(
        out / "learning_curves.csv",
        LEARNING_CURVE_HEADER,
        [st.csv_row() for st in result.history],
        seed=args.seed,
        comments=_split_comments(plan) + (f"stopped_early={result.stopped_early}",),
    )
    for name, value in model.head_parameters().items():
        save_tensor(out / "weights" / f"{name}.bin", value)
    print(
        f"trained {len(result.history)} epochs "
        f"(early stop: {result.stopped_early}) -> {out}"
    )
    return 0


def cmd_eval(args) -> int:
    hp = _hyperparams(args)
    config = parse_toggles(args.toggles)
    plan, train_samples, test_samples = _split(args, _require_dataset(args.dataset), need_test=True)
    out = _outdir(args)
    model = PipelineModel(config, seed=args.seed)
    train_toy(model, train_samples, hp)
    metrics = evaluate_pipeline(model, test_samples)
    row = (
        f"{plan.axis},{args.seed},{metrics['accuracy']!r},"
        f"{metrics['mpjpe']!r},{metrics['pa_mpjpe']!r}"
    )
    write_csv(
        out / "metrics.csv",
        METRICS_CSV_HEADER,
        [row],
        seed=args.seed,
        comments=_split_comments(plan),
    )
    print(
        f"{plan.axis} split: accuracy={metrics['accuracy']:.2f}% "
        f"mpjpe={metrics['mpjpe']:.2f}mm pa_mpjpe={metrics['pa_mpjpe']:.2f}mm"
    )
    return 0


def cmd_ablate(args) -> int:
    hp = _hyperparams(args)
    samples = _require_dataset(args.dataset)
    plan = _split(args, samples, need_test=True)[0]
    out = _outdir(args)
    rows = run_ablation(samples, plan, PipelineConfig(), hp)
    full = rows[0]
    observations = []
    for row in rows[1:]:
        relation = ">=" if full.accuracy >= row.accuracy else "<"
        observations.append(
            f"expectation full>=variant: {full.accuracy!r} {relation} "
            f"{row.accuracy!r} ({row.toggles.tag()})"
        )
    write_csv(
        out / "ablation.csv",
        ABLATION_CSV_HEADER,
        [row.csv_row() for row in rows],
        seed=args.seed,
        comments=_split_comments(plan) + tuple(observations),
    )
    for line in observations:
        print(line)
    print(f"wrote {len(rows)} configurations -> {out / 'ablation.csv'}")
    return 0


def _default_camera_specs(args) -> list[CameraSpec]:
    given = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in _CAMERA_FLAGS}
    given = {flag: value for flag, value in given.items() if value is not None}
    if args.camera_config:
        if given:
            raise ConfigError(f"{', '.join(given)} cannot be given with --camera-config")
        path = Path(args.camera_config)
        if not path.exists():
            raise ConfigError(f"camera config not found at {path}")
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read camera config {path}: {exc.strerror}") from exc
        return parse_camera_config(text)
    cameras, period_us, offset_us, jitter_us, drop_prob = {**_CAMERA_FLAGS, **given}.values()
    return [
        CameraSpec(i, period_us, offset_us * i, jitter_us, drop_prob) for i in range(1, cameras + 1)
    ]


def _window_hook(seed: int, frame_hw: tuple[int, int]):
    """Tiny fixed classifier over the mean window frame, for report rows."""
    h, w = frame_hw
    rng = Rng(derive_seed(seed, "window-hook"))
    weight = rng.normals(h * w * len(ACTION_LABELS)).reshape(h * w, -1) / np.sqrt(h * w)

    def hook(window):
        # Integer pixels below 256 sum exactly in float64, in any order of addition.
        total = np.add.reduce(list(window.frames.values()), axis=0, dtype=np.float64)
        return softmax((total / len(window.frames) / 255.0).ravel() @ weight)

    return hook


def cmd_simulate(args) -> int:
    specs = _config(_default_camera_specs, args)
    duration = parse_duration_us(args.duration)
    _config(check_simulation, specs, duration, args.window_period_us, args.threshold)
    out = _outdir(args)
    report = run_simulation(
        specs,
        duration_us=duration,
        seed=args.seed,
        pipeline_hook=_window_hook(args.seed, FRAME_HW),
        window_period_us=args.window_period_us,
        feedback_threshold=args.threshold,
    )
    if not report.conservation_holds():
        raise RuntimeError("packet conservation violated")
    write_fresh(out / "report.csv", report_csv_text(report, args.seed))
    write_csv(
        out / "feedback.csv",
        FEEDBACK_CSV_HEADER,
        [m.csv_row() for m in report.feedback],
        seed=args.seed,
    )
    delivered = sum(c.delivered for c in report.counts.values())
    print(
        f"{len(specs)} cameras, {delivered} packets delivered, "
        f"{len(report.window_rows)} windows -> {out}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    from .training import FeatureBatch, gradient_check, heads_loss_and_grads

    out = _outdir(args)
    rng = Rng(derive_seed(args.seed, "gradcheck"))
    b, d_cls, d_pose, out_dim = 6, 8, 10, 12
    batch = FeatureBatch(
        cls_feats=rng.normals(b * d_cls).reshape(b, d_cls),
        labels=np.array([rng.below(len(ACTION_LABELS)) for _ in range(b)]),
        pose_feats=rng.normals(b * d_pose).reshape(b, d_pose),
        pose_targets=rng.normals(b * out_dim).reshape(b, out_dim),
    )
    params = {
        "cls_weight": rng.normals(d_cls * 4).reshape(d_cls, 4) * 0.3,
        "cls_bias": rng.normals(4) * 0.1,
        "pose_weight": rng.normals(d_pose * out_dim).reshape(d_pose, out_dim) * 0.3,
        "pose_bias": rng.normals(out_dim) * 0.1,
    }
    h = 1e-5
    rows, errors = [], []
    for name in sorted(params):

        def loss_at(value, _name=name):
            trial = {k: v.copy() for k, v in params.items()}
            trial[_name] = value
            ce, mse, _ = heads_loss_and_grads(trial, batch)
            return ce + mse

        def grad_at(value, _name=name):
            trial = {k: v.copy() for k, v in params.items()}
            trial[_name] = value
            return heads_loss_and_grads(trial, batch)[2][_name]

        errors.append(gradient_check(loss_at, grad_at, params[name], h=h))
        rows.append(f"{name},{errors[-1]!r},{h!r}")
    worst = np.max(errors)  # np.max keeps a NaN error, which max() would drop
    write_csv(out / "gradcheck.csv", GRADCHECK_CSV_HEADER, rows, seed=args.seed)
    print(f"max relative error {worst:.3e} over {len(rows)} layers -> {out / 'gradcheck.csv'}")
    if not worst <= 1e-4:
        raise RuntimeError(f"gradient check failed: max relative error {worst:.3e} > 1e-4")
    return 0


def cmd_complexity(args) -> int:
    config = parse_toggles(args.toggles)
    out = _outdir(args)
    rows = []
    params, macs = count_params_flops(config)
    rows.append(f"pipeline,{params},{macs}")
    p, m = count_linear(4, 2)
    rows.append(f"linear_4x2,{p},{m}")
    p, m = count_conv3d(1, 1, (3, 3, 3), (4, 4, 4))
    rows.append(f"conv3d_1to1_k3_on_4cube,{p},{m}")
    rows.append(f"attention_projections_d32,{count_attention_projections(32)},0")
    write_csv(out / "complexity.csv", COMPLEXITY_CSV_HEADER, rows, seed=None)
    print(f"pipeline: {params} parameters, {macs} MACs -> {out / 'complexity.csv'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="eitnet",
        description="Desk-scale multi-camera action recognition pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dataset=False):
        p.add_argument("--seed", type=int, required=True, help="root seed (required)")
        p.add_argument("--out", help="output directory (default $EITNET_OUT or ./eitnet-out)")
        if dataset:
            p.add_argument("--dataset", help="dataset directory from gen-data")

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    add_common(p)
    p.add_argument("--repetitions", type=int, default=2)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run-pipeline", help="run the frozen pipeline over a dataset")
    add_common(p, dataset=True)
    p.add_argument("--toggles", default="det,i3d,tsf")
    p.add_argument(
        "--lambda", dest="lam", type=float, default=1.0,
        help="regression weight in the reported detection loss",
    )
    p.set_defaults(func=cmd_run_pipeline)

    def add_training(p, epochs, toggles=True):
        p.add_argument("--axis", choices=("subject", "view"), default="subject")
        if toggles:
            p.add_argument("--toggles", default="det,i3d,tsf")
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--epochs", type=int, default=epochs)

    p = sub.add_parser("train", help="train the heads under the fixed regimen")
    add_common(p, dataset=True)
    add_training(p, epochs=50)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="train then report accuracy/MPJPE/PA-MPJPE on a split")
    add_common(p, dataset=True)
    add_training(p, epochs=50)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="stage-ablation table over a split")
    add_common(p, dataset=True)
    add_training(p, epochs=8, toggles=False)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("simulate", help="run the multi-camera streaming simulation")
    add_common(p)
    p.add_argument("--camera-config", help="key=value camera config file")
    for flag, default in _CAMERA_FLAGS.items():
        p.add_argument(flag, type=type(default), help=f"default {default}; not with a config")
    p.add_argument("--duration", default="1s", help="e.g. 2s, 250ms, 33333us")
    p.add_argument("--window-period-us", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gradcheck", help="finite-difference check of trainable layers")
    add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("complexity", help="parameter and MAC accounting")
    p.add_argument("--out", help="output directory (default $EITNET_OUT or ./eitnet-out)")
    p.add_argument("--toggles", default="det,i3d,tsf")
    p.set_defaults(func=cmd_complexity)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
