"""Outside-in span tracing of eitnet's layers.

The package has no tracing of its own, so the benchmark replaces public
functions and methods at the place their callers look them up (a module
global such as ``eitnet.detection.conv3d`` or a class attribute such as
``Detector.best_box``) with wrappers that record spans, and puts the
originals back afterwards.  A span is (name, parent index, start ns, end ns);
spans stay in memory and are written out once the traced pass ends.

``as_tensor`` is only counted, never spanned: a span costs about as much as
the call itself.

A layer's self time is its span's duration minus the durations of its
direct child spans, so the self times of all spans plus the uncovered time
add up to the traced wall time.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Per-layer metrics of the traced run.  Kinds:
#   self   mean self time per call of the span, in the metric's unit
#   incl   mean inclusive time per call of the span (a whole phase)
#   calls  span calls per workload operation
#   count  counted (not spanned) calls per workload operation
# The workload adds its own metrics (stream report counts, epochs) and the
# runner adds trace.uncovered_share and trace.overhead_ratio.
LAYER_METRICS = (
    ("pipeline.crop_clip.ms", "ms", "self", "pipeline.crop_clip"),
    ("pipeline.stage_features.ms", "ms", "self", "pipeline.stage_features"),
    ("pipeline.tokens.ms", "ms", "self", "pipeline.tokens"),
    ("pipeline.encode.ms", "ms", "self", "pipeline.encode"),
    ("pipeline.heads.ms", "ms", "self", "pipeline.heads"),
    ("pipeline.extract.calls", "count", "calls", "pipeline.extract"),
    ("pipeline.fit_feature_norm.s", "s", "incl", "pipeline.fit_feature_norm"),
    ("pipeline.evaluate.s", "s", "incl", "pipeline.evaluate"),
    ("detection.best_box.calls", "count", "calls", "detection.best_box"),
    ("detection.pyramid.ms", "ms", "self", "detection.pyramid"),
    ("detection.fuse.ms", "ms", "self", "detection.fuse"),
    ("detection.detect.self_ms", "ms", "self", "detection.detect"),
    ("detection.nms.ms", "ms", "self", "detection.nms"),
    ("detection.crop_region.ms", "ms", "self", "detection.crop_region"),
    ("i3d.block0.ms", "ms", "self", "i3d.block0"),
    ("i3d.block1.ms", "ms", "self", "i3d.block1"),
    ("i3d.block2.ms", "ms", "self", "i3d.block2"),
    ("i3d.forward.ms", "ms", "self", "i3d.forward"),
    ("encoder.patch_embed.ms", "ms", "self", "encoder.patch_embed"),
    ("encoder.block.ms", "ms", "self", "encoder.block"),
    ("encoder.self_attention.calls", "count", "calls", "encoder.self_attention"),
    ("encoder.self_attention.ms", "ms", "self", "encoder.self_attention"),
    ("tensorops.as_tensor.calls", "count", "count", "tensorops.as_tensor"),
    ("tensorops.conv3d.calls", "count", "calls", "tensorops.conv3d"),
    ("tensorops.conv3d.ms", "ms", "self", "tensorops.conv3d"),
    ("training.augment.ms", "ms", "self", "training.augment"),
    ("training.heads_loss_and_grads.ms", "ms", "self", "training.heads_loss_and_grads"),
    ("training.adam_step.ms", "ms", "self", "training.adam_step"),
    ("training.train_toy.s", "s", "incl", "training.train_toy"),
    ("metrics.mpjpe.ms", "ms", "self", "metrics.mpjpe"),
    ("metrics.pa_mpjpe.ms", "ms", "self", "metrics.pa_mpjpe"),
    ("stream.run_simulation.self_ms", "ms", "self", "stream.run_simulation"),
    ("stream.encode_packet.us", "us", "self", "stream.encode_packet"),
    ("stream.decode_packet.us", "us", "self", "stream.decode_packet"),
    ("stream.median_filter.us", "us", "self", "stream.median_filter"),
    ("stream.assembler_push.us", "us", "self", "stream.assembler_push"),
    ("stream.calibrate_clocks.ms", "ms", "self", "stream.calibrate_clocks"),
    ("stream.report_csv.ms", "ms", "self", "stream.report_csv"),
    ("fileio.write_csv.ms", "ms", "self", "fileio.write_csv"),
    ("fileio.parse_camera_config.ms", "ms", "self", "fileio.parse_camera_config"),
    ("cli.build_parser.ms", "ms", "self", "cli.build_parser"),
)

_NS_PER_UNIT = {"s": 1e9, "ms": 1e6, "us": 1e3}


def trace_points():
    """(owner, attribute, span name) for every wrapped entry point.

    A span name of None means the call is counted only.  The i3d block name
    is derived from the block's output width, which is unique per block.
    """
    from eitnet import ablation, cli, detection, encoder, i3d, pipeline, stream
    from eitnet import synthetic, tensorops, training
    from eitnet.pipeline import PipelineConfig

    widths = PipelineConfig().i3d_widths

    def block_name(x, params, *args, **kwargs):
        return f"i3d.block{widths.index(params.conv_weight.shape[0])}"

    model = pipeline.PipelineModel
    points = [
        (model, "crop_clip", "pipeline.crop_clip"),
        (model, "stage_features", "pipeline.stage_features"),
        (model, "tokens", "pipeline.tokens"),
        (model, "encode", "pipeline.encode"),
        (model, "extract", "pipeline.extract"),
        (model, "head_probs", "pipeline.heads"),
        (model, "head_pose", "pipeline.heads"),
        (model, "fit_feature_norm", "pipeline.fit_feature_norm"),
        (ablation, "evaluate_pipeline", "pipeline.evaluate"),
        (detection.Detector, "best_box", "detection.best_box"),
        (detection.Detector, "detect", "detection.detect"),
        (detection.Detector, "pyramid", "detection.pyramid"),
        (detection.Detector, "fuse", "detection.fuse"),
        (detection, "nms", "detection.nms"),
        (pipeline, "crop_region", "detection.crop_region"),
        (i3d.I3DStack, "forward", "i3d.forward"),
        (i3d, "i3d_block", block_name),
        (pipeline, "patch_embed", "encoder.patch_embed"),
        (pipeline, "encoder_block", "encoder.block"),
        (encoder, "self_attention", "encoder.self_attention"),
        (detection, "conv3d", "tensorops.conv3d"),
        (i3d, "conv3d", "tensorops.conv3d"),
        (training, "augment", "training.augment"),
        (training, "heads_loss_and_grads", "training.heads_loss_and_grads"),
        (training.Adam, "step", "training.adam_step"),
        (ablation, "train_toy", "training.train_toy"),
        (pipeline, "mpjpe", "metrics.mpjpe"),
        (pipeline, "pa_mpjpe", "metrics.pa_mpjpe"),
        (cli, "run_simulation", "stream.run_simulation"),
        (stream, "encode_packet", "stream.encode_packet"),
        (stream, "decode_packet", "stream.decode_packet"),
        (stream, "median_filter", "stream.median_filter"),
        (stream.WindowAssembler, "push", "stream.assembler_push"),
        (stream, "calibrate_clocks", "stream.calibrate_clocks"),
        (cli, "report_csv_text", "stream.report_csv"),
        (cli, "write_csv", "fileio.write_csv"),
        (cli, "parse_camera_config", "fileio.parse_camera_config"),
        (cli, "build_parser", "cli.build_parser"),
    ]
    for module in (tensorops, detection, encoder, i3d, pipeline, synthetic):
        points.append((module, "as_tensor", None))
    return points


class Tracer:
    """Records spans and counts while installed; inert otherwise.

    Spans live in flat arrays rather than one object per span, so recording
    allocates nothing the cyclic garbage collector has to scan.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")  # index of the enclosing span, or -1
        self.starts = array("q")  # perf_counter_ns
        self.ends = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _spanned(self, name, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name(*args, **kwargs) if callable(name) else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _counted(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["tensorops.as_tensor"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, points):
        """Wrap every point; restore the originals on exit.

        A point whose attribute no longer exists is an error: a layer that
        silently went untraced would read 0, which looks like a saving.
        """
        missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in points if a not in vars(o)]
        if missing:
            raise LookupError(f"trace points no longer exist: {', '.join(missing)}")
        saved = []
        try:
            for owner, attr, name in points:
                original = vars(owner)[attr]
                wrapper = self._counted(original) if name is None else self._spanned(name, original)
                setattr(owner, attr, wrapper)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> tuple[dict[str, list[int]], int]:
        """Per span name [calls, self ns, inclusive ns], plus the root spans' total ns."""
        spans = list(zip(self.names, self.parents, self.starts, self.ends))
        child_ns = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, list[int]] = {}
        root_ns = 0
        for i, (name, parent, start, end) in enumerate(spans):
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start - child_ns[i]
            entry[2] += end - start
            if parent < 0:
                root_ns += end - start
        return stats, root_ns

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """LAYER_METRICS values; a layer the workload never reached reads 0."""
        stats, _ = self.summary()
        out = {}
        for metric, unit, kind, source in LAYER_METRICS:
            calls, self_ns, incl_ns = stats.get(source, (0, 0, 0))
            if kind == "calls":
                value = calls / ops
            elif kind == "count":
                value = self.counts[source] / ops
            elif calls == 0:
                value = 0.0
            else:
                value = (self_ns if kind == "self" else incl_ns) / calls / _NS_PER_UNIT[unit]
            out[metric] = (value, unit)
        return out

    def write(self, path) -> None:
        """One CSV line per span: index,parent,name,start_ns,end_ns."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            spans = zip(self.names, self.parents, self.starts, self.ends)
            for i, (name, parent, start, end) in enumerate(spans):
                fh.write(f"{i},{parent},{name},{start},{end}\n")
