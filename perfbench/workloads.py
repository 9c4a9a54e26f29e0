"""The benchmark's workloads: what each one feeds the program and checks.

Each workload drives eitnet only through public entry points, makes every
input from the workload seed, times only the program call, and checks each
output.  A ``call`` is one timed call of the entry point; an ``op`` is the
unit ``failed`` and ``attempted`` count (a clip, a configuration row, a
``simulate`` run).  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from eitnet import ACTION_LABELS, ablation, cli
from eitnet.metrics import make_split
from eitnet.pipeline import PipelineConfig, PipelineModel
from eitnet.synthetic import DatasetConfig, generate_synthetic_dataset
from eitnet.training import Hyperparams

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The model's weights are part of the program under test, not an input:
# every workload and seed uses the same model.
MODEL_SEED = 7
# Inputs of the correctness check against the recorded seed-commit outputs.
GOLDEN_SEED = 7

# Recorded floats must match to this relative tolerance (absolute near 0).
# Frozen-stage outputs allow for a changed summation order; the ablation
# table also carries that difference through a few epochs of training.
INFER_RTOL = 1e-9
ABLATE_RTOL = 1e-6


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b))


def _seed_stream(seed: int, workload: str):
    """Endless per-call seeds drawn from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


class Workload:
    name = ""
    ops_per_call = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self) -> None:
        """Generate the inputs, build what the calls need, warm up once."""

    def input_problems(self) -> list[str]:
        """Validity guards on the generated inputs; one entry per bad op."""
        return []

    def inputs(self):
        raise NotImplementedError

    def call(self, inp) -> tuple[float, object]:
        """Run one call of the entry point; returns (seconds, output)."""
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Problems with one call's output, at most one per op."""
        return []

    def items(self, out) -> float:
        """Work items the call completed, for the throughput metric."""
        return self.ops_per_call

    def digest(self, out) -> bytes:
        raise NotImplementedError

    def golden(self) -> tuple[int, list[str]]:
        """Ops attempted and problems found against the recorded outputs."""
        raise NotImplementedError

    def layer_metrics(self, outs) -> dict[str, tuple[float, str]]:
        """Per-layer metrics read from the program's own outputs."""
        return {}


# -- infer ---------------------------------------------------------------------


class Infer(Workload):
    """Closed loop of PipelineModel.forward over distinct seeded clips."""

    name = "infer"

    def setup(self) -> None:
        repetitions = 1 if self.tiny else 10
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=repetitions), self.seed)
        self.model = PipelineModel(PipelineConfig(), seed=MODEL_SEED)
        self.model.forward(samples[0].clip)
        self.clips = [s.clip for s in samples[1 : 9 if self.tiny else None]]

    def input_problems(self) -> list[str]:
        seen = set()
        problems = []
        for i, clip in enumerate(self.clips):
            key = hashlib.sha256(clip.tobytes()).digest()
            if key in seen:
                problems.append(f"infer: clip {i} repeats an earlier clip")
            seen.add(key)
        return problems

    def inputs(self):
        return iter(self.clips)

    def call(self, clip):
        start = time.perf_counter()
        out = self.model.forward(clip)
        return time.perf_counter() - start, out

    def check(self, clip, out) -> list[str]:
        arrays = [out.probs, out.cls_feat, out.pose_feat] + [p.joints for p in out.pose]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return ["infer: non-finite output"]
        if out.probs.min() < 0 or abs(out.probs.sum() - 1.0) > 1e-9:
            return ["infer: class probabilities do not form a distribution"]
        return []

    def digest(self, out) -> bytes:
        h = hashlib.sha256()
        for a in [out.probs, out.cls_feat, out.pose_feat] + [p.joints for p in out.pose]:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.digest()

    def _golden_outputs(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), GOLDEN_SEED)[::25]
        model = PipelineModel(PipelineConfig(), seed=MODEL_SEED)
        return [model.forward(s.clip) for s in samples]

    def golden(self):
        ref = json.loads((REFERENCE_DIR / "infer.json").read_text())
        outs = self._golden_outputs()
        problems = []
        for i, (out, want) in enumerate(zip(outs, ref["clips"])):
            got = list(out.probs) + list(out.pose_feat)
            expect = want["probs"] + want["pose_feat"]
            if len(got) != len(expect) or not all(
                _close(float(a), b, INFER_RTOL) for a, b in zip(got, expect)
            ):
                problems.append(f"infer: golden clip {i} differs from the seed-commit output")
        return len(ref["clips"]), problems


# -- ablate --------------------------------------------------------------------


class Ablate(Workload):
    """run_ablation over TABLE_ROWS; each call uses a fresh view, class pair and subject split.

    Two action classes of one camera view of the one-repetition dataset give
    20 clips (12 train, 8 test on a 6/4 subject split), which keeps a call
    near two seconds, so a run holds about ten calls.  The reference table
    uses all four classes.
    The epoch cap stays below the first epoch at which early stopping can
    fire (patience + 1), so every row trains for exactly the cap.
    """

    name = "ablate"
    ops_per_call = len(ablation.TABLE_ROWS)
    EPOCHS = 3

    def setup(self) -> None:
        self.epochs = 1 if self.tiny else self.EPOCHS
        self.samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), self.seed)
        PipelineModel(PipelineConfig(), seed=MODEL_SEED).forward(self.samples[0].clip)

    def inputs(self):
        for call_seed in _seed_stream(self.seed, self.name):
            labels = tuple(random.Random(call_seed).sample(ACTION_LABELS, 2))
            yield (call_seed % 5 + 1, call_seed, labels)

    def _run(self, samples, view: int, split_seed: int, labels=ACTION_LABELS):
        subset = [s for s in samples if s.view_id == view and s.label in labels]
        plan = make_split("subject", split_seed)
        hp = Hyperparams(epochs=self.epochs, seed=split_seed)
        results = []
        train_toy = ablation.train_toy

        def probe(model, train, hp):
            result = train_toy(model, train, hp)
            results.append(result)
            return result

        ablation.train_toy = probe
        try:
            start = time.perf_counter()
            rows = ablation.run_ablation(subset, plan, PipelineConfig(), hp)
            seconds = time.perf_counter() - start
        finally:
            ablation.train_toy = train_toy
        epochs = [(len(r.history), r.stopped_early) for r in results]
        return seconds, ([row.csv_row() for row in rows], epochs)

    def layer_metrics(self, outs):
        ran = [n for _, epochs in outs for n, _ in epochs]
        return {"training.epochs": (sum(ran) / max(len(ran), 1), "count")}

    def call(self, inp):
        return self._run(self.samples, *inp)

    def check(self, inp, out) -> list[str]:
        rows, epochs = out
        problems = []
        if len(rows) != self.ops_per_call or len(epochs) != self.ops_per_call:
            return [f"ablate: expected {self.ops_per_call} rows"] * self.ops_per_call
        for row, (ran, stopped) in zip(rows, epochs):
            values = [float(v) for v in row.split(",")[4:]]
            if not all(math.isfinite(v) for v in values) or not 0 <= values[0] <= 100:
                problems.append(f"ablate: bad metrics in row {row}")
            elif ran != self.epochs or stopped:
                problems.append(f"ablate: row trained {ran} epochs, cap {self.epochs}")
        return problems

    def digest(self, out) -> bytes:
        return repr(out).encode()

    def _golden_rows(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), GOLDEN_SEED)
        return self._run(samples, 3, GOLDEN_SEED)[1]

    def golden(self):
        want = (REFERENCE_DIR / "ablate.csv").read_text().splitlines()[1:]
        rows, _ = self._golden_rows()
        problems = []
        for got, expect in zip(rows, want):
            g, e = got.split(","), expect.split(",")
            if g[:4] != e[:4] or not all(
                _close(float(a), float(b), ABLATE_RTOL) for a, b in zip(g[4:], e[4:])
            ):
                problems.append(f"ablate: golden row {got} differs from {expect}")
        if len(rows) != len(want):
            problems.append("ablate: golden table has the wrong number of rows")
        return len(want), problems


# -- stream --------------------------------------------------------------------

# Five cameras with distinct clock offsets, 20 ms timestamp jitter on a 33 ms
# frame period and 5% link drops: calibration, duplicates, late drops and
# partial windows all occur.  The feedback threshold sits inside the range of
# window confidences, so feedback.csv carries messages.
CAMERA_CONFIG = "".join(
    f"id={cid} period_us=33333 offset_us={offset} jitter_us=20000 drop_prob=0.05\n"
    for cid, offset in ((1, 1500), (2, -2500), (3, 4000), (4, 750), (5, -1200))
)


def _report_counts(report: str) -> dict[str, float]:
    """Totals of the counts section plus window statistics of a report.csv."""
    section = None
    totals = dict.fromkeys(
        ("produced", "delivered", "dropped_link", "dropped_late", "duplicates"), 0
    )
    completeness = []
    conserved = True
    for line in report.splitlines():
        if line.startswith("# section="):
            section = line.split("=", 1)[1]
            continue
        if line.startswith("#") or line.startswith(("camera_id,", "metric,", "window_index,")):
            continue
        fields = line.split(",")
        if section == "counts" and fields[0] == "all":
            totals["dropped_late"] = int(fields[4])
            totals["duplicates"] = int(fields[5])
        elif section == "counts":
            produced, delivered, dropped = (int(v) for v in fields[1:4])
            conserved &= produced == delivered + dropped
            totals["produced"] += produced
            totals["delivered"] += delivered
            totals["dropped_link"] += dropped
        elif section == "windows":
            completeness.append(float(fields[1]))
    totals["windows"] = len(completeness)
    totals["completeness_mean"] = sum(completeness) / max(len(completeness), 1)
    totals["conserved"] = conserved
    return totals


class Stream(Workload):
    """The simulate subcommand in deterministic mode, run through cli.dispatch."""

    name = "stream"
    DURATION = "1s"

    def setup(self) -> None:
        self.config_path = self.workdir / "cameras.txt"
        self.config_path.write_text(CAMERA_CONFIG)
        self._run(self.seed + 2**31)

    def inputs(self):
        return _seed_stream(self.seed, self.name)

    def _run(self, seed: int):
        out_dir = self.workdir / "simulate"
        argv = [
            "simulate", "--seed", str(seed), "--camera-config", str(self.config_path),
            "--duration", self.DURATION, "--threshold", "0.35", "--out", str(out_dir),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.dispatch(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            return seconds, (code, "", "")
        report = (out_dir / "report.csv").read_text()
        feedback = (out_dir / "feedback.csv").read_text()
        return seconds, (code, report, feedback)

    def call(self, call_seed):
        return self._run(call_seed)

    def check(self, inp, out) -> list[str]:
        code, report, _ = out
        if code != 0:
            return [f"stream: simulate exited with {code}"]
        counts = _report_counts(report)
        if not counts["conserved"]:
            return ["stream: packet conservation violated"]
        if counts["windows"] == 0 or counts["delivered"] == 0:
            return ["stream: no windows or no packets delivered"]
        return []

    def items(self, out) -> float:
        return _report_counts(out[1])["delivered"] if out[0] == 0 else 0

    def digest(self, out) -> bytes:
        return repr(out).encode()

    def golden(self):
        _, (code, report, feedback) = self._run(GOLDEN_SEED)
        same = (
            code == 0
            and report == (REFERENCE_DIR / "stream_report.csv").read_text()
            and feedback == (REFERENCE_DIR / "stream_feedback.csv").read_text()
        )
        return 1, [] if same else ["stream: golden report.csv/feedback.csv bytes differ"]

    def layer_metrics(self, outs):
        runs = [_report_counts(out[1]) for out in outs if out[0] == 0]
        if not runs:
            return {}
        mean = {k: sum(r[k] for r in runs) / len(runs) for k in runs[0]}
        out = {
            f"stream.{k}": (mean[k], "count")
            for k in ("produced", "delivered", "dropped_link", "dropped_late", "duplicates", "windows")
        }
        out["stream.delivered_ratio"] = (mean["delivered"] / mean["produced"], "ratio")
        out["stream.completeness_mean"] = (mean["completeness_mean"], "ratio")
        return out


WORKLOADS = {w.name: w for w in (Infer, Ablate, Stream)}

# Per-layer metrics that workloads read from outputs (zero where a workload
# has no such output).
OUTPUT_METRICS = (
    ("training.epochs", "count"),
    ("stream.produced", "count"),
    ("stream.delivered", "count"),
    ("stream.dropped_link", "count"),
    ("stream.dropped_late", "count"),
    ("stream.duplicates", "count"),
    ("stream.windows", "count"),
    ("stream.delivered_ratio", "ratio"),
    ("stream.completeness_mean", "ratio"),
)
