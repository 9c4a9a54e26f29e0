"""Stage-ablation harness: retrain the heads per configuration and compare.

Each row rebuilds the pipeline with one stage replaced by its pass-through
adapter, retrains the heads on the split's training side (head input sizes
change with the toggles), and evaluates accuracy and MPJPE on the held-out
side.  The full configuration is always the first row.

Every row's model has the same seed, so the same frozen weights, and sees
the same clips, augmentation and dropout seeds.  The rows therefore run in
one ``shared_frozen_stages()`` block: the detector runs once per stack for
the three rows that keep it, and I3D once per crop stack for the full and
no-timesformer rows, whose crops are the same.  Each row's numbers are
bitwise those of a row run on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import SplitPlan
from .pipeline import PipelineConfig, PipelineModel, evaluate_pipeline, shared_frozen_stages
from .training import Hyperparams, train_toy

TABLE_ROWS = (
    PipelineConfig(),
    PipelineConfig(detection=False),
    PipelineConfig(spatiotemporal=False),
    PipelineConfig(temporal=False),
)

ABLATION_CSV_HEADER = "configuration,detection,i3d,timesformer,accuracy,mpjpe,pa_mpjpe"


@dataclass
class AblationRow:
    toggles: PipelineConfig
    accuracy: float
    mpjpe: float
    pa_mpjpe: float

    def csv_row(self) -> str:
        t = self.toggles
        return (
            f"{t.tag()},{int(t.detection)},{int(t.spatiotemporal)},{int(t.temporal)},"
            f"{self.accuracy!r},{self.mpjpe!r},{self.pa_mpjpe!r}"
        )


def split_samples(samples, plan: SplitPlan):
    key = (lambda s: s.subject_id) if plan.axis == "subject" else (lambda s: s.view_id)
    train = [s for s in samples if key(s) in plan.train_ids]
    test = [s for s in samples if key(s) in plan.test_ids]
    return train, test


def run_ablation(
    samples, plan: SplitPlan, base_config: PipelineConfig, hp: Hyperparams
) -> list[AblationRow]:
    """One row per ``TABLE_ROWS`` configuration, in that order.

    The rows are whole configs: a config holds only the stage toggles, so
    ``base_config`` has nothing the rows keep.
    """
    train, test = split_samples(samples, plan)
    out = []
    with shared_frozen_stages():
        for config in TABLE_ROWS:
            model = PipelineModel(config, seed=hp.seed)
            train_toy(model, train, hp)
            metrics = evaluate_pipeline(model, test)
            out.append(
                AblationRow(
                    toggles=config,
                    accuracy=metrics["accuracy"],
                    mpjpe=metrics["mpjpe"],
                    pa_mpjpe=metrics["pa_mpjpe"],
                )
            )
    return out
