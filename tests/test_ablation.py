import pytest

from eitnet import ACTION_LABELS, ablation, pipeline
from eitnet.ablation import (
    ABLATION_CSV_HEADER,
    TABLE_ROWS,
    AblationRow,
    run_ablation,
    split_samples,
)
from eitnet.detection import Detector
from eitnet.i3d import I3DStack
from eitnet.metrics import make_split
from eitnet.pipeline import PipelineConfig, PipelineModel, evaluate_pipeline
from eitnet.synthetic import DatasetConfig, generate_synthetic_dataset
from eitnet.training import Hyperparams


@pytest.fixture(scope="module")
def table():
    samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=17)
    plan = make_split("subject", 17)
    hp = Hyperparams(seed=17, epochs=3)
    return run_ablation(samples, plan, PipelineConfig(), hp)


class TestRunAblation:
    def test_four_rows_full_first(self, table):
        assert len(table) == 4
        assert table[0].toggles.tag() == "full"
        tags = [row.toggles.tag() for row in table]
        assert tags == ["full", "no-detection", "no-i3d", "no-timesformer"]

    def test_metrics_ranges(self, table):
        for row in table:
            assert 0.0 <= row.accuracy <= 100.0
            assert row.mpjpe > 0.0
            assert row.pa_mpjpe <= row.mpjpe + 1e-9

    def test_csv_schema(self, table):
        assert ABLATION_CSV_HEADER.split(",")[0] == "configuration"
        first = table[0].csv_row().split(",")
        assert first[0] == "full" and first[1:4] == ["1", "1", "1"]

    def test_rows_config_matches_table5_design(self):
        assert TABLE_ROWS[0] == PipelineConfig()
        assert TABLE_ROWS[1] == PipelineConfig(detection=False)
        assert TABLE_ROWS[2] == PipelineConfig(spatiotemporal=False)
        assert TABLE_ROWS[3] == PipelineConfig(temporal=False)

    def test_split_samples_partition(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=17)
        plan = make_split("view", 17)
        train, test = split_samples(samples, plan)
        assert len(train) + len(test) == len(samples)
        assert {s.view_id for s in train} == set(plan.train_ids)
        assert {s.view_id for s in test} == set(plan.test_ids)


class TestSharedFrozenStages:
    """The rows share detector and I3D work, and each row keeps its own numbers."""

    @pytest.fixture(scope="class")
    def runs(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=17)
        subset = [s for s in samples if s.view_id == 3 and s.label in ACTION_LABELS[:2]]
        plan = make_split("subject", 17)
        hp = Hyperparams(seed=17, epochs=2)
        with pytest.MonkeyPatch.context() as mp:
            calls = {"detector": [], "i3d": []}
            row = [None]
            best_box, forward = Detector.best_box, I3DStack.forward
            train_toy = ablation.train_toy

            def counted_best_box(self, stack):
                calls["detector"].append((row[0], pipeline._digest(stack)))
                return best_box(self, stack)

            def counted_forward(self, clips, *args):
                calls["i3d"].append(row[0])
                return forward(self, clips, *args)

            memos = []

            def probe(model, train, hp):
                row[0] = model.config.tag()
                memos.append(pipeline._SHARED.get())
                return train_toy(model, train, hp)

            mp.setattr(Detector, "best_box", counted_best_box)
            mp.setattr(I3DStack, "forward", counted_forward)
            mp.setattr(ablation, "train_toy", probe)

            train, test = split_samples(subset, plan)
            reference = []
            for config in TABLE_ROWS:  # the rows one by one, nothing shared
                model = PipelineModel(config, seed=hp.seed)
                ablation.train_toy(model, train, hp)
                metrics = evaluate_pipeline(model, test)
                reference.append(AblationRow(config, **metrics).csv_row())
            alone = {k: list(v) for k, v in calls.items()}
            for v in calls.values():
                v.clear()
            rows = [r.csv_row() for r in run_ablation(subset, plan, PipelineConfig(), hp)]
        return reference, alone, rows, calls, memos

    def test_rows_equal_unshared_rows_bytewise(self, runs):
        reference, _, rows, _, _ = runs
        assert rows == reference

    def test_detector_runs_once_per_distinct_stack(self, runs):
        _, alone, _, shared, _ = runs
        distinct = {digest for _, digest in alone["detector"]}
        assert len(alone["detector"]) == 3 * len(distinct)  # full, no-i3d, no-timesformer
        assert sorted(d for _, d in shared["detector"]) == sorted(distinct)
        assert {tag for tag, _ in shared["detector"]} == {"full"}

    def test_i3d_runs_once_for_full_and_no_timesformer(self, runs):
        _, alone, _, shared, _ = runs
        per_row = alone["i3d"].count("full")
        assert alone["i3d"].count("no-timesformer") == alone["i3d"].count("no-detection") == per_row
        assert shared["i3d"] == ["full"] * per_row + ["no-detection"] * per_row

    def test_memo_holds_only_read_only_boxes_and_features(self, runs):
        *_, memos = runs
        assert memos[:4] == [None] * 4  # the unshared reference loop
        memo = memos[4]
        assert all(m is memo for m in memos[4:]) and len(memo) > 0
        frames, width = PipelineConfig().frames, PipelineConfig().i3d_widths[-1]
        for value in memo.values():
            assert not value.flags.writeable
            assert len(value) <= pipeline.STACK_CLIPS
            assert value.shape[1:] in ((frames, 5), (width,))
        assert pipeline._SHARED.get() is None
