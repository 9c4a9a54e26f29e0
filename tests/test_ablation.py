import pytest

from eitnet.ablation import ABLATION_CSV_HEADER, TABLE_ROWS, run_ablation, split_samples
from eitnet.metrics import make_split
from eitnet.pipeline import PipelineConfig, StageToggles
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
        assert TABLE_ROWS[0] == StageToggles()
        assert TABLE_ROWS[1] == StageToggles(detection=False)
        assert TABLE_ROWS[2] == StageToggles(spatiotemporal=False)
        assert TABLE_ROWS[3] == StageToggles(temporal=False)

    def test_split_samples_partition(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=17)
        plan = make_split("view", 17)
        train, test = split_samples(samples, plan)
        assert len(train) + len(test) == len(samples)
        assert {s.view_id for s in train} == set(plan.train_ids)
        assert {s.view_id for s in test} == set(plan.test_ids)
