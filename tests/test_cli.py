import filecmp
from pathlib import Path

import pytest

from eitnet.cli import ConfigError, dispatch, parse_duration_us, parse_toggles
from eitnet.detection import Detector
from eitnet.fileio import load_dataset, read_csv_rows


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    assert dispatch(["gen-data", "--seed", "7", "--out", str(path), "--repetitions", "1"]) == 0
    return path


def run_twice(tmp_path, argv_builder):
    """Run a subcommand into two fresh dirs and compare every output file."""
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert dispatch(argv_builder(str(out))) == 0
        dirs.append(out)
    files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert filecmp.cmp(dirs[0] / rel, dirs[1] / rel, shallow=False), rel
    return dirs[0]


class TestParsing:
    def test_duration_units(self):
        assert parse_duration_us("2s") == 2_000_000
        assert parse_duration_us("250ms") == 250_000
        assert parse_duration_us("33333us") == 33333
        assert parse_duration_us("1000") == 1000

    def test_toggles(self):
        t = parse_toggles("det,i3d,tsf")
        assert t.detection and t.spatiotemporal and t.temporal
        t = parse_toggles("i3d")
        assert not t.detection and t.spatiotemporal and not t.temporal
        with pytest.raises(ConfigError, match="unknown"):
            parse_toggles("det,bogus")
        with pytest.raises(ConfigError):
            parse_toggles("")


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_dataset_is_config_error(self, tmp_path, capsys):
        code = dispatch(
            ["eval", "--seed", "1", "--axis", "subject", "--dataset", str(tmp_path / "nope"),
             "--out", str(tmp_path / "out")]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_camera_count(self, tmp_path, capsys):
        code = dispatch(
            ["simulate", "--seed", "1", "--cameras", "0", "--out", str(tmp_path / "out")]
        )
        assert code == 3


class TestGenData:
    def test_dataset_roundtrip(self, dataset_dir):
        samples = load_dataset(dataset_dir)
        assert len(samples) == 200
        comments, rows = read_csv_rows(dataset_dir / "manifest.csv")
        assert comments[0] == "seed=7"
        assert rows[0] == "sample_id,subject_id,view_id,label,clip_path,pose_path".split(",")
        assert len(rows) == 201

    def test_deterministic(self, tmp_path):
        run_twice(
            tmp_path,
            lambda out: ["gen-data", "--seed", "3", "--out", out, "--repetitions", "1"],
        )


class TestRunPipeline:
    def test_outputs_and_determinism(self, dataset_dir, tmp_path):
        out = run_twice(
            tmp_path,
            lambda o: ["run-pipeline", "--seed", "7", "--dataset", str(dataset_dir), "--out", o],
        )
        comments, rows = read_csv_rows(out / "classifications.csv")
        assert rows[0] == ["clip_id", "class_id", "probability"]
        assert len(rows) == 1 + 200 * 4
        _, det_rows = read_csv_rows(out / "detections.csv")
        assert det_rows[0] == "frame_id,camera_id,class_id,score,cx,cy,w,h".split(",")
        assert len(det_rows) == 1 + 200 * 8
        assert (out / "features" / "sample_0000.bin").exists()

    def test_detector_runs_once_per_clip(self, dataset_dir, tmp_path, monkeypatch):
        calls = []
        best_box = Detector.best_box

        def counted(self, clip):
            calls.append(clip.shape)
            return best_box(self, clip)

        monkeypatch.setattr(Detector, "best_box", counted)
        argv = ["run-pipeline", "--seed", "7", "--dataset", str(dataset_dir)]
        assert dispatch(argv + ["--out", str(tmp_path)]) == 0
        assert calls == [(1, 8, 16, 16)] * 200  # one whole-clip call per clip


class TestEval:
    def test_metrics_csv_and_split_sizes(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        code = dispatch(
            ["eval", "--seed", "7", "--axis", "subject", "--dataset", str(dataset_dir),
             "--out", str(out), "--epochs", "2"]
        )
        assert code == 0
        comments, rows = read_csv_rows(out / "metrics.csv")
        assert any("train=6 test=4" in c for c in comments)
        assert rows[0] == "split_axis,seed,accuracy,mpjpe,pa_mpjpe".split(",")
        axis, seed, acc, mpjpe_v, pa = rows[1]
        assert axis == "subject" and seed == "7"
        assert 0.0 <= float(acc) <= 100.0
        assert float(pa) <= float(mpjpe_v) + 1e-9

    def test_view_axis_sizes(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        assert dispatch(
            ["eval", "--seed", "2", "--axis", "view", "--dataset", str(dataset_dir),
             "--out", str(out), "--epochs", "2"]
        ) == 0
        comments, _ = read_csv_rows(out / "metrics.csv")
        assert any("train=3 test=2" in c for c in comments)


class TestSimulate:
    def test_report_files_and_determinism(self, tmp_path):
        out = run_twice(
            tmp_path,
            lambda o: ["simulate", "--cameras", "5", "--duration", "100ms", "--seed", "1",
                       "--out", o],
        )
        text = (out / "report.csv").read_text()
        assert text.startswith("# seed=1\n")
        assert "# section=counts" in text and "# section=windows" in text
        assert text.endswith("\n")
        _, rows = read_csv_rows(out / "feedback.csv")
        assert rows[0] == "window_index,label,confidence,latency_us".split(",")

    def test_camera_config_file(self, tmp_path):
        config = tmp_path / "cams.txt"
        config.write_text("id=1 period_us=10000\nid=2 period_us=10000 offset_us=500\n")
        out = tmp_path / "out"
        assert dispatch(
            ["simulate", "--seed", "4", "--camera-config", str(config), "--duration", "50ms",
             "--out", str(out)]
        ) == 0
        assert (out / "report.csv").exists()


class TestGradcheckAndComplexity:
    def test_gradcheck_reports_small_errors(self, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["gradcheck", "--seed", "5", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "gradcheck.csv")
        assert rows[0] == ["layer", "max_rel_error", "h"]
        for layer, err, h in rows[1:]:
            assert float(err) <= 1e-4

    def test_complexity_values(self, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["complexity", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "complexity.csv")
        table = {r[0]: (int(r[1]), int(r[2])) for r in rows[1:]}
        assert table["linear_4x2"] == (10, 8)
        assert table["conv3d_1to1_k3_on_4cube"] == (28, 216)
        assert table["pipeline"][0] > 0
