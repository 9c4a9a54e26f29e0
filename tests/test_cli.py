import filecmp
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import eitnet
from eitnet import fileio, training
from eitnet.cli import ConfigError, build_parser, dispatch, parse_duration_us, parse_toggles
from eitnet.detection import Detector
from eitnet.fileio import load_dataset
from eitnet.metrics import make_split
from eitnet.pipeline import PipelineConfig, PipelineModel
from eitnet.synthetic import DatasetConfig, generate_synthetic_dataset
from eitnet.tensorops import load_tensor, save_tensor

from textio import read_csv_rows


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    assert dispatch(["gen-data", "--seed", "7", "--out", str(path), "--repetitions", "1"]) == 0
    return path


def assert_same_files(dir_a: Path, dir_b: Path) -> None:
    files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert filecmp.cmp(dir_a / rel, dir_b / rel, shallow=False), rel


def run_deterministic(tmp_path, argv_builder):
    """Run a subcommand into two fresh dirs, then rerun it into the first; all outputs match."""
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        assert dispatch(argv_builder(str(out))) == 0
    assert_same_files(first, second)
    assert dispatch(argv_builder(str(first))) == 0  # a rerun into the same --out
    assert_same_files(first, second)
    return first


class TestParsing:
    def test_duration_units(self):
        assert parse_duration_us("2s") == 2_000_000
        assert parse_duration_us("250ms") == 250_000
        assert parse_duration_us("33333us") == 33333
        assert parse_duration_us("1000") == 1000
        # read exactly, never rounded through a float
        assert parse_duration_us("9007199254740993us") == 2**53 + 1
        assert parse_duration_us("9007199254740993") == 2**53 + 1
        assert parse_duration_us("1e3us") == parse_duration_us("1_000us") == 1000
        assert parse_duration_us("1.5ms") == 1500
        assert parse_duration_us("1e-6s") == 1

    @pytest.mark.parametrize("text", ["1.5us", "1.5", "1e-7s", "0.0001ms"])
    def test_fraction_of_a_microsecond_is_config_error(self, text):
        message = f"^duration '{re.escape(text)}' is not a whole number of microseconds$"
        with pytest.raises(ConfigError, match=message):
            parse_duration_us(text)

    def test_toggles(self):
        t = parse_toggles("det,i3d,tsf")
        assert t.detection and t.spatiotemporal and t.temporal and t == PipelineConfig()
        t = parse_toggles("i3d")
        assert not t.detection and t.spatiotemporal and not t.temporal
        with pytest.raises(ConfigError, match="unknown"):
            parse_toggles("det,bogus")
        with pytest.raises(ConfigError):
            parse_toggles("")


    def test_parser_built_once_and_reused_by_dispatch(self, tmp_path):
        assert build_parser() is build_parser()

        def pipeline_row(name, *toggles):
            assert dispatch(["complexity", *toggles, "--out", str(tmp_path / name)]) == 0
            _, rows = read_csv_rows(tmp_path / name / "complexity.csv")
            return rows[1]

        full = pipeline_row("a")
        assert dispatch(
            ["simulate", "--seed", "1", "--duration", "100ms", "--out", str(tmp_path / "sim")]
        ) == 0
        assert pipeline_row("b", "--toggles", "i3d") != full
        assert pipeline_row("c") == full  # no option leaks from one dispatch into the next

    @pytest.mark.parametrize(
        "command, epochs, toggles", [("train", 50, True), ("eval", 50, True), ("ablate", 8, False)]
    )
    def test_training_options_and_defaults(self, command, epochs, toggles):
        args = vars(build_parser().parse_args([command, "--seed", "1"]))
        del args["func"]
        want = {"command": command, "seed": 1, "out": None, "dataset": None,
                "axis": "subject", "lr": 1e-3, "epochs": epochs}
        assert args == (want | {"toggles": "det,i3d,tsf"} if toggles else want)
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--seed", "1", "--axis", "camera"])


CLIP_ROWS = "{root}/clips.bin: rows must have shape (1, 8, 16, 16), got shape "


class TestExitCodes:
    @staticmethod
    def python_m_version(module):
        src = Path(eitnet.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, f"{eitnet.__version__}\n"), done.stderr

    def test_python_m_eitnet_runs_the_cli(self):
        self.python_m_version("eitnet")

    def test_python_m_eitnet_cli_runs_the_cli(self):
        self.python_m_version("eitnet.cli")

    def test_diverging_run_prints_one_error_line(self, dataset_dir, tmp_path):
        """numpy's overflow warnings stay quiet even when shown: stderr is the error alone."""
        src = Path(eitnet.__file__).resolve().parents[1]
        argv = ["train", "--seed", "1", "--epochs", "1", "--lr", "1e308",
                "--dataset", str(dataset_dir), "--out", str(tmp_path / "out")]
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "eitnet", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 1
        assert done.stderr == "error: non-finite loss nan at epoch 1 (ce=nan, pose=nan)\n"
        assert not (tmp_path / "out" / "weights").exists()

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

    @pytest.mark.parametrize("command", ["run-pipeline", "train", "eval", "ablate"])
    def test_empty_dataset_is_config_error(self, command, dataset_dir, tmp_path, capsys):
        empty = tmp_path / "empty"
        shutil.copytree(dataset_dir, empty)
        manifest = (dataset_dir / "manifest.csv").read_text().splitlines()
        (empty / "manifest.csv").write_text("\n".join(manifest[:2]) + "\n")  # seed and header
        out = tmp_path / "out"
        assert dispatch([command, "--seed", "7", "--dataset", str(empty), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: dataset at {empty} has no samples\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,1", "expected 4 fields, got 3"),
            ("1,1,1,pass,clips/sample_0001.bin,poses/sample_0001.bin", "expected 4 fields, got 6"),
            ("1,1,1,dunk", "label must be one of"),
            ("1,11,1,pass", "subject_id must be 1..10"),
            ("1,1,6,pass", "subject_id must be 1..10 and view_id 1..5"),
            ("200,1,1,pass", "sample_id must be 0..199, got '200'"),
            ("-1,1,1,pass", "sample_id must be 0..199, got '-1'"),
            ("1.0,1,1,pass", r"sample_id must be 0..199, got '1\.0'"),
            (",1,1,pass", "sample_id must be 0..199, got ''"),
            ("0,1,1,pass", "sample_id 0 repeats line 3"),
        ],
        ids=["short-row", "path-columns", "unknown-label", "subject-11", "view-6",
             "sample-id-past-the-end", "negative-sample-id", "fractional-sample-id",
             "empty-sample-id", "repeated-sample-id"],
    )
    def test_bad_manifest_row_is_config_error_naming_the_line(
        self, row, message, dataset_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        manifest = (dataset_dir / "manifest.csv").read_text().splitlines()
        (broken / "manifest.csv").write_text("\n".join(manifest[:3] + [row]) + "\n")
        out = tmp_path / "out"
        argv = ["run-pipeline", "--seed", "7", "--dataset", str(broken), "--out", str(out)]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            re.escape(f"error: {broken / 'manifest.csv'} line 4: ") + message + ".*\n", err
        ), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, contents, message",
        [
            ("manifest.csv", None, "cannot read {root}/manifest.csv: No such file or directory"),
            ("clips.bin", None, "cannot read {root}/clips.bin: No such file or directory"),
            ("joints.bin", None, "cannot read {root}/joints.bin: No such file or directory"),
            ("clips.bin", lambda clips, joints, blob: b"EITT",
             "{root}/clips.bin: tensor file of 4 bytes ends inside its header"),
            ("clips.bin", lambda clips, joints, blob: b"EITT\x05\x01\x00",
             "{root}/clips.bin: tensor file of 7 bytes ends inside its header"),
            ("clips.bin", lambda clips, joints, blob: blob[:-8] + struct.pack("<d", float("nan")),
             "{root}/clips.bin: tensor values must be finite"),
            ("clips.bin", lambda clips, joints, blob: np.zeros(8),
             CLIP_ROWS + "(8,)"),
            ("clips.bin", lambda clips, joints, blob: clips[0],
             CLIP_ROWS + "(1, 8, 16, 16)"),
            ("clips.bin", lambda clips, joints, blob: clips[:, :, :4],
             CLIP_ROWS + "(200, 1, 4, 16, 16)"),
            ("clips.bin", lambda clips, joints, blob: clips[..., ::2, ::2],
             CLIP_ROWS + "(200, 1, 8, 8, 8)"),
            ("joints.bin", lambda clips, joints, blob: joints[:, :, :4],
             "{root}/joints.bin: rows must have shape (8, 5, 3), got shape (200, 8, 4, 3)"),
            ("joints.bin", lambda clips, joints, blob: joints[:-1],
             "{root}/clips.bin has 200 rows but joints.bin has 199"),
            ("clips.bin", lambda clips, joints, blob: clips[:-1],
             "{root}/clips.bin has 199 rows but joints.bin has 200"),
        ],
        ids=["missing-manifest", "missing-clips", "missing-joints", "magic-only-clips",
             "short-header-clips", "nan-clips", "rank-1-clips", "one-clip-without-rows",
             "four-frame-clips", "8x8-clips", "four-joint-joints", "fewer-joint-rows",
             "fewer-clip-rows"],
    )
    def test_bad_dataset_file_is_config_error_naming_the_file(
        self, name, contents, message, dataset_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(dataset_dir, broken)
        if contents is None:
            (broken / name).unlink()
        else:
            arrays = (load_tensor(dataset_dir / f) for f in ("clips.bin", "joints.bin"))
            new = contents(*arrays, (dataset_dir / name).read_bytes())
            if isinstance(new, bytes):
                (broken / name).write_bytes(new)
            else:
                save_tensor(broken / name, new)
        out = tmp_path / "out"
        argv = ["run-pipeline", "--seed", "7", "--dataset", str(broken), "--out", str(out)]
        assert dispatch(argv) == 3
        assert capsys.readouterr().err == f"error: {message.format(root=broken)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, kept, side",
        [
            ("train", "test", "train"),
            ("eval", "test", "train"),
            ("ablate", "test", "train"),
            ("train", "one-train", "train"),
            ("eval", "train", "test"),
            ("ablate", "train", "test"),
        ],
    )
    def test_split_with_a_short_side_is_config_error(
        self, command, kept, side, dataset_dir, tmp_path, capsys
    ):
        plan = make_split("subject", 7)
        kept_ids = plan.test_ids if kept == "test" else plan.train_ids
        header, *rows = (dataset_dir / "manifest.csv").read_text().splitlines()[1:]
        rows = [r.split(",") for r in rows if int(r.split(",")[1]) in kept_ids]
        rows = rows[:1] if kept == "one-train" else rows
        part = tmp_path / "part"
        part.mkdir()
        for name in ("clips.bin", "joints.bin"):
            shutil.copy(dataset_dir / name, part)
        (part / "manifest.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")
        out = tmp_path / "out"
        assert dispatch([command, "--seed", "7", "--dataset", str(part), "--out", str(out)]) == 3
        got = len(rows) if side in kept else 0  # "train" is in "one-train"
        need = 2 if side == "train" else 1
        present = {int(r[1]) for r in rows}
        missing = [i for i in getattr(plan, f"{side}_ids") if i not in present]
        assert capsys.readouterr().err == (
            f"error: the subject split has {got} {side} samples, need at least {need}; "
            f"the dataset has none for {side} subject ids {missing}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize(
        "command",
        ["gen-data", "run-pipeline", "train", "eval", "ablate", "simulate", "gradcheck",
         "complexity"],
    )
    def test_out_that_cannot_be_a_directory_is_config_error(
        self, command, under, dataset_dir, tmp_path, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "out" if under else blocker
        argv = [command, "--out", str(out)]
        argv += [] if command == "complexity" else ["--seed", "7"]
        if command in ("run-pipeline", "train", "eval", "ablate"):
            argv += ["--dataset", str(dataset_dir)]
        assert dispatch(argv) == 3
        reason = "Not a directory" if under else "File exists"
        assert capsys.readouterr().err == f"error: cannot create output directory {out}: {reason}\n"
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command, subdir", [("train", "weights")])
    def test_out_subdirectory_that_is_a_file_is_config_error(
        self, command, subdir, dataset_dir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / subdir).write_text("kept")
        argv = [command, "--seed", "7", "--dataset", str(dataset_dir), "--out", str(out)]
        assert dispatch(argv + ["--epochs", "1"]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot create output directory {out / subdir}: File exists\n"
        )
        assert [p.name for p in out.iterdir()] == [subdir]  # no CSV was written
        assert (out / subdir).read_text() == "kept"

    def test_bad_camera_count(self, tmp_path, capsys):
        code = dispatch(
            ["simulate", "--seed", "1", "--cameras", "0", "--out", str(tmp_path / "out")]
        )
        assert code == 3

    def test_camera_config_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["simulate", "--seed", "1", "--camera-config", str(tmp_path), "--out", str(out)]
        assert dispatch(argv) == 3
        assert capsys.readouterr().err == (
            f"error: cannot read camera config {tmp_path}: Is a directory\n"
        )
        assert not out.exists()

    def test_camera_config_key_typo_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cameras.txt"
        config.write_text("id=1 period_us=33333 jiter_us=20000\n")
        out = tmp_path / "out"
        argv = ["simulate", "--seed", "1", "--camera-config", str(config), "--out", str(out)]
        assert dispatch(argv) == 3
        assert capsys.readouterr().err == (
            "error: line 1: unknown key 'jiter_us'; "
            "valid keys: id, period_us, offset_us, jitter_us, drop_prob\n"
        )
        assert not out.exists()


INVALID_CONFIG_ARGV = [
    ["simulate", "--duration", "abc"],
    ["simulate", "--duration", "0s"],
    ["simulate", "--period-us", "0"],
    ["simulate", "--drop-prob", "1.5"],
    ["simulate", "--jitter-us", "-1"],
    ["simulate", "--jitter-us", "nan"],
    ["simulate", "--jitter-us", "inf"],
    ["simulate", "--window-period-us", "-5"],
    ["simulate", "--window-period-us", "0"],
    ["simulate", "--camera-config", "{cameras}"],
    ["simulate", "--offset-us", "10000000000000000000", "--cameras", "2"],
    ["simulate", "--period-us", "1", "--duration", "4295s"],
    ["gen-data", "--repetitions", "0"],
    ["train", "--dataset", "{dataset}", "--epochs", "0"],
    ["train", "--dataset", "{dataset}", "--lr", "-1"],
    ["eval", "--dataset", "{dataset}", "--lr", "nan"],
    ["ablate", "--dataset", "{dataset}", "--epochs", "0"],
    ["run-pipeline", "--dataset", "{dataset}", "--lambda", "-1"],
    ["run-pipeline", "--dataset", "{dataset}", "--lambda", "inf"],
    ["simulate", "--threshold", "1.5"],
    ["simulate", "--threshold", "nan"],
    ["simulate", "--threshold", "-1"],
    ["run-pipeline", "--dataset", "{dataset}", "--toggles", "bogus"],
    ["train", "--dataset", "{dataset}", "--toggles", "bogus"],
    ["eval", "--dataset", "{dataset}", "--toggles", "bogus"],
    ["complexity", "--toggles", "bogus"],
]


@pytest.mark.parametrize("argv", INVALID_CONFIG_ARGV, ids=" ".join)
def test_invalid_option_exits_3_before_any_output(argv, dataset_dir, tmp_path, capsys):
    cameras = tmp_path / "cameras.txt"
    cameras.write_text("id=1 period_us=0\n")
    argv = [a.format(dataset=dataset_dir, cameras=cameras) for a in argv]
    out = tmp_path / "out"
    seed = [] if argv[0] == "complexity" else ["--seed", "7"]  # complexity has no --seed
    assert dispatch(argv + seed + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


class TestGenData:
    def test_dataset_roundtrip(self, dataset_dir):
        samples = load_dataset(dataset_dir)
        assert len(samples) == 200
        assert sorted(p.name for p in dataset_dir.iterdir()) == [
            "clips.bin", "joints.bin", "manifest.csv"
        ]
        assert load_tensor(dataset_dir / "clips.bin").shape == (200, 1, 8, 16, 16)
        assert load_tensor(dataset_dir / "joints.bin").shape == (200, 8, 5, 3)
        comments, rows = read_csv_rows(dataset_dir / "manifest.csv")
        assert comments[0] == "seed=7"
        assert rows[0] == "sample_id,subject_id,view_id,label".split(",")
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(200)]

    def test_loaded_samples_equal_the_generated_ones(self, dataset_dir):
        def record(s):
            poses = [p.joints.tobytes() for p in s.poses]
            return s.subject_id, s.view_id, s.label, s.clip.shape, s.clip.tobytes(), poses

        generated = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)
        loaded = load_dataset(dataset_dir)
        assert [record(s) for s in loaded] == [record(s) for s in generated]
        for s in loaded:
            assert s.joints.shape == (8, 5, 3) and not s.joints.flags.writeable
            assert not s.clip.flags.writeable
            assert all(np.shares_memory(p.joints, s.joints) for p in s.poses)  # no copy
        # every clip is a row of one array, and every joint stack a row of another
        assert all(s.clip.base is loaded[0].clip.base for s in loaded)
        assert all(s.joints.base is loaded[0].joints.base for s in loaded)
        assert not np.shares_memory(loaded[0].clip, loaded[0].joints)

    def test_out_of_order_subset_manifest_loads_those_rows(self, dataset_dir, tmp_path):
        subset = tmp_path / "subset"
        shutil.copytree(dataset_dir, subset)
        lines = (dataset_dir / "manifest.csv").read_text().splitlines()
        (subset / "manifest.csv").write_text(
            "\n".join(lines[:2] + [lines[2 + i] for i in (5, 2, 9)]) + "\n"
        )
        generated = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)
        loaded = load_dataset(subset)
        assert len(loaded) == 3
        for got, row in zip(loaded, (5, 2, 9)):
            want = generated[row]
            assert (got.subject_id, got.view_id, got.label) == (
                want.subject_id, want.view_id, want.label
            )
            assert got.clip.tobytes() == want.clip.tobytes()
            assert got.joints.tobytes() == want.joints.tobytes()
        assert len({s.label for s in loaded}) > 1  # each row keeps its own label
        assert not loaded.clips.flags.writeable and not loaded.labels.flags.writeable

    def test_in_order_manifest_loads_without_a_copy(self, dataset_dir, monkeypatch):
        read = []

        def spy(path):
            read.append(load_tensor(path))
            return read[-1]

        monkeypatch.setattr(fileio, "load_tensor", spy)
        loaded = load_dataset(dataset_dir)
        clips, joints = read
        assert np.shares_memory(loaded.clips, clips) and loaded.clips.shape == clips.shape
        assert np.shares_memory(loaded.joints, joints) and loaded.joints.shape == joints.shape

    @pytest.mark.parametrize("old", [["clips"], ["poses"], ["clips", "poses"]], ids="+".join)
    def test_gen_data_over_the_older_layout_exits_3(self, old, tmp_path, capsys):
        out = tmp_path / "out"
        for name in old:
            (out / name).mkdir(parents=True)
            (out / name / "sample_0000.bin").write_bytes(b"EITT")
        argv = ["gen-data", "--seed", "7", "--repetitions", "1", "--out", str(out)]
        assert dispatch(argv) == 3
        named = ", ".join(str(out / name) for name in old)
        assert capsys.readouterr().err == (
            f"error: older dataset layout at {named}; remove it first\n"
        )
        assert sorted(p.name for p in out.iterdir()) == old
        assert all(os.listdir(out / name) == ["sample_0000.bin"] for name in old)

    def test_load_scans_each_array_once(self, dataset_dir, monkeypatch):
        shapes = []
        isfinite = np.isfinite

        def counted(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        load_dataset(dataset_dir)
        assert shapes == [(200, 1, 8, 16, 16), (200, 8, 5, 3)]

    def test_deterministic(self, tmp_path):
        run_deterministic(
            tmp_path,
            lambda out: ["gen-data", "--seed", "3", "--out", out, "--repetitions", "1"],
        )


class TestRunPipeline:
    def test_outputs_and_determinism(self, dataset_dir, tmp_path):
        out = run_deterministic(
            tmp_path,
            lambda o: ["run-pipeline", "--seed", "7", "--dataset", str(dataset_dir), "--out", o],
        )
        comments, rows = read_csv_rows(out / "classifications.csv")
        assert rows[0] == ["clip_id", "class_id", "probability"]
        assert len(rows) == 1 + 200 * 4
        _, det_rows = read_csv_rows(out / "detections.csv")
        assert det_rows[0] == "frame_id,camera_id,class_id,score,cx,cy,w,h".split(",")
        assert len(det_rows) == 1 + 200 * 8
        assert sorted(p.name for p in out.iterdir()) == [
            "classifications.csv", "detections.csv", "features.bin"
        ]

    @pytest.mark.parametrize("toggles", ["det,i3d,tsf", "tsf"])
    def test_features_bin_is_the_pose_features_in_manifest_order(
        self, toggles, dataset_dir, tmp_path
    ):
        argv = ["run-pipeline", "--seed", "7", "--dataset", str(dataset_dir), "--toggles", toggles]
        assert dispatch(argv + ["--out", str(tmp_path)]) == 0
        samples = load_dataset(dataset_dir)
        model = PipelineModel(parse_toggles(toggles), seed=7)
        want = model.extract_batch(samples.clips)[1]
        got = load_tensor(tmp_path / "features.bin")
        assert got.shape == (200, 32 if "i3d" in toggles else 144)
        assert got.tobytes() == want.tobytes()
        assert not (tmp_path / "features").exists()

    def test_run_pipeline_over_the_older_layout_exits_3(self, dataset_dir, tmp_path, capsys):
        old = tmp_path / "features"
        old.mkdir()
        (old / "sample_0000.bin").write_bytes(b"EITT")
        argv = ["run-pipeline", "--seed", "7", "--dataset", str(dataset_dir), "--out", str(tmp_path)]
        assert dispatch(argv) == 3
        assert capsys.readouterr().err == (
            f"error: older run-pipeline layout at {old}; remove it first\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["features"]  # no CSV was written
        assert os.listdir(old) == ["sample_0000.bin"]

    def test_detector_runs_once_per_clip(self, dataset_dir, tmp_path, monkeypatch):
        calls = []
        best_box = Detector.best_box

        def counted(self, clip):
            calls.append(clip.shape)
            return best_box(self, clip)

        monkeypatch.setattr(Detector, "best_box", counted)
        argv = ["run-pipeline", "--seed", "7", "--dataset", str(dataset_dir)]
        assert dispatch(argv + ["--out", str(tmp_path)]) == 0
        assert calls == [(4, 1, 8, 16, 16)] * 50  # one call per stack of 4 clips


@pytest.mark.parametrize("command", ["train", "eval"])
def test_loaded_dataset_is_freed_before_training(command, dataset_dir, tmp_path, monkeypatch):
    """Only the split's two sides, not the whole loaded set, stay alive while the heads train."""
    from eitnet import cli

    loaded, alive = [], []
    load = cli.load_dataset

    def spy(path):
        samples = load(path)
        loaded.append(weakref.ref(samples))
        return samples

    def train_toy(model, samples, hp):
        alive.append(loaded[0]() is not None)
        raise RuntimeError("stopped before training")

    monkeypatch.setattr(cli, "load_dataset", spy)
    monkeypatch.setattr(cli, "train_toy", train_toy)
    argv = [command, "--seed", "7", "--dataset", str(dataset_dir), "--out", str(tmp_path)]
    assert dispatch(argv) == 1
    assert alive == [False]


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
        out = run_deterministic(
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

    def test_repeated_camera_id_exits_3_naming_both_lines(self, tmp_path, capsys):
        config = tmp_path / "cameras.txt"
        config.write_text("id=1 period_us=33333\nid=2 period_us=33333\nid=1 period_us=33333\n")
        out = tmp_path / "out"
        argv = ["simulate", "--seed", "1", "--camera-config", str(config), "--out", str(out)]
        assert dispatch(argv) == 3
        assert capsys.readouterr().err == "error: line 3: camera id 1 repeats line 1\n"
        assert not out.exists()

    def test_camera_config_file(self, tmp_path):
        config = tmp_path / "cams.txt"
        config.write_text("id=1 period_us=10000\nid=2 period_us=10000 offset_us=500\n")
        out = tmp_path / "out"
        assert dispatch(
            ["simulate", "--seed", "4", "--camera-config", str(config), "--duration", "50ms",
             "--out", str(out)]
        ) == 0
        assert (out / "report.csv").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--cameras", "7", "--jitter-us", "5000", "--drop-prob", "0.3"],
             "--cameras, --jitter-us, --drop-prob"),
            (["--drop-prob", "0.3", "--cameras", "7"], "--cameras, --drop-prob"),
            (["--period-us", "33333"], "--period-us"),  # a default value counts too
            (["--offset-us", "200", "--jitter-us", "0"], "--offset-us, --jitter-us"),
        ],
        ids=["three-flags", "two-flags", "default-period", "default-offset-and-jitter"],
    )
    def test_camera_flags_next_to_a_camera_config_exit_3(self, flags, named, tmp_path, capsys):
        config = tmp_path / "cams.txt"
        config.write_text("id=1 period_us=33333\nid=2 period_us=33333\n")
        out = tmp_path / "out"
        argv = ["simulate", "--seed", "1", "--camera-config", str(config), *flags]
        assert dispatch(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {named} cannot be given with --camera-config\n"
        )
        assert not out.exists()

    def test_camera_flags_default_without_a_camera_config(self, tmp_path):
        explicit = ["--cameras", "5", "--period-us", "33333", "--offset-us", "200",
                    "--jitter-us", "0", "--drop-prob", "0"]
        reports = []
        for name, flags in (("default", []), ("explicit", explicit)):
            out = tmp_path / name
            argv = ["simulate", "--seed", "1", "--duration", "100ms", *flags, "--out", str(out)]
            assert dispatch(argv) == 0
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]
        # 5 cameras, 4 frames each in 100 ms at 33333 us, none dropped
        assert "\n".join(f"{i},4,4,0,," for i in range(1, 6)) + "\nall," in reports[0].decode()

    def test_threaded_option_is_gone(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch(["simulate", "--seed", "1", "--threaded", "--out", str(out)]) == 2
        assert "unrecognized arguments: --threaded" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["cameras", "camera-config"])
    def test_sixty_five_cameras_run(self, source, tmp_path):
        if source == "cameras":
            cameras = ["--cameras", "65"]
        else:
            config = tmp_path / "cams.txt"
            config.write_text("".join(f"id={cid} period_us=1000\n" for cid in range(1, 66)))
            cameras = ["--camera-config", str(config)]
        out = tmp_path / "out"
        assert dispatch(
            ["simulate", "--seed", "1", *cameras, "--duration", "1ms", "--out", str(out)]
        ) == 0
        report = (out / "report.csv").read_text()
        counts = report[report.index("# section=counts"):report.index("# section=latency")]
        assert [row.split(",")[0] for row in counts.splitlines()[2:-1]] == [
            str(cid) for cid in range(1, 66)
        ]

    def test_duration_past_2_53_us_counts_every_frame(self, tmp_path):
        """2^53 + 1 us over a 2^40 us period is 8192 periods and 1 us: 8193 frames."""
        config = tmp_path / "cams.txt"
        config.write_text("id=1 period_us=1099511627776\n")
        out = tmp_path / "out"
        assert dispatch(
            ["simulate", "--seed", "1", "--camera-config", str(config),
             "--duration", "9007199254740993us", "--out", str(out)]
        ) == 0
        report = (out / "report.csv").read_text()
        assert "\n1,8193,8193,0,,\n" in report

    def test_fractional_duration_exits_3_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["simulate", "--seed", "1", "--duration", "1.5us", "--out", str(out)]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: duration '1.5us' is not a whole number of microseconds\n"
        assert not out.exists()

    def test_jitter_past_the_u64_end_is_clamped(self, tmp_path):
        """The last frame is sent 2 us before the u64 end; 5 ms of jitter pushes stamps past it."""
        out = tmp_path / "out"
        assert dispatch(
            ["simulate", "--seed", "1", "--cameras", "1", "--offset-us", "18446744073709451615",
             "--jitter-us", "5000", "--duration", "100ms", "--out", str(out)]
        ) == 0
        assert (out / "report.csv").exists()

    def test_negative_last_timestamp_exits_3(self, tmp_path, capsys):
        """Offsets of -1e12 and -2e12 us would clamp every stamp to 0 and merge the windows."""
        out = tmp_path / "out"
        assert dispatch(
            ["simulate", "--seed", "1", "--cameras", "2", "--offset-us", "-1000000000000",
             "--out", str(out)]
        ) == 3
        last = 30 * 33333 - 10**12
        err = capsys.readouterr().err
        assert err == f"error: camera 1: last timestamp {last} does not fit u64\n"
        assert not out.exists()

    def test_offset_past_2_53_shifts_nothing(self, tmp_path):
        """An offset of 2^60 us is calibrated away exactly: latencies and windows match offset 0."""
        tails = []
        for offset in ("0", str(2**60)):
            out = tmp_path / offset
            assert dispatch(
                ["simulate", "--seed", "1", "--cameras", "1", "--offset-us", offset,
                 "--jitter-us", "5000", "--duration", "1s", "--out", str(out)]
            ) == 0
            report = (out / "report.csv").read_text()
            tails.append(report[report.index("# section=latency"):])
        assert tails[0] == tails[1]


class TestFreshOutputFiles:
    """A rerun replaces each output file; it never writes through the old one."""

    def test_simulate_rerun_leaves_hard_links_with_the_old_bytes(self, tmp_path):
        def simulate(seed, out):
            argv = ["simulate", "--seed", seed, "--cameras", "3", "--duration", "200ms",
                    "--threshold", "0.3", "--out", str(out)]
            assert dispatch(argv) == 0

        out, kept, fresh = tmp_path / "out", tmp_path / "kept", tmp_path / "fresh"
        simulate("1", out)
        old = {name: (out / name).read_bytes() for name in ("report.csv", "feedback.csv")}
        kept.mkdir()
        for name in old:
            os.link(out / name, kept / name)
        simulate("2", out)
        simulate("2", fresh)
        for name, data in old.items():
            assert (kept / name).read_bytes() == data, name
            assert (out / name).read_bytes() == (fresh / name).read_bytes() != data, name

    def test_write_csv_and_save_tensor_leave_hard_links_with_the_old_bytes(self, tmp_path):
        def write(seed):
            fileio.write_csv(tmp_path / "t.csv", "a,b", [f"{seed},{seed + 1}"], seed=seed)
            save_tensor(tmp_path / "t.bin", np.full((2, 3), float(seed)))

        write(1)
        old = {name: (tmp_path / name).read_bytes() for name in ("t.csv", "t.bin")}
        for name in old:
            os.link(tmp_path / name, tmp_path / f"kept-{name}")
        write(2)
        for name, data in old.items():
            assert (tmp_path / f"kept-{name}").read_bytes() == data, name
        assert (tmp_path / "t.csv").read_text() == "# seed=2\na,b\n2,3\n"
        np.testing.assert_array_equal(load_tensor(tmp_path / "t.bin"), np.full((2, 3), 2.0))

    def test_a_symlink_at_an_output_path_is_replaced(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("untouched\n")
        for name in ("t.csv", "t.bin"):
            (tmp_path / name).symlink_to(target)
        fileio.write_csv(tmp_path / "t.csv", "a", ["1"])
        save_tensor(tmp_path / "t.bin", np.zeros(2))
        assert target.read_text() == "untouched\n"
        assert not (tmp_path / "t.csv").is_symlink() and not (tmp_path / "t.bin").is_symlink()
        assert (tmp_path / "t.csv").read_text() == "a\n1\n"


class TestGradcheckAndComplexity:
    def test_gradcheck_reports_small_errors(self, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["gradcheck", "--seed", "5", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "gradcheck.csv")
        assert rows[0] == ["layer", "max_rel_error", "h"]
        for layer, err, h in rows[1:]:
            assert float(err) <= 1e-4

    @pytest.mark.parametrize("error, shown", [(1.0, "1.000e+00"), (float("nan"), "nan")])
    def test_gradcheck_failure_writes_its_csv_and_one_error_line(
        self, error, shown, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(training, "gradient_check", lambda *args, **kwargs: error)
        out = tmp_path / "out"
        assert dispatch(["gradcheck", "--seed", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: gradient check failed: max relative error {shown} > 1e-4\n"
        )
        _, rows = read_csv_rows(out / "gradcheck.csv")
        assert [row[1] for row in rows[1:]] == [repr(error)] * 4

    def test_complexity_values(self, tmp_path):
        out = tmp_path / "out"
        assert dispatch(["complexity", "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "complexity.csv")
        table = {r[0]: (int(r[1]), int(r[2])) for r in rows[1:]}
        assert table["linear_4x2"] == (10, 8)
        assert table["conv3d_1to1_k3_on_4cube"] == (28, 216)
        assert table["pipeline"][0] > 0


GOLDEN = Path(__file__).parent / "golden"
_FIELD_SPLIT = re.compile(r"([,\s=\[\]():<>]+)")
_INT = re.compile(r"[+-]?\d+")


def assert_same_fields(got_path: Path, want_path: Path) -> None:
    """Field-by-field CSV comparison: integers and labels exact, floats within 1e-12 relative.

    Comment lines are compared the same way, so a changed float inside a
    ``#`` line (a loss, an accuracy) shows up too.
    """
    got = got_path.read_text().splitlines()
    want = want_path.read_text().splitlines()
    assert len(got) == len(want), f"{want_path.name}: {len(got)} lines, want {len(want)}"
    for n, (g_line, w_line) in enumerate(zip(got, want), start=1):
        g_fields, w_fields = _FIELD_SPLIT.split(g_line), _FIELD_SPLIT.split(w_line)
        where = f"{want_path.name}:{n}"
        assert len(g_fields) == len(w_fields), f"{where}: {g_line!r} != {w_line!r}"
        for g, w in zip(g_fields, w_fields):
            if g == w:
                continue
            try:
                g_val, w_val = float(g), float(w)
            except ValueError:
                raise AssertionError(f"{where}: {g!r} != {w!r}") from None
            assert not (_INT.fullmatch(g) or _INT.fullmatch(w)), f"{where}: {g} != {w}"
            assert abs(g_val - w_val) <= 1e-12 * abs(w_val), f"{where}: {g} != {w}"


GOLDEN_RUNS = {
    "run-pipeline": (["run-pipeline", "--seed", "7"], ["detections.csv", "classifications.csv"]),
    "eval": (["eval", "--seed", "7", "--epochs", "2"], ["metrics.csv"]),
    "ablate": (["ablate", "--seed", "7", "--epochs", "1"], ["ablation.csv"]),
    "complexity": (["complexity"], ["complexity.csv"]),
    "simulate": (
        ["simulate", "--seed", "7", "--duration", "100ms"],
        ["report.csv", "feedback.csv"],
    ),
}


class TestGolden:
    """CLI outputs on the seed-7 one-repetition dataset, pinned to recorded files."""

    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_outputs_match_golden_files(self, name, dataset_dir, tmp_path):
        argv, files = GOLDEN_RUNS[name]
        if name in ("run-pipeline", "eval", "ablate"):
            argv = argv + ["--dataset", str(dataset_dir)]
        assert dispatch(argv + ["--out", str(tmp_path)]) == 0
        for file in files:
            assert_same_fields(tmp_path / file, GOLDEN / file)

    def test_comparison_catches_changed_fields(self, tmp_path):
        want = tmp_path / "want.csv"
        want.write_text("# loss=0.5\na,b,c\n1,0.25,x\n")
        for bad in ("# loss=0.5000001\na,b,c\n1,0.25,x\n", "2,0.25,x\n", "a,b,c\n1,0.25,y\n"):
            got = tmp_path / "got.csv"
            got.write_text(bad)
            with pytest.raises(AssertionError):
                assert_same_fields(got, want)
        got = tmp_path / "got.csv"
        got.write_text("# loss=0.5000000000000001\na,b,c\n1,0.25,x\n")
        assert_same_fields(got, want)
