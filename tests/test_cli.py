import filecmp
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import eitnet
from eitnet.cli import ConfigError, build_parser, dispatch, parse_duration_us, parse_toggles
from eitnet.detection import Detector
from eitnet.fileio import load_dataset
from eitnet.metrics import make_split
from eitnet.pipeline import PipelineConfig
from eitnet.tensorops import load_tensor, save_tensor

from textio import read_csv_rows


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
        empty.mkdir()
        manifest = (dataset_dir / "manifest.csv").read_text().splitlines()
        (empty / "manifest.csv").write_text("\n".join(manifest[:2]) + "\n")  # seed and header
        out = tmp_path / "out"
        assert dispatch([command, "--seed", "7", "--dataset", str(empty), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: dataset at {empty} has no samples\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,1", "expected 6 fields, got 3"),
            ("1,1,1,pass,clips/missing.bin,poses/sample_0000.bin",
             "cannot read .*clips/missing.bin: No such file or directory"),
            ("1,1,1,dunk,clips/sample_0000.bin,poses/sample_0000.bin", "label must be one of"),
            ("1,1,1,pass,clips/flat.bin,poses/sample_0000.bin",
             r"clip must be \[1, T, H, W\], got shape \(8,\)"),
            ("1,1,1,pass,clips/magic-only.bin,poses/sample_0000.bin",
             "tensor file of 4 bytes ends inside its header"),
            ("1,1,1,pass,clips/short-header.bin,poses/sample_0000.bin",
             "tensor file of 7 bytes ends inside its header"),
            ("1,1,1,pass,clips/four-frames.bin,poses/sample_0000.bin",
             r"clip must be \[1, T, H, W\], got shape \(1, 4, 16, 16\), "
             r"expected \(1, 8, 16, 16\)"),
            ("1,1,1,pass,clips/sample_0000.bin,poses/four-joints.bin",
             "need 8 poses of 5 joints, one per frame"),
            ("1,1,1,pass,clips/small.bin,poses/sample_0000.bin",
             r"clip must be \[1, T, H, W\], got shape \(1, 8, 8, 8\)"),
            ("1,1,1,pass,clips/nan.bin,poses/sample_0000.bin", "tensor values must be finite"),
        ],
        ids=["short-row", "missing-clip", "unknown-label", "rank-1-clip", "magic-only-clip",
             "short-header-clip", "four-frame-clip", "four-joint-poses", "8x8-clip", "nan-clip"],
    )
    def test_bad_manifest_row_is_config_error_naming_the_line(
        self, row, message, dataset_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        for sub in ("clips", "poses"):
            (broken / sub).mkdir(parents=True)
            shutil.copy(dataset_dir / sub / "sample_0000.bin", broken / sub)
        save_tensor(broken / "clips" / "flat.bin", [0.0] * 8)
        (broken / "clips" / "magic-only.bin").write_bytes(b"EITT")
        (broken / "clips" / "short-header.bin").write_bytes(b"EITT\x04\x01\x00")
        clip = load_tensor(dataset_dir / "clips" / "sample_0000.bin")
        save_tensor(broken / "clips" / "four-frames.bin", clip[:, :4])
        save_tensor(broken / "clips" / "small.bin", clip[:, :, ::2, ::2])
        blob = (dataset_dir / "clips" / "sample_0000.bin").read_bytes()
        (broken / "clips" / "nan.bin").write_bytes(blob[:-8] + struct.pack("<d", float("nan")))
        poses = load_tensor(dataset_dir / "poses" / "sample_0000.bin")
        save_tensor(broken / "poses" / "four-joints.bin", poses[:, :4])
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
        lines = [",".join(r[:4] + [str(dataset_dir / r[4]), str(dataset_dir / r[5])]) for r in rows]
        (part / "manifest.csv").write_text("\n".join([header, *lines]) + "\n")
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

    @pytest.mark.parametrize(
        "command, subdir", [("run-pipeline", "features"), ("train", "weights")]
    )
    def test_out_subdirectory_that_is_a_file_is_config_error(
        self, command, subdir, dataset_dir, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        (out / subdir).write_text("kept")
        argv = [command, "--seed", "7", "--dataset", str(dataset_dir), "--out", str(out)]
        assert dispatch(argv + (["--epochs", "1"] if command == "train" else [])) == 3
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
        assert calls == [(4, 1, 8, 16, 16)] * 50  # one call per stack of 4 clips


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
