"""File formats: seeded CSV reports, camera config text, dataset directories.

Every CSV starts with ``#``-prefixed comment lines (the root seed first),
then a header row, then data rows, and ends with a trailing newline.  Camera
configs are plain text, one camera per line of space-separated key=value
pairs (id, period_us, offset_us, jitter_us, drop_prob).  A dataset directory
holds clips and pose sequences as tensor binaries plus a manifest CSV.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import ACTION_LABELS, FRAME_HW, FRAMES, JOINT_NAMES
from .metrics import SUBJECT_IDS, VIEW_IDS, SkeletonPose
from .stream import CameraSpec
from .synthetic import SyntheticAction
from .tensorops import load_tensor, save_tensor

MANIFEST_HEADER = "sample_id,subject_id,view_id,label,clip_path,pose_path"
_CAMERA_KEYS = ("id", "period_us", "offset_us", "jitter_us", "drop_prob")


def csv_text(header: str, rows, seed: int | None = None, comments: tuple[str, ...] = ()) -> str:
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.extend(f"# {c}" for c in comments)
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def write_csv(path, header: str, rows, seed: int | None = None, comments=()) -> None:
    Path(path).write_text(csv_text(header, rows, seed=seed, comments=comments))


def parse_camera_config(text: str) -> list[CameraSpec]:
    specs = []
    id_lines = {}  # camera id -> the line that defined it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            if "=" not in token:
                raise ValueError(f"line {lineno}: expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key not in _CAMERA_KEYS:
                raise ValueError(
                    f"line {lineno}: unknown key {key!r}; valid keys: {', '.join(_CAMERA_KEYS)}"
                )
            if key in fields:
                raise ValueError(f"line {lineno}: key {key!r} repeats")
            fields[key] = value
        try:
            spec = CameraSpec(
                camera_id=int(fields["id"]),
                frame_period_us=int(fields["period_us"]),
                clock_offset_us=int(fields.get("offset_us", "0")),
                jitter_std_us=float(fields.get("jitter_us", "0")),
                drop_probability=float(fields.get("drop_prob", "0")),
            )
        except KeyError as exc:
            raise ValueError(f"line {lineno}: missing field {exc.args[0]}") from exc
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        first = id_lines.setdefault(spec.camera_id, lineno)
        if first != lineno:
            raise ValueError(f"line {lineno}: camera id {spec.camera_id} repeats line {first}")
        specs.append(spec)
    if not specs:
        raise ValueError("camera config defines no cameras")
    return specs


def save_dataset(directory, samples: list[SyntheticAction], seed: int) -> None:
    root = Path(directory)
    (root / "clips").mkdir(parents=True, exist_ok=True)
    (root / "poses").mkdir(parents=True, exist_ok=True)
    rows = []
    for i, sample in enumerate(samples):
        clip_rel = f"clips/sample_{i:04d}.bin"
        pose_rel = f"poses/sample_{i:04d}.bin"
        save_tensor(root / clip_rel, sample.clip)
        save_tensor(root / pose_rel, sample.joints)
        rows.append(
            f"{i},{sample.subject_id},{sample.view_id},{sample.label},{clip_rel},{pose_rel}"
        )
    write_csv(root / "manifest.csv", MANIFEST_HEADER, rows, seed=seed)


def _load_sample(root: Path, row: list[str]) -> SyntheticAction:
    """One manifest row's sample, checked here, where samples enter the program.

    Beyond ``load_tensor``'s checks of each file, the clip's shape, the label,
    the ids and the pose count must be what the generator makes.
    """
    if len(row) != 6:
        raise ValueError(f"expected 6 fields, got {len(row)}")
    _, subject_id, view_id, label, clip_rel, pose_rel = row
    clip, joints = load_tensor(root / clip_rel), load_tensor(root / pose_rel)
    joints.flags.writeable = False
    SkeletonPose.from_stack(joints)  # checks every pose at once; a read-only stack is not copied
    subject_id, view_id = int(subject_id), int(view_id)
    expected = (1, FRAMES, *FRAME_HW)
    if clip.shape != expected:
        raise ValueError(f"clip must be [1, T, H, W], got shape {clip.shape}, expected {expected}")
    if label not in ACTION_LABELS:
        raise ValueError(f"label must be one of {ACTION_LABELS}, got {label!r}")
    if subject_id not in SUBJECT_IDS or view_id not in VIEW_IDS:
        raise ValueError("subject_id must be 1..10 and view_id 1..5")
    if joints.shape[:2] != (FRAMES, len(JOINT_NAMES)):
        raise ValueError(f"need {FRAMES} poses of {len(JOINT_NAMES)} joints, one per frame")
    return SyntheticAction(clip, joints, subject_id, view_id, label)


def load_dataset(directory) -> list[SyntheticAction]:
    """The samples a manifest lists; a bad row raises ValueError naming the manifest and line."""
    root = Path(directory)
    manifest = root / "manifest.csv"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest.csv under {root}")
    samples = []
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line or line.startswith("#") or line == MANIFEST_HEADER:
            continue
        where = f"{manifest} line {lineno}"
        try:
            samples.append(_load_sample(root, line.split(",")))
        except OSError as exc:
            raise ValueError(f"{where}: cannot read {exc.filename}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return samples


def default_out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("EITNET_OUT")
    return Path(env) if env else Path("eitnet-out")
