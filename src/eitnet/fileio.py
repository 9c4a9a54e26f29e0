"""File formats: seeded CSV reports, camera config text, tensor files, dataset directories.

Every CSV starts with ``#``-prefixed comment lines (the root seed first),
then a header row, then data rows, and ends with a trailing newline.  Camera
configs are plain text, one camera per line of space-separated key=value
pairs (id, period_us, offset_us, jitter_us, drop_prob).  A tensor file is
little-endian: magic ``EITT``, u8 rank, rank x u32 extents, then the row-major
float64 payload (``save_tensor``, ``load_tensor``).  A dataset directory
holds ``clips.bin`` ``[N, 1, T, H, W]`` and ``joints.bin`` ``[N, T, 5, 3]``,
whose row i is sample i, and ``manifest.csv`` naming each row at most once.
A load copies rows only when the manifest is not rows 0..N-1 in order.  The
older layout of one file per sample is not read: regenerate it with gen-data.

Every output file is written fresh: the old file at the path is removed, then
a new one is created (``write_fresh``).  A rerun into the same directory
writes the same bytes, but it never writes through the old file: a hard link
to it keeps the old bytes, a symlink at the path is replaced by a regular
file, and the file gets a new file's mode.  On ext4, truncating a file that
holds data is journaled and arms a flush at close (``auto_da_alloc``); on a
1.2 KB report that cost more than the write itself.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from . import ACTION_LABELS, FRAME_HW, FRAMES, JOINT_NAMES
from .metrics import SUBJECT_IDS, VIEW_IDS
from .stream import CameraSpec
from .synthetic import SampleSet
from .tensorops import MAX_RANK, as_tensor

TENSOR_MAGIC = b"EITT"
MANIFEST_HEADER = "sample_id,subject_id,view_id,label"
_CAMERA_KEYS = ("id", "period_us", "offset_us", "jitter_us", "drop_prob")


def csv_text(header: str, rows, seed: int | None = None, comments: tuple[str, ...] = ()) -> str:
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.extend(f"# {c}" for c in comments)
    lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def write_fresh(path, *buffers) -> None:
    """Write the byte ``buffers`` in order to a new file at ``path``, removing the old file first.

    It calls ``os.open``, ``os.write`` and ``os.close`` directly: ``Path.write_text``
    took twice as long on a 1.2 KB report (ext4, on a 2-vCPU virtual machine).
    A buffer is written from its own memory, never copied.
    """
    Path(path).unlink(missing_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        for buffer in buffers:
            data = memoryview(buffer).cast("B")
            while data:
                data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def write_csv(path, header: str, rows, seed: int | None = None, comments=()) -> None:
    write_fresh(path, csv_text(header, rows, seed=seed, comments=comments).encode())


def save_tensor(path, x: np.ndarray) -> None:
    """Write ``x`` to a new file at ``path`` in the tensor layout above."""
    x = as_tensor(x)
    header = TENSOR_MAGIC + struct.pack(f"<B{x.ndim}I", x.ndim, *x.shape)
    write_fresh(path, header, np.ascontiguousarray(x, dtype="<f8").data)  # the array's own buffer


def load_tensor(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if blob[:4] != TENSOR_MAGIC:
        raise ValueError("not a tensor file (bad magic)")
    if len(blob) < 5 or len(blob) < 5 + 4 * blob[4]:
        raise ValueError(f"tensor file of {len(blob)} bytes ends inside its header")
    rank = blob[4]
    if rank < 1 or rank > MAX_RANK:
        raise ValueError(f"unsupported tensor rank {rank}")
    header_len = 5 + 4 * rank
    shape = struct.unpack(f"<{rank}I", blob[5:header_len])
    count = math.prod(shape)  # unbounded, so a huge header fails the length check below
    expected = header_len + 8 * count
    if len(blob) != expected:
        raise ValueError(f"tensor file length {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=header_len, count=count)
    return as_tensor(data.reshape(shape))


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


def save_dataset(directory, samples: SampleSet, seed: int) -> None:
    root = Path(directory)
    save_tensor(root / "clips.bin", samples.clips)
    save_tensor(root / "joints.bin", samples.joints)
    columns = (samples.subject_ids.tolist(), samples.view_ids.tolist(), samples.labels.tolist())
    rows = [f"{i},{s},{v},{ACTION_LABELS[k]}" for i, (s, v, k) in enumerate(zip(*columns))]
    write_csv(root / "manifest.csv", MANIFEST_HEADER, rows, seed=seed)


def _read(path: Path, read):
    """``read(path)``, a failure raised as a ValueError naming the file."""
    try:
        return read(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_rows(path: Path, row_shape: tuple[int, ...]) -> np.ndarray:
    """An ``[N, *row_shape]`` tensor file, checked once as a whole."""
    rows = _read(path, load_tensor)
    if rows.shape[1:] != row_shape:
        raise ValueError(f"{path}: rows must have shape {row_shape}, got shape {rows.shape}")
    return rows


def _row(n: int, row: list[str]) -> tuple[int, int, int, int]:
    """One manifest row's (sample_id, label index, subject_id, view_id), checked against n rows."""
    if len(row) != 4:
        raise ValueError(f"expected 4 fields, got {len(row)}")
    sample_id, subject_id, view_id, label = row
    if not (sample_id.isdecimal() and int(sample_id) < n):
        raise ValueError(f"sample_id must be 0..{n - 1}, got {sample_id!r}")
    if label not in ACTION_LABELS:
        raise ValueError(f"label must be one of {ACTION_LABELS}, got {label!r}")
    subject_id, view_id = int(subject_id), int(view_id)
    if subject_id not in SUBJECT_IDS or view_id not in VIEW_IDS:
        raise ValueError("subject_id must be 1..10 and view_id 1..5")
    return int(sample_id), ACTION_LABELS.index(label), subject_id, view_id


def load_dataset(directory) -> SampleSet:
    """The samples a manifest lists; a ValueError names the bad file, or manifest line."""
    root = Path(directory)
    manifest = root / "manifest.csv"
    lines = _read(manifest, Path.read_text).splitlines()
    clips = _load_rows(root / "clips.bin", (1, FRAMES, *FRAME_HW))
    joints = _load_rows(root / "joints.bin", (FRAMES, len(JOINT_NAMES), 3))
    if len(clips) != len(joints):
        raise ValueError(
            f"{root / 'clips.bin'} has {len(clips)} rows but joints.bin has {len(joints)}"
        )
    rows = []
    id_lines = {}  # sample_id -> the line that listed it
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#") or line == MANIFEST_HEADER:
            continue
        try:
            rows.append(_row(len(clips), line.split(",")))
            first = id_lines.setdefault(rows[-1][0], lineno)
            if first != lineno:
                raise ValueError(f"sample_id {rows[-1][0]} repeats line {first}")
        except ValueError as exc:
            raise ValueError(f"{manifest} line {lineno}: {exc}") from exc
    sample_ids, *ids = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    if not np.array_equal(sample_ids, np.arange(len(clips))):
        clips, joints = clips[sample_ids], joints[sample_ids]
    return SampleSet(clips, joints, *ids)


def default_out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("EITNET_OUT")
    return Path(env) if env else Path("eitnet-out")
