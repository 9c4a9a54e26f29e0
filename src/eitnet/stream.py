"""Simulated multi-camera acquisition: wire protocol, filtering, synchronization.

Packets travel as discrete byte frames with the layout: magic ``EITP``,
version u8 = 1, camera_id u16 LE, sequence_no u32 LE, timestamp u64 LE
(sender clock, microseconds), height u16 LE, width u16 LE, the u8 grayscale
payload row-major, and a CRC32 (IEEE polynomial) u32 LE over everything from
the magic through the payload.

The transport is an in-process channel with injectable loss and jitter; the
byte format is exact so a socket transport could be slotted in unchanged.
Each camera is a lazy source that encodes a packet only when it is read.
One consumer merges the sources in (send time, camera id) order.  The
simulation runs in event time (clock offsets, jitter, drops, a watermark),
so its reports depend on that order alone, never on a processing schedule.

Clock calibration is a coarse one-way estimator: the offset to subtract from
a camera's timestamps is the median of (send - receive) over its handshake
samples, which takes the latency as zero, the true floor of the in-process
transport.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import struct
import zlib
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ACTION_LABELS, FRAME_HW
from .rng import Rng, box_muller, derive_seed, unit_floats

PACKET_MAGIC = b"EITP"
PACKET_VERSION = 1
_HEADER = struct.Struct("<4sBHIQHH")  # magic, version, camera, sequence, timestamp, height, width
_CRC = struct.Struct("<I")
_HEADER_LEN = _HEADER.size
_CRC_LEN = _CRC.size
# The CRC32 of a body followed by its own CRC (u32 LE) is this constant, and
# for a given body no other 4 bytes give it: appending 32 bits maps the CRC
# register one to one.  So a packet is checked whole, without slicing off
# its CRC.
_CRC_RESIDUE = 0x2144DF1C
# Frames per median_filter call and per block of a camera's draws in
# run_simulation: bounds their transient memory whatever the duration.
_FILTER_BLOCK = 256
_HANDSHAKES = 5  # clock samples per camera
_MEDIAN_WINDOW = 3


class StreamError(Exception):
    """Base class for wire-level failures."""


class ProtocolError(StreamError):
    """Bad magic, unsupported version, or trailing garbage."""


class IntegrityError(StreamError):
    """Checksum mismatch."""


class TruncationError(StreamError):
    """Buffer ends before the layout does."""


@dataclass(frozen=True)
class CameraSpec:
    camera_id: int
    frame_period_us: int
    clock_offset_us: int = 0
    jitter_std_us: float = 0.0
    drop_probability: float = 0.0

    def __post_init__(self):
        if not 0 <= self.camera_id <= 0xFFFF:
            raise ValueError("camera_id must fit u16")
        if self.frame_period_us <= 0:
            raise ValueError("frame_period must be positive")
        if not 0.0 <= self.jitter_std_us < math.inf:
            raise ValueError(f"jitter must be nonnegative and finite, got {self.jitter_std_us}")
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")


@dataclass(frozen=True)
class StreamPacket:
    camera_id: int
    sequence_no: int
    timestamp_us: int
    height: int
    width: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.camera_id <= 0xFFFF:
            raise ValueError("camera_id must fit u16")
        if not 0 <= self.sequence_no <= 0xFFFFFFFF:
            raise ValueError("sequence_no must fit u32")
        if not 0 <= self.timestamp_us <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError("timestamp must fit u64")
        if not (0 <= self.height <= 0xFFFF and 0 <= self.width <= 0xFFFF):
            raise ValueError("frame extents must fit u16")
        if len(self.payload) != self.height * self.width:
            raise ValueError(
                f"payload is {len(self.payload)} bytes for a "
                f"{self.height}x{self.width} frame"
            )


def encode_packet(packet: StreamPacket) -> bytes:
    body = (
        _HEADER.pack(
            PACKET_MAGIC,
            PACKET_VERSION,
            packet.camera_id,
            packet.sequence_no,
            packet.timestamp_us,
            packet.height,
            packet.width,
        )
        + packet.payload
    )
    return body + _CRC.pack(zlib.crc32(body))


def decode_packet(blob: bytes) -> StreamPacket:
    size = len(blob)
    if blob[:4] != PACKET_MAGIC:
        if PACKET_MAGIC.startswith(blob):
            raise TruncationError(f"{size} bytes is shorter than the magic")
        raise ProtocolError("bad magic")
    if size < _HEADER_LEN:
        raise TruncationError(f"header needs {_HEADER_LEN} bytes, got {size}")
    _, version, camera_id, sequence_no, timestamp_us, height, width = _HEADER.unpack_from(blob)
    if version != PACKET_VERSION:
        raise ProtocolError(f"unsupported version {version}")
    total = _HEADER_LEN + height * width + _CRC_LEN
    if size < total:
        raise TruncationError(f"packet needs {total} bytes, got {size}")
    if size > total:
        raise ProtocolError(f"{size - total} trailing bytes")
    if zlib.crc32(blob) != _CRC_RESIDUE:
        raise IntegrityError("checksum mismatch")
    return StreamPacket(
        camera_id=camera_id,
        sequence_no=sequence_no,
        timestamp_us=timestamp_us,
        height=height,
        width=width,
        payload=blob[_HEADER_LEN : total - _CRC_LEN],
    )


def median_filter(frames: np.ndarray, window: int) -> np.ndarray:
    """k x k neighborhood median with replicated borders over [..., H, W].

    k must be odd and no larger than either extent.  uint8 frames keep their
    dtype; anything else is filtered in float64 and must be finite.  The
    median of each neighborhood is selected by min/max exchanges over the
    k*k shifted views of one edge-padded copy, so a whole stack of frames
    costs a fixed number of array operations.
    """
    frames = np.asarray(frames)
    if frames.dtype != np.uint8:
        frames = frames.astype(np.float64, copy=False)
        if not np.isfinite(frames).all():
            raise ValueError("frames must be finite")
    if frames.ndim < 2:
        raise ValueError(f"frames must be [..., H, W], got rank {frames.ndim}")
    h, w = frames.shape[-2:]
    if window % 2 == 0 or window < 1:
        raise ValueError(f"window must be odd, got {window}")
    if window > min(h, w):
        raise ValueError(f"window {window} exceeds frame extents {h}x{w}")
    r = window // 2
    padded = np.pad(frames, [(0, 0)] * (frames.ndim - 2) + [(r, r), (r, r)], mode="edge")
    values = [padded[..., i : i + h, j : j + w] for i in range(window) for j in range(window)]
    # Each bubble pass carries the largest remaining value to the end and
    # drops it; once the values above the median are gone, the median is the
    # largest of what is left.
    for _ in range(len(values) // 2):
        for j in range(len(values) - 1):
            values[j], values[j + 1] = (
                np.minimum(values[j], values[j + 1]),
                np.maximum(values[j], values[j + 1]),
            )
        values.pop()
    return functools.reduce(np.maximum, values)


def calibrate_clocks(samples: dict[int, list[tuple[int, int]]]) -> dict[int, int | Fraction]:
    """Per-camera offset to subtract from sender timestamps.

    Each sample is (camera send timestamp, hub receive timestamp).  One-way
    samples cannot separate latency from offset, so the latency is taken as
    zero, the floor of the in-process transport.  The median is exact: the
    middle difference, or for an even count the ``Fraction`` midway between
    the two middle ones, so a timestamp near 2^64 loses nothing before the
    corrected time is rounded once to float.
    """
    offsets = {}
    for camera_id, pairs in samples.items():
        if len(pairs) < 3:
            raise ValueError(f"camera {camera_id}: need >= 3 handshake samples")
        diffs = sorted(send - recv for send, recv in pairs)
        mid = len(diffs) // 2
        if len(diffs) % 2:
            offsets[camera_id] = diffs[mid]
        else:
            offsets[camera_id] = Fraction(diffs[mid - 1] + diffs[mid], 2)
    return offsets


@dataclass
class SyncWindow:
    window_index: int
    frames: dict[int, np.ndarray]
    completeness: float
    close_latency_us: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.completeness <= 1.0:
            raise ValueError("completeness must be in [0, 1]")


@dataclass
class AssemblerStats:
    duplicates: int = 0
    dropped_late: int = 0


class WindowAssembler:
    """Groups clock-corrected frames into fixed windows behind a watermark.

    ``push(camera_id, corrected_ts, frame)`` takes one frame row whose
    timestamp already has the camera's clock offset subtracted, and returns
    the windows it closes.  The watermark is the lowest of the cameras'
    highest delivered window indices, taken over the cameras heard from that
    have not been silent for more than two of their frame periods (cameras
    never heard from count as silent).  Every pending window below it closes.
    Windows are emitted in strictly increasing index order; a frame for an
    already-closed window is counted late and dropped; a second frame from
    one camera in one window replaces the first (later wins) and counts as a
    duplicate.  ``run_simulation`` hands each window to its hook as soon as
    ``push`` or ``flush`` returns it, before the next packet is pushed.
    """

    def __init__(self, specs: list[CameraSpec], window_period_us: int):
        if window_period_us <= 0:
            raise ValueError("window period must be positive")
        if not specs:
            raise ValueError("need at least one camera")
        self.specs = {s.camera_id: s for s in specs}
        self.period = window_period_us
        self.stats = AssemblerStats()
        self._silence = {s.camera_id: 2 * s.frame_period_us for s in specs}
        self._pending: dict[int, dict[int, np.ndarray]] = {}
        self._last_seen: dict[int, float] = {}
        self._max_index: dict[int, int] = {}
        self._emitted_below = -(2**62)
        self._max_corrected = -math.inf

    def push(self, camera_id: int, corrected_ts: float, frame: np.ndarray) -> list[SyncWindow]:
        if camera_id not in self._silence:
            raise ValueError(f"unknown camera {camera_id}")
        index = int(math.floor(corrected_ts / self.period + 0.5))
        self._last_seen[camera_id] = corrected_ts
        if index > self._max_index.get(camera_id, -(2**62)):
            self._max_index[camera_id] = index
        if corrected_ts > self._max_corrected:
            self._max_corrected = corrected_ts
        if index < self._emitted_below:
            self.stats.dropped_late += 1
            return []
        bucket = self._pending.setdefault(index, {})
        if camera_id in bucket:
            self.stats.duplicates += 1
        bucket[camera_id] = frame
        return self._drain()

    def _emit(self, index: int) -> SyncWindow:
        # windows leave in increasing index order, so this never lowers the bar
        self._emitted_below = index + 1
        frames = self._pending.pop(index)
        return SyncWindow(
            window_index=index,
            frames=frames,
            completeness=len(frames) / len(self.specs),
            close_latency_us=max(self._max_corrected - index * self.period, 0.0),
        )

    def _drain(self) -> list[SyncWindow]:
        # The watermark: the highest window index strictly below which no
        # frame can still arrive.  Most pushes close nothing, so the scan
        # stops at the first live camera that holds the lowest pending window.
        lowest = min(self._pending)
        mark = math.inf
        for camera_id, last in self._last_seen.items():
            if self._max_corrected - last <= self._silence[camera_id]:
                index = self._max_index[camera_id]
                if index <= lowest:
                    return []
                if index < mark:
                    mark = index
        return [self._emit(index) for index in sorted(self._pending) if index < mark]

    def flush(self) -> list[SyncWindow]:
        return [self._emit(index) for index in sorted(self._pending)]


@dataclass
class FeedbackMessage:
    window_index: int
    label: str
    confidence: float
    latency_us: float

    def csv_row(self) -> str:
        return f"{self.window_index},{self.label},{self.confidence!r},{self.latency_us!r}"


FEEDBACK_CSV_HEADER = "window_index,label,confidence,latency_us"


def emit_feedback(
    window: SyncWindow, probs: np.ndarray, threshold: float
) -> FeedbackMessage | None:
    """A message when the top class probability (one per ``ACTION_LABELS``) clears the threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or len(ACTION_LABELS) != probs.size:
        raise ValueError("need one label per probability")
    best = int(probs.argmax())
    if probs[best] < threshold:
        return None
    return FeedbackMessage(
        window_index=window.window_index,
        label=ACTION_LABELS[best],
        confidence=float(probs[best]),
        latency_us=window.close_latency_us,
    )


@dataclass
class CameraCounts:
    produced: int = 0
    delivered: int = 0
    dropped_link: int = 0


@dataclass
class SimulationReport:
    counts: dict[int, CameraCounts]
    duplicates: int
    dropped_late: int
    window_rows: list[tuple[int, float, str, float]]  # index, completeness, label, confidence
    feedback: list[FeedbackMessage]
    hook_failures: list[tuple[int, str]]  # window index, error text
    latency_p50_us: float
    latency_p95_us: float
    latency_max_us: float

    def conservation_holds(self) -> bool:
        return all(c.produced == c.delivered + c.dropped_link for c in self.counts.values())


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def check_simulation(
    specs: list[CameraSpec],
    duration_us: int,
    window_period_us: int | None,
    feedback_threshold: float,
) -> None:
    """Reject, before anything runs, a simulation that could not run to its end.

    Beyond unique ids, a positive duration and window period (when given) and
    a feedback threshold in [0, 1], each camera's frames must fit u32
    sequence numbers and its last jitter-free timestamp u64 (a negative one
    would clamp every stamp to 0).
    """
    if not specs:
        raise ValueError("need at least one camera")
    ids = [s.camera_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"camera ids must be unique, got {ids}")
    if duration_us <= 0:
        raise ValueError("duration must be positive")
    if window_period_us is not None and window_period_us <= 0:
        raise ValueError(f"window period must be positive, got {window_period_us}")
    if not 0.0 <= feedback_threshold <= 1.0:
        raise ValueError(f"feedback threshold must be in [0, 1], got {feedback_threshold}")
    for s in specs:
        frames = -(-duration_us // s.frame_period_us)
        if frames > 2**32:
            raise ValueError(f"camera {s.camera_id}: {frames} frames overflow u32 sequence_no")
        last = (frames - 1) * s.frame_period_us + s.clock_offset_us
        if not 0 <= last < 2**64:
            raise ValueError(f"camera {s.camera_id}: last timestamp {last} does not fit u64")


def _handshakes(spec: CameraSpec, rng: Rng) -> list[tuple[int, int]]:
    """(send, receive) clock samples 100 us apart, each jittered by one normal pair's first value."""
    jitters = rng.normals(2 * _HANDSHAKES)[0::2] * spec.jitter_std_us
    return [
        (int(j * 100 + spec.clock_offset_us + round(jitter)), j * 100)
        for j, jitter in enumerate(jitters.tolist())
    ]


def _packets(
    spec: CameraSpec, rng: Rng, n: int, frame_hw: tuple[int, int], counts: CameraCounts
):
    """Yield one camera's surviving packets as (send time, camera id, encoded bytes).

    The n frames, sent at 0, period, ..., are made ``_FILTER_BLOCK`` at a time,
    each from three consecutive generator outputs (a normal pair whose first
    value is the jitter, then the link-drop uniform); each block adds to
    ``counts`` as it is made.  Only the encoding runs per packet, when read.
    """
    h, w = frame_hw
    # uint8 addition wraps, which is the % 256 of the payload pattern
    grid = ((np.arange(h)[:, None] * 3 + np.arange(w)[None, :] * 5) % 256).astype(np.uint8)
    for start in range(0, n, _FILTER_BLOCK):
        ks = np.arange(start, min(start + _FILTER_BLOCK, n))
        bits = rng.raw(3 * ks.size).reshape(ks.size, 3)
        jitters = (box_muller(bits[:, 0], bits[:, 1])[0] * spec.jitter_std_us).tolist()
        kept = np.flatnonzero(unit_floats(bits[:, 2]) >= spec.drop_probability).tolist()
        payloads = grid + ((ks * 7 + spec.camera_id * 13) % 251).astype(np.uint8)[:, None, None]
        counts.produced += ks.size
        counts.dropped_link += ks.size - len(kept)
        for i in kept:
            true_t = (start + i) * spec.frame_period_us
            stamp = int(true_t + spec.clock_offset_us + round(jitters[i]))
            stamp = min(max(stamp, 0), 2**64 - 1)  # jitter may push a stamp past either end
            packet = StreamPacket(spec.camera_id, start + i, stamp, h, w, payloads[i].tobytes())
            yield true_t, spec.camera_id, encode_packet(packet)


def run_simulation(
    specs: list[CameraSpec],
    duration_us: int,
    seed: int,
    pipeline_hook=None,
    *,
    frame_hw: tuple[int, int] = FRAME_HW,
    window_period_us: int | None = None,
    feedback_threshold: float = 0.5,
) -> SimulationReport:
    """Camera sources -> decode -> calibrate -> median filter -> windows -> hook.

    ``check_simulation`` runs first.  Each camera is one lazy ``_packets``
    source, so packets are encoded only as they are consumed.  One consumer
    merges the sources in (send time, camera id) order, decodes each packet
    as it pulls it and filters them in blocks of at most ``_FILTER_BLOCK``.
    Every decoded frame must have the extents ``frame_hw``.  The hook runs on
    each window as the assembler emits it, so a closed window's frames are
    released once it is labelled.  If producing or consuming a packet
    raises, the error reaches the caller as it is.
    """
    check_simulation(specs, duration_us, window_period_us, feedback_threshold)
    period = specs[0].frame_period_us if window_period_us is None else window_period_us
    h, w = frame_hw
    counts = {s.camera_id: CameraCounts() for s in specs}
    samples, sources = {}, []
    for s in specs:
        rng = Rng(derive_seed(seed, "camera", s.camera_id))
        samples[s.camera_id] = _handshakes(s, rng)
        n = -(-duration_us // s.frame_period_us)  # frames sent before duration_us
        sources.append(_packets(s, rng, n, frame_hw, counts[s.camera_id]))
    offsets = calibrate_clocks(samples)
    assembler = WindowAssembler(specs, period)

    window_rows, feedback, hook_failures, latencies = [], [], [], []

    def label_window(window: SyncWindow):
        """Label one closed window; only its row and latency outlive the call."""
        latencies.append(window.close_latency_us)
        probs = np.full(len(ACTION_LABELS), 1.0 / len(ACTION_LABELS))
        if pipeline_hook is not None:
            try:
                probs = np.asarray(pipeline_hook(window), dtype=np.float64)
            except Exception as exc:  # failures are recorded per window, never fatal
                hook_failures.append((window.window_index, str(exc)))
                window_rows.append((window.window_index, window.completeness, "hook-error", 0.0))
                return
        name = ACTION_LABELS[int(probs.argmax())]
        window_rows.append((window.window_index, window.completeness, name, float(probs.max())))
        message = emit_feedback(window, probs, feedback_threshold)
        if message is not None:
            feedback.append(message)

    def admit(blob: bytes) -> StreamPacket:
        packet = decode_packet(blob)
        if packet.height != h or packet.width != w:
            raise ValueError(
                f"camera {packet.camera_id} sent a {packet.height}x{packet.width} frame, "
                f"expected {h}x{w}"
            )
        counts[packet.camera_id].delivered += 1
        return packet

    def consume(packets: list[StreamPacket]):
        frames = np.frombuffer(b"".join(p.payload for p in packets), dtype=np.uint8)
        filtered = median_filter(frames.reshape(len(packets), h, w), _MEDIAN_WINDOW)
        for packet, frame in zip(packets, filtered.astype(np.float64)):
            corrected = float(packet.timestamp_us - offsets[packet.camera_id])
            for window in assembler.push(packet.camera_id, corrected, frame):
                label_window(window)

    # (send time, camera id) is unique, so the merge never compares bytes
    merged = heapq.merge(*sources)
    while block := [admit(blob) for _, _, blob in itertools.islice(merged, _FILTER_BLOCK)]:
        consume(block)

    for window in assembler.flush():
        label_window(window)

    return SimulationReport(
        counts=counts,
        duplicates=assembler.stats.duplicates,
        dropped_late=assembler.stats.dropped_late,
        window_rows=window_rows,
        feedback=feedback,
        hook_failures=hook_failures,
        latency_p50_us=_percentile(latencies, 0.50),
        latency_p95_us=_percentile(latencies, 0.95),
        latency_max_us=_percentile(latencies, 1.00),
    )


def report_csv_text(report: SimulationReport, seed: int) -> str:
    """Sectioned CSV: per-camera counts, latency percentiles, per-window labels."""
    lines = [f"# seed={seed}"]
    lines.append("# section=counts")
    lines.append("camera_id,produced,delivered,dropped_link,dropped_late,duplicates")
    for cid in sorted(report.counts):
        c = report.counts[cid]
        lines.append(f"{cid},{c.produced},{c.delivered},{c.dropped_link},,")
    lines.append(f"all,,,,{report.dropped_late},{report.duplicates}")
    lines.append("# section=latency")
    lines.append("metric,value_us")
    lines.append(f"p50,{report.latency_p50_us!r}")
    lines.append(f"p95,{report.latency_p95_us!r}")
    lines.append(f"max,{report.latency_max_us!r}")
    lines.append("# section=windows")
    lines.append("window_index,completeness,label,confidence")
    for index, completeness, label, confidence in report.window_rows:
        lines.append(f"{index},{completeness!r},{label},{confidence!r}")
    for index, message in report.hook_failures:
        lines.append(f"# hook_failure window={index}: {message}")
    return "\n".join(lines) + "\n"
