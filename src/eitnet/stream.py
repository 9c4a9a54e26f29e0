"""Simulated multi-camera acquisition: wire protocol, filtering, synchronization.

Packets travel as discrete byte frames with the layout: magic ``EITP``,
version u8 = 1, camera_id u16 LE, sequence_no u32 LE, timestamp u64 LE
(sender clock, microseconds), height u16 LE, width u16 LE, the u8 grayscale
payload row-major, and a CRC32 (IEEE polynomial) u32 LE over everything from
the magic through the payload.

The transport is an in-process channel with injectable loss and jitter; the
byte format is exact so a socket transport could be slotted in unchanged.
Two scheduler modes exist: a deterministic single-threaded merge (packets
arrive in true send-time order) used for reproducible reports, and a
threaded mode with one producer thread per camera pushing into a bounded
queue (producers block when it fills) where arrival interleaving is up to
the scheduler but counting invariants still hold.

Clock calibration is a coarse one-way estimator: the offset to subtract from
a camera's timestamps is the median of (send - receive) over its handshake
samples plus a global minimum-latency estimate, which defaults to zero, the
true floor of the in-process transport.
"""

from __future__ import annotations

import functools
import math
import queue
import statistics
import struct
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import ACTION_LABELS
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
# Frames per median_filter call in run_simulation, which bounds the transient
# memory of the filter whatever the simulated duration.
_FILTER_BLOCK = 256
# Largest camera count the threaded mode accepts: one producer thread each.
MAX_THREADED_CAMERAS = 64


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
    if size < len(PACKET_MAGIC):
        if PACKET_MAGIC.startswith(blob):
            raise TruncationError(f"{size} bytes is shorter than the magic")
        raise ProtocolError("bad magic")
    if blob[:4] != PACKET_MAGIC:
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


def calibrate_clocks(
    samples: dict[int, list[tuple[int, int]]], min_latency_us: float = 0.0
) -> dict[int, float]:
    """Per-camera offset to subtract from sender timestamps.

    Each sample is (camera send timestamp, hub receive timestamp).  One-way
    samples cannot separate latency from offset, so the shared minimum
    latency is an explicit parameter (zero for the in-process transport).
    """
    offsets = {}
    for camera_id, pairs in samples.items():
        if len(pairs) < 3:
            raise ValueError(f"camera {camera_id}: need >= 3 handshake samples")
        offsets[camera_id] = (
            statistics.median(send - recv for send, recv in pairs) + min_latency_us
        )
    return offsets


@dataclass
class SyncWindow:
    window_index: int
    reference_time_us: float
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
        frames = self._pending.pop(index)
        return SyncWindow(
            window_index=index,
            reference_time_us=index * self.period,
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
        out = [self._emit(index) for index in sorted(self._pending) if index < mark]
        self._emitted_below = max(self._emitted_below, out[-1].window_index + 1)
        return out

    def flush(self) -> list[SyncWindow]:
        out = [self._emit(index) for index in sorted(self._pending)]
        if out:
            self._emitted_below = max(self._emitted_below, out[-1].window_index + 1)
        return out


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
    window: SyncWindow, probs: np.ndarray, labels: tuple[str, ...], threshold: float
) -> FeedbackMessage | None:
    """A message when the top class probability clears the threshold."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or len(labels) != probs.size:
        raise ValueError("need one label per probability")
    best = int(probs.argmax())
    if probs[best] < threshold:
        return None
    return FeedbackMessage(
        window_index=window.window_index,
        label=labels[best],
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


@dataclass
class _ProducerOutput:
    handshakes: list[tuple[int, int]]
    packets: list[tuple[int, bytes]]  # (true send time, encoded bytes)
    produced: int
    dropped_link: int


def _run_producer(
    spec: CameraSpec, duration_us: int, seed: int, frame_hw: tuple[int, int], handshakes: int
) -> _ProducerOutput:
    """Generate one camera's handshake samples and surviving encoded packets.

    Each handshake draws one normal pair (its first value is the jitter); each
    packet draws one normal pair for its jitter and then one uniform for its
    link drop, three consecutive generator outputs in all.
    """
    rng = Rng(derive_seed(seed, "camera", spec.camera_id))
    h, w = frame_hw
    period = spec.frame_period_us
    hs_jitter = rng.normals(2 * handshakes)[0::2] * spec.jitter_std_us
    hs = [
        (int(j * 100 + spec.clock_offset_us + round(jitter)), j * 100)
        for j, jitter in enumerate(hs_jitter.tolist())
    ]
    n = -(-duration_us // period)  # frames sent at 0, period, ... before duration_us
    bits = rng.raw(3 * n).reshape(n, 3)
    jitters = (box_muller(bits[:, 0], bits[:, 1])[0] * spec.jitter_std_us).tolist()
    kept = unit_floats(bits[:, 2]) >= spec.drop_probability
    # uint8 addition wraps, which is the % 256 of the payload pattern
    grid = (np.arange(h)[:, None] * 3 + np.arange(w)[None, :] * 5) % 256
    bases = (np.arange(n) * 7 + spec.camera_id * 13) % 251
    payloads = grid.astype(np.uint8) + bases.astype(np.uint8)[:, None, None]
    out_packets = []
    for k in np.flatnonzero(kept).tolist():
        true_t = k * period
        packet = StreamPacket(
            camera_id=spec.camera_id,
            sequence_no=k,
            timestamp_us=max(int(true_t + spec.clock_offset_us + round(jitters[k])), 0),
            height=h,
            width=w,
            payload=payloads[k].tobytes(),
        )
        out_packets.append((true_t, encode_packet(packet)))
    return _ProducerOutput(hs, out_packets, n, n - len(out_packets))


def run_simulation(
    specs: list[CameraSpec],
    duration_us: int,
    seed: int,
    pipeline_hook=None,
    *,
    frame_hw: tuple[int, int] = (16, 16),
    window_period_us: int | None = None,
    median_window: int = 3,
    feedback_threshold: float = 0.5,
    labels: tuple[str, ...] = ACTION_LABELS,
    handshakes: int = 5,
    threaded: bool = False,
    queue_capacity: int = 64,
) -> SimulationReport:
    """Producers -> decode -> calibrate -> median filter -> windows -> hook.

    The deterministic mode merges packets in (send time, camera id) order
    and decodes and filters them in blocks of at most ``_FILTER_BLOCK``.
    Every decoded frame must have the extents ``frame_hw``.  The hook runs
    on each window as the assembler emits it, so a closed window's frames
    are released once it is labelled.
    The threaded mode runs one producer thread per camera (at most
    ``MAX_THREADED_CAMERAS``) over a bounded queue; arrival interleaving
    (and therefore late/duplicate counts and window completeness) may vary
    run to run, but packet conservation and emission ordering hold in both
    modes.  If consuming a packet raises, the producers are stopped and
    joined before the error reaches the caller.
    """
    if not specs:
        raise ValueError("need at least one camera")
    ids = [s.camera_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"camera ids must be unique, got {ids}")
    if duration_us <= 0:
        raise ValueError("duration must be positive")
    if threaded and len(specs) > MAX_THREADED_CAMERAS:
        raise ValueError(
            f"threaded mode starts one thread per camera: at most "
            f"{MAX_THREADED_CAMERAS} cameras, got {len(specs)}"
        )
    period = specs[0].frame_period_us if window_period_us is None else window_period_us
    h, w = frame_hw
    outputs = {
        s.camera_id: _run_producer(s, duration_us, seed, frame_hw, handshakes) for s in specs
    }
    offsets = calibrate_clocks({cid: o.handshakes for cid, o in outputs.items()})
    assembler = WindowAssembler(specs, period)
    counts = {
        cid: CameraCounts(produced=o.produced, dropped_link=o.dropped_link)
        for cid, o in outputs.items()
    }

    window_rows = []
    feedback = []
    hook_failures = []
    latencies = []

    def label_window(window: SyncWindow):
        """Label one closed window; only its row and latency outlive the call."""
        latencies.append(window.close_latency_us)
        probs = None
        if pipeline_hook is not None:
            try:
                probs = np.asarray(pipeline_hook(window), dtype=np.float64)
            except Exception as exc:  # failures are recorded per window, never fatal
                hook_failures.append((window.window_index, str(exc)))
                window_rows.append((window.window_index, window.completeness, "hook-error", 0.0))
                return
        if probs is None:
            probs = np.full(len(labels), 1.0 / len(labels))
        name = labels[int(probs.argmax())]
        window_rows.append((window.window_index, window.completeness, name, float(probs.max())))
        message = emit_feedback(window, probs, labels, feedback_threshold)
        if message is not None:
            feedback.append(message)

    def consume(blobs: list[bytes]):
        packets = [decode_packet(blob) for blob in blobs]
        for packet in packets:
            if packet.height != h or packet.width != w:
                raise ValueError(
                    f"camera {packet.camera_id} sent a {packet.height}x{packet.width} frame, "
                    f"expected {h}x{w}"
                )
            counts[packet.camera_id].delivered += 1
        frames = np.frombuffer(b"".join(p.payload for p in packets), dtype=np.uint8)
        filtered = median_filter(frames.reshape(len(packets), h, w), median_window)
        for packet, frame in zip(packets, filtered.astype(np.float64)):
            corrected = packet.timestamp_us - offsets[packet.camera_id]
            for window in assembler.push(packet.camera_id, corrected, frame):
                label_window(window)

    if threaded:
        chan: queue.Queue = queue.Queue(maxsize=queue_capacity)
        sentinel = object()
        stop = threading.Event()

        def producer(cid):
            for _, blob in outputs[cid].packets:
                if stop.is_set():
                    return
                chan.put(blob)  # blocks while the queue is full
            chan.put(sentinel)

        threads = [
            threading.Thread(target=producer, args=(cid,), daemon=True) for cid in outputs
        ]
        for t in threads:
            t.start()
        try:
            finished = 0
            while finished < len(threads):
                item = chan.get()
                if item is sentinel:
                    finished += 1
                else:
                    consume([item])
        finally:
            # After a consumer failure producers may be blocked in put: stop
            # them and drain until every one has exited; the error propagates.
            stop.set()
            while any(t.is_alive() for t in threads):
                try:
                    chan.get(timeout=0.01)
                except queue.Empty:
                    pass
    else:
        merged = []
        for cid, out in outputs.items():
            merged.extend((t, cid, blob) for t, blob in out.packets)
        merged.sort(key=lambda item: (item[0], item[1]))
        for start in range(0, len(merged), _FILTER_BLOCK):
            consume([blob for _, _, blob in merged[start : start + _FILTER_BLOCK]])

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
