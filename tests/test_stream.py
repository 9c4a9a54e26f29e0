import math
import threading
import zlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eitnet.stream
from eitnet import ACTION_LABELS
from eitnet.cli import _window_hook
from eitnet.fileio import parse_camera_config
from eitnet.rng import Rng, derive_seed
from eitnet.stream import (
    AssemblerStats,
    CameraCounts,
    CameraSpec,
    IntegrityError,
    ProtocolError,
    SimulationReport,
    StreamError,
    StreamPacket,
    SyncWindow,
    TruncationError,
    WindowAssembler,
    _handshakes,
    _packets,
    _percentile,
    calibrate_clocks,
    decode_packet,
    emit_feedback,
    encode_packet,
    median_filter,
    run_simulation,
    report_csv_text,
)

import oracles
from textio import camera_config_text


def make_packet(rng, camera_id=1, seq=0, ts=1000, h=4, w=4):
    payload = bytes(rng.below(256) for _ in range(h * w))
    return StreamPacket(
        camera_id=camera_id, sequence_no=seq, timestamp_us=ts, height=h, width=w, payload=payload
    )


class TestCodec:
    def test_roundtrip_random_packets(self):
        rng = Rng(300)
        for _ in range(50):
            packet = make_packet(
                rng,
                camera_id=rng.below(0xFFFF),
                seq=rng.below(0xFFFFFFFF),
                ts=rng.below(2**40),
                h=1 + rng.below(6),
                w=1 + rng.below(6),
            )
            assert decode_packet(encode_packet(packet)) == packet

    def test_golden_byte_vector(self):
        """1x1 frame, pixel 0xFF, camera 1, seq 0, ts 0, assembled by hand."""
        packet = StreamPacket(
            camera_id=1, sequence_no=0, timestamp_us=0, height=1, width=1, payload=b"\xff"
        )
        body = (
            b"EITP"
            + b"\x01"  # version
            + b"\x01\x00"  # camera_id u16 LE
            + b"\x00\x00\x00\x00"  # sequence u32 LE
            + b"\x00" * 8  # timestamp u64 LE
            + b"\x01\x00"  # height u16 LE
            + b"\x01\x00"  # width u16 LE
            + b"\xff"
        )
        golden = body + zlib.crc32(body).to_bytes(4, "little")
        assert encode_packet(packet) == golden

    def test_total_length_arithmetic(self):
        rng = Rng(301)
        for h, w in ((1, 1), (3, 5), (8, 8)):
            packet = make_packet(rng, h=h, w=w)
            # magic 4 + version 1 + camera 2 + seq 4 + ts 8 + height 2 + width 2 = 23
            assert len(encode_packet(packet)) == 23 + h * w + 4

    def test_single_bit_flips_always_caught(self):
        rng = Rng(302)
        packet = make_packet(rng)
        blob = bytearray(encode_packet(packet))
        start = 23  # payload offset
        for i in range(start, start + len(packet.payload)):
            for bit in range(8):
                corrupted = bytearray(blob)
                corrupted[i] ^= 1 << bit
                with pytest.raises(IntegrityError):
                    decode_packet(bytes(corrupted))

    def test_only_the_body_crc_is_accepted(self):
        """The whole-packet residue check accepts exactly the CRC of the body."""
        rng = Rng(315)
        for _ in range(200):
            blob = encode_packet(make_packet(rng, h=1 + rng.below(4), w=1 + rng.below(4)))
            body = blob[:-4]
            crc = zlib.crc32(body)
            assert blob[-4:] == crc.to_bytes(4, "little")
            wrong = crc ^ (1 + rng.below(0xFFFFFFFF))
            with pytest.raises(IntegrityError):
                decode_packet(body + wrong.to_bytes(4, "little"))

    def test_truncation_after_header(self):
        rng = Rng(303)
        blob = encode_packet(make_packet(rng))
        with pytest.raises(TruncationError):
            decode_packet(blob[:23])
        with pytest.raises(TruncationError):
            decode_packet(blob[:10])

    def test_bad_magic_and_version_and_trailing(self):
        rng = Rng(304)
        blob = encode_packet(make_packet(rng))
        with pytest.raises(ProtocolError):
            decode_packet(b"XXXX" + blob[4:])
        bad_version = bytearray(blob)
        bad_version[4] = 9
        with pytest.raises(ProtocolError):
            decode_packet(bytes(bad_version))
        with pytest.raises(ProtocolError):
            decode_packet(blob + b"\x00")

    def test_fuzz_never_crashes(self):
        rng = Rng(305)
        outcomes = {"packet": 0, "error": 0}
        for _ in range(10_000):
            n = rng.below(64)
            blob = bytes(rng.below(256) for _ in range(n))
            if rng.below(4) == 0:  # bias some buffers toward the real magic
                blob = b"EITP" + blob
            try:
                decode_packet(blob)
                outcomes["packet"] += 1
            except StreamError:
                outcomes["error"] += 1
        assert outcomes["packet"] + outcomes["error"] == 10_000


class TestMedianFilter:
    def test_constant_frame_unchanged(self):
        frame = np.full((5, 5), 9.0)
        np.testing.assert_array_equal(median_filter(frame, 3), frame)

    def test_isolated_speck_removed(self):
        frame = np.zeros((3, 3))
        frame[1, 1] = 255.0
        out = median_filter(frame, 3)
        ref = oracles.median_filter_oracle(frame, 3)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_matches_sort_oracle_on_random(self):
        rng = Rng(306)
        frame = rng.uniforms(7 * 6).reshape(7, 6) * 255
        np.testing.assert_array_equal(median_filter(frame, 3), oracles.median_filter_oracle(frame, 3))
        np.testing.assert_array_equal(median_filter(frame, 5), oracles.median_filter_oracle(frame, 5))

    def test_output_values_from_input_multiset(self):
        rng = Rng(307)
        frame = rng.uniforms(6 * 6).reshape(6, 6)
        out = median_filter(frame, 3)
        values = set(frame.ravel().tolist())
        assert all(v in values for v in out.ravel().tolist())

    def test_rejects_even_or_oversized_window(self):
        frame = np.zeros((4, 4))
        with pytest.raises(ValueError, match="odd"):
            median_filter(frame, 2)
        with pytest.raises(ValueError, match="exceeds"):
            median_filter(frame, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_frames(self, bad):
        frame = np.arange(25, dtype=np.float64).reshape(5, 5)
        frame[2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            median_filter(frame, 3)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("hw", [(5, 7), (7, 5), (6, 6)])
    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_stack_matches_sort_oracle_frame_by_frame(self, dtype, hw, window):
        rng = Rng(310 + window)
        frames = (rng.uniforms(4 * hw[0] * hw[1]) * 256).astype(dtype).reshape(4, *hw)
        out = median_filter(frames, window)
        assert out.dtype == dtype and out.shape == frames.shape
        for frame, got in zip(frames, out):
            ref = oracles.median_filter_oracle(frame.astype(np.float64), window)
            np.testing.assert_array_equal(got, ref)

    def test_leading_axes_are_independent_frames(self):
        frames = (Rng(313).uniforms(2 * 3 * 5 * 4) * 256).astype(np.uint8).reshape(2, 3, 5, 4)
        out = median_filter(frames, 3)
        for a in range(2):
            for b in range(3):
                np.testing.assert_array_equal(out[a, b], median_filter(frames[a, b], 3))


class TestCalibration:
    def test_exact_offset_with_clean_samples(self):
        samples = {1: [(500, 0), (1500, 1000), (2500, 2000)]}
        offsets = calibrate_clocks(samples)
        assert offsets[1] == 500 and type(offsets[1]) is int

    def test_offset_past_2_53_stays_exact(self):
        big = 2**60 + 1  # float64 would round it to 2**60
        odd = [(big + 3, 3), (big + 10, 0), (big - 4, 0)]
        even = [(big, 0), (big + 2, 1), (big + 9, 0), (big - 5, 0)]
        offsets = calibrate_clocks({1: odd, 2: even})
        assert offsets[1] == big
        assert offsets[2] == Fraction(2 * big + 1, 2)  # midway between big and big + 1

    def test_symmetric_jitter_bounded_error(self):
        rng = Rng(308)
        true_offset = 500
        pairs = []
        for i in range(101):
            jitter = int(round((rng.uniform() * 2 - 1) * 100))
            pairs.append((i * 1000 + true_offset + jitter, i * 1000))
        est = calibrate_clocks({1: pairs})[1]
        assert abs(est - true_offset) <= 100

    def test_equal_offsets_give_equal_estimates(self):
        pairs = [(700, 0), (1700, 1000), (2700, 2000)]
        offsets = calibrate_clocks({1: list(pairs), 2: list(pairs)})
        assert offsets[1] == offsets[2]

    def test_insufficient_samples(self):
        with pytest.raises(ValueError, match=">= 3"):
            calibrate_clocks({1: [(0, 0), (1, 1)]})


def packet_frame(packet):
    """The payload of a packet as a float64 [height, width] frame."""
    data = np.frombuffer(packet.payload, dtype=np.uint8).astype(np.float64)
    return data.reshape(packet.height, packet.width)


def assemble(specs, window_period_us, packets, offsets=None):
    """Push each packet with its offset subtracted, as the consumer does, then flush."""
    offsets = offsets or {}
    assembler = WindowAssembler(specs, window_period_us)
    windows = []
    for packet in packets:
        corrected = float(packet.timestamp_us - offsets.get(packet.camera_id, 0))
        windows.extend(assembler.push(packet.camera_id, corrected, packet_frame(packet)))
    windows.extend(assembler.flush())
    return windows


class RescanAssembler:
    """Reference assembler: rescans every camera and sorts every pending index on each push."""

    def __init__(self, specs, window_period_us, offsets=None):
        if window_period_us <= 0:
            raise ValueError("window period must be positive")
        if not specs:
            raise ValueError("need at least one camera")
        self.specs = {s.camera_id: s for s in specs}
        self.period = window_period_us
        self.offsets = dict(offsets or {})
        self.stats = AssemblerStats()
        self._pending = {}
        self._last_seen = {}
        self._max_index = {}
        self._emitted_below = -(2**62)
        self._max_corrected = -math.inf

    def corrected_timestamp(self, packet):
        return float(packet.timestamp_us - self.offsets.get(packet.camera_id, 0))

    def push(self, packet):
        if packet.camera_id not in self.specs:
            raise ValueError(f"unknown camera {packet.camera_id}")
        ts = self.corrected_timestamp(packet)
        index = int(math.floor(ts / self.period + 0.5))
        self._last_seen[packet.camera_id] = ts
        self._max_index[packet.camera_id] = max(
            self._max_index.get(packet.camera_id, -(2**62)), index
        )
        self._max_corrected = max(self._max_corrected, ts)
        if index < self._emitted_below:
            self.stats.dropped_late += 1
            return []
        bucket = self._pending.setdefault(index, {})
        if packet.camera_id in bucket:
            self.stats.duplicates += 1
        bucket[packet.camera_id] = packet_frame(packet)
        return self._drain()

    def _camera_silent(self, camera_id):
        spec = self.specs[camera_id]
        last = self._last_seen.get(camera_id)
        if last is None:
            return True
        return self._max_corrected - last > 2 * spec.frame_period_us

    def _watermark(self):
        marks = []
        for camera_id in self.specs:
            if self._camera_silent(camera_id):
                continue
            marks.append(self._max_index.get(camera_id, -(2**62)))
        return min(marks) if marks else math.inf

    def _emit(self, index):
        frames = self._pending.pop(index)
        return SyncWindow(
            window_index=index,
            frames=frames,
            completeness=len(frames) / len(self.specs),
            close_latency_us=max(self._max_corrected - index * self.period, 0.0),
        )

    def _drain(self):
        mark = self._watermark()
        out = []
        for index in sorted(self._pending):
            if index < mark:
                out.append(self._emit(index))
        if out:
            self._emitted_below = max(self._emitted_below, out[-1].window_index + 1)
        return out

    def flush(self):
        out = [self._emit(index) for index in sorted(self._pending)]
        if out:
            self._emitted_below = max(self._emitted_below, out[-1].window_index + 1)
        return out


def spec(cid, period=1000, offset=0, jitter=0.0, drop=0.0):
    return CameraSpec(
        camera_id=cid,
        frame_period_us=period,
        clock_offset_us=offset,
        jitter_std_us=jitter,
        drop_probability=drop,
    )


def frame_packet(cid, seq, ts, value=0):
    payload = bytes([value % 256] * 4)
    return StreamPacket(
        camera_id=cid, sequence_no=seq, timestamp_us=ts, height=2, width=2, payload=payload
    )


def per_packet_producer(spec, duration_us, seed, frame_hw, handshakes):
    """Reference producer: one jitter normal, one drop uniform and one payload per packet.

    Returns (handshake samples, [(send time, camera id, bytes)], produced, dropped).
    """
    rng = Rng(derive_seed(seed, "camera", spec.camera_id))
    h, w = frame_hw
    hs = []
    for j in range(handshakes):
        true_t = j * 100
        jitter = rng.normals(1)[0] * spec.jitter_std_us
        hs.append((int(true_t + spec.clock_offset_us + round(jitter)), true_t))
    out_packets = []
    produced = 0
    dropped = 0
    k = 0
    while k * spec.frame_period_us < duration_us:
        true_t = k * spec.frame_period_us
        produced += 1
        jitter = rng.normals(1)[0] * spec.jitter_std_us
        timestamp = min(max(int(true_t + spec.clock_offset_us + round(jitter)), 0), 2**64 - 1)
        base = (k * 7 + spec.camera_id * 13) % 251
        rows = (np.arange(h)[:, None] * 3 + np.arange(w)[None, :] * 5 + base) % 256
        payload = rows.astype(np.uint8).tobytes()
        if rng.uniform() < spec.drop_probability:
            dropped += 1
        else:
            packet = StreamPacket(
                camera_id=spec.camera_id,
                sequence_no=k,
                timestamp_us=timestamp,
                height=h,
                width=w,
                payload=payload,
            )
            out_packets.append((true_t, spec.camera_id, encode_packet(packet)))
        k += 1
    return hs, out_packets, produced, dropped


def lazy_producer(cam, duration_us, seed, frame_hw):
    """per_packet_producer's tuple from the lazy source, read to its end."""
    rng = Rng(derive_seed(seed, "camera", cam.camera_id))
    hs = _handshakes(cam, rng)
    counts = CameraCounts()
    n = -(-duration_us // cam.frame_period_us)
    packets = list(_packets(cam, rng, n, frame_hw, counts))
    return hs, packets, counts.produced, counts.dropped_link


def per_frame_median_filter(frame, window):
    """Reference filter: one pad, one window view and one np.median per frame."""
    r = window // 2
    padded = np.pad(np.asarray(frame, dtype=np.float64), r, mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
    return np.median(view, axis=(2, 3))


def per_packet_simulation(
    specs, duration_us, seed, pipeline_hook, *, frame_hw, window_period_us, feedback_threshold
):
    """Reference deterministic run_simulation: decode, filter and push one packet at a time.

    Every window is assembled before the first hook call, and the frames
    travel between stages as repacked StreamPackets.
    """
    period = window_period_us or specs[0].frame_period_us
    outputs = {s.camera_id: per_packet_producer(s, duration_us, seed, frame_hw, 5) for s in specs}
    offsets = calibrate_clocks({cid: hs for cid, (hs, _, _, _) in outputs.items()})
    assembler = RescanAssembler(specs, period, offsets)
    counts = {
        cid: CameraCounts(produced=produced, dropped_link=dropped)
        for cid, (_, _, produced, dropped) in outputs.items()
    }
    windows = []
    merged = [item for _, packets, _, _ in outputs.values() for item in packets]
    merged.sort(key=lambda item: (item[0], item[1]))
    for _, _, blob in merged:
        packet = decode_packet(blob)
        counts[packet.camera_id].delivered += 1
        filtered = per_frame_median_filter(packet_frame(packet), 3)
        repacked = StreamPacket(
            camera_id=packet.camera_id,
            sequence_no=packet.sequence_no,
            timestamp_us=packet.timestamp_us,
            height=packet.height,
            width=packet.width,
            payload=np.clip(filtered, 0, 255).astype(np.uint8).tobytes(),
        )
        windows.extend(assembler.push(repacked))
    windows.extend(assembler.flush())
    window_rows = []
    feedback = []
    for window in windows:
        probs = np.asarray(pipeline_hook(window), dtype=np.float64)
        label = ACTION_LABELS[int(probs.argmax())]
        window_rows.append((window.window_index, window.completeness, label, float(probs.max())))
        message = emit_feedback(window, probs, feedback_threshold)
        if message is not None:
            feedback.append(message)
    latencies = [w.close_latency_us for w in windows]
    return SimulationReport(
        counts=counts,
        duplicates=assembler.stats.duplicates,
        dropped_late=assembler.stats.dropped_late,
        window_rows=window_rows,
        feedback=feedback,
        hook_failures=[],
        latency_p50_us=_percentile(latencies, 0.50),
        latency_p95_us=_percentile(latencies, 0.95),
        latency_max_us=_percentile(latencies, 1.00),
    )


# (cameras, duration_us, seed, frame_hw, window_period_us)
EQUIVALENCE_CASES = {
    "clamped-at-zero": (
        [spec(1, offset=-4000, jitter=3000.0), spec(2, offset=-2500, jitter=2500.0)],
        40_000, 21, (4, 4), None,
    ),
    "drop-0.3": ([spec(cid, jitter=150.0, drop=0.3) for cid in (1, 2, 3)], 60_000, 22, (16, 16), None),
    "duplicates-and-late": (
        [spec(1, offset=300, jitter=900.0), spec(2, jitter=1200.0), spec(3, offset=-200)],
        80_000, 23, (4, 4), None,
    ),
    "partial-last-period": ([spec(1, jitter=100.0), spec(2, offset=250)], 10_500, 24, (16, 16), None),
    "window-override": ([spec(cid, jitter=300.0, drop=0.1) for cid in (1, 2)], 30_000, 25, (4, 4), 2500),
    "several-blocks": (
        [spec(cid, offset=100 * cid, jitter=400.0, drop=0.05) for cid in (1, 2, 3)],
        120_000, 26, (16, 16), None,
    ),
    # camera 1 draws over three source blocks: 600 frames against a 256 block
    "several-source-blocks": (
        [spec(1, period=100, offset=300, jitter=30.0, drop=0.2), spec(2, jitter=250.0)],
        60_000, 28, (4, 4), None,
    ),
}


class TestSynchronize:
    def test_identical_corrected_timestamps_one_window(self):
        specs = [spec(1), spec(2), spec(3)]
        packets = [frame_packet(cid, 0, 1000) for cid in (1, 2, 3)]
        windows = assemble(specs, 1000, packets)
        assert len(windows) == 1
        assert windows[0].window_index == 1
        assert windows[0].completeness == 1.0

    def test_offsets_are_subtracted(self):
        specs = [spec(1), spec(2)]
        packets = [frame_packet(1, 0, 1500), frame_packet(2, 0, 1000)]
        windows = assemble(specs, 1000, packets, offsets={1: 500, 2: 0})
        assert len(windows) == 1
        assert set(windows[0].frames) == {1, 2}

    def test_silent_camera_completeness(self):
        specs = [spec(1), spec(2), spec(3), spec(4)]
        packets = []
        for k in range(5):
            for cid in (1, 2, 3):
                packets.append(frame_packet(cid, k, 1000 * k + 100))
        windows = assemble(specs, 1000, packets)
        assert len(windows) == 5
        assert all(w.completeness == 3 / 4 for w in windows)

    def test_windows_strictly_increasing(self):
        rng = Rng(309)
        specs = [spec(1), spec(2)]
        packets = []
        for k in range(30):
            for cid in (1, 2):
                ts = 1000 * k + int(rng.normals(1)[0] * 200)
                packets.append(frame_packet(cid, k, max(ts, 0)))
        windows = assemble(specs, 1000, packets)
        indices = [w.window_index for w in windows]
        assert indices == sorted(set(indices))

    def test_duplicate_later_wins(self):
        specs = [spec(1), spec(2)]
        first = frame_packet(1, 0, 900, value=10)
        second = frame_packet(1, 1, 1100, value=99)  # same window 1
        other = frame_packet(2, 0, 1000, value=1)
        assembler = WindowAssembler(specs, 1000)
        out = []
        for p in (first, second, other):
            out.extend(assembler.push(p.camera_id, p.timestamp_us, packet_frame(p)))
        out.extend(assembler.flush())
        assert assembler.stats.duplicates == 1
        assert out[0].frames[1][0, 0] == 99.0

    def test_late_frame_counted_dropped(self):
        specs = [spec(1), spec(2)]
        assembler = WindowAssembler(specs, 1000)
        emitted = []
        frame = np.zeros((2, 2))
        for k in range(4):
            for cid in (1, 2):
                emitted.extend(assembler.push(cid, 1000 * k, frame))
        assert emitted  # windows 0.. emitted already
        assembler.push(1, 0, frame)  # arrives long after window 0 closed
        assert assembler.stats.dropped_late == 1

    def test_camera_silent_only_beyond_two_periods(self):
        assembler = WindowAssembler([spec(1), spec(2)], 1000)
        frame = np.zeros((2, 2))
        assert assembler.push(1, 0, frame) == []
        assert assembler.push(2, 0, frame) == []
        assert assembler.push(2, 2000, frame) == []  # camera 1 quiet for exactly 2 periods
        closed = assembler.push(2, 2001, frame)
        assert [w.window_index for w in closed] == [0]

    def test_unknown_camera_rejected(self):
        assembler = WindowAssembler([spec(1)], 1000)
        with pytest.raises(ValueError, match="unknown camera 7"):
            assembler.push(7, 0, np.zeros((2, 2)))


class TestSimulation:
    def test_lossless_zero_jitter_everything_delivered(self):
        specs = [spec(1), spec(2), spec(3)]
        report = run_simulation(specs, duration_us=20_000, seed=1)
        for c in report.counts.values():
            assert c.produced == 20 and c.delivered == 20 and c.dropped_link == 0
        assert report.dropped_late == 0
        assert report.conservation_holds()

    def test_nominal_grouping_under_small_jitter(self):
        specs = [spec(cid, jitter=100.0) for cid in (1, 2, 3)]  # jitter << period/2
        report = run_simulation(specs, duration_us=30_000, seed=5)
        assert report.conservation_holds()
        assert report.dropped_late == 0 and report.duplicates == 0
        full = [row for row in report.window_rows if row[1] == 1.0]
        assert len(full) == 30

    def test_repeated_camera_ids_are_rejected(self):
        with pytest.raises(ValueError, match=r"^camera ids must be unique, got \[1, 2, 1\]$"):
            run_simulation([spec(1), spec(2), spec(1, offset=50)], duration_us=5_000, seed=1)

    @pytest.mark.parametrize(
        "offset, last",
        [(-10**12, 19_000 - 10**12), (-19_001, -1), (2**64 - 19_000, 2**64)],
    )
    def test_last_timestamp_outside_u64_is_rejected(self, offset, last):
        specs = [spec(1), spec(2, offset=offset), spec(3, offset=-2 * 10**12)]
        message = f"^camera 2: last timestamp {last} does not fit u64$"
        with pytest.raises(ValueError, match=message):
            run_simulation(specs, duration_us=20_000, seed=1)

    def test_last_timestamp_zero_runs(self):
        """Every stamp but the last clamps to 0, and the run still ends."""
        report = run_simulation([spec(1), spec(2, offset=-19_000)], duration_us=20_000, seed=1)
        assert report.conservation_holds()

    def test_window_period_zero_is_rejected_not_defaulted(self):
        with pytest.raises(ValueError, match="window period must be positive"):
            run_simulation([spec(1)], duration_us=5_000, seed=1, window_period_us=0)

    @pytest.mark.parametrize("threshold", [float("nan"), 1.5, -0.1])
    def test_feedback_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"feedback threshold must be in \[0, 1\]"):
            run_simulation([spec(1)], duration_us=5_000, seed=1, feedback_threshold=threshold)

    def test_drop_rate_estimate(self):
        specs = [spec(1, period=100, drop=0.1)]
        report = run_simulation(specs, duration_us=1_000_000, seed=9)
        c = report.counts[1]
        assert c.produced == 10_000
        assert abs(c.dropped_link / c.produced - 0.1) <= 0.01
        assert report.conservation_holds()

    def test_same_seed_identical_reports(self):
        specs = [spec(1, offset=500, jitter=150.0, drop=0.05), spec(2, jitter=80.0)]
        a = run_simulation(specs, duration_us=50_000, seed=3)
        b = run_simulation(specs, duration_us=50_000, seed=3)
        assert report_csv_text(a, 3) == report_csv_text(b, 3)

    def test_corrected_timestamps_strictly_increasing_per_camera(self):
        cam = spec(1, period=1000, offset=700, jitter=200.0)  # jitter < period/2
        hs, packets, _, _ = lazy_producer(cam, 50_000, seed=4, frame_hw=(4, 4))
        offsets = calibrate_clocks({1: hs})
        corrected = [decode_packet(blob).timestamp_us - offsets[1] for _, _, blob in packets]
        assert all(b > a for a, b in zip(corrected, corrected[1:]))

    def test_consumer_failure_reaches_the_caller(self, monkeypatch):
        def broken(blob):
            raise RuntimeError("decode failed")

        monkeypatch.setattr(eitnet.stream, "decode_packet", broken)
        with pytest.raises(RuntimeError, match="^decode failed$"):
            run_simulation([spec(1), spec(2), spec(3)], 30_000, 6)

    def test_producer_failure_reaches_the_caller(self, monkeypatch):
        original = eitnet.stream.encode_packet

        def broken(packet):
            if packet.camera_id == 2 and packet.sequence_no == 3:
                raise RuntimeError("encode failed")
            return original(packet)

        monkeypatch.setattr(eitnet.stream, "encode_packet", broken)
        with pytest.raises(RuntimeError, match="^encode failed$"):
            run_simulation([spec(1), spec(2), spec(3)], 30_000, 6)

    def test_packets_in_flight_stay_bounded(self, monkeypatch):
        """Packets are encoded as they are consumed, not all before the first is."""
        in_flight = peak = 0
        encode, decode = eitnet.stream.encode_packet, eitnet.stream.decode_packet

        def counting_encode(packet):
            nonlocal in_flight, peak
            blob = encode(packet)
            in_flight += 1
            peak = max(peak, in_flight)
            return blob

        def counting_decode(blob):
            nonlocal in_flight
            in_flight -= 1
            return decode(blob)

        monkeypatch.setattr(eitnet.stream, "encode_packet", counting_encode)
        monkeypatch.setattr(eitnet.stream, "decode_packet", counting_decode)
        specs = [spec(cid, period=33333, offset=200 * cid, drop=0.05) for cid in range(1, 6)]
        report = run_simulation(specs, duration_us=20_000_000, seed=27)
        assert in_flight == 0 and report.conservation_holds()
        # The merge holds one head per camera and decodes a packet as it takes it.
        assert peak <= len(specs)

    def test_hook_receives_every_window(self):
        specs = [spec(1), spec(2)]
        seen = []

        def hook(window):
            seen.append(window.window_index)
            return np.array([0.9, 0.05, 0.03, 0.02])

        report = run_simulation(specs, duration_us=10_000, seed=2, pipeline_hook=hook)
        assert len(seen) == len(report.window_rows) == 10
        assert all(row[2] == "dribble" for row in report.window_rows)
        assert len(report.feedback) == 10  # 0.9 over threshold every time

    def test_hook_failures_recorded_not_fatal(self):
        specs = [spec(1), spec(2)]

        def flaky(window):
            if window.window_index % 3 == 0:
                raise RuntimeError(f"boom at {window.window_index}")
            return np.array([0.9, 0.05, 0.03, 0.02])

        report = run_simulation(specs, duration_us=9_000, seed=2, pipeline_hook=flaky)
        assert report.conservation_holds()
        failed = {idx for idx, _ in report.hook_failures}
        assert failed == {i for i in range(9) if i % 3 == 0}
        for index, completeness, label, confidence in report.window_rows:
            if index in failed:
                assert label == "hook-error" and confidence == 0.0
            else:
                assert label == "dribble"
        assert all(m.window_index not in failed for m in report.feedback)

    def test_hook_runs_as_each_window_is_emitted(self, monkeypatch):
        decoded = 0
        original = eitnet.stream.decode_packet

        def counting(blob):
            nonlocal decoded
            decoded += 1
            return original(blob)

        monkeypatch.setattr(eitnet.stream, "decode_packet", counting)
        seen = []

        def hook(window):
            seen.append(decoded)
            return np.full(len(ACTION_LABELS), 1.0 / len(ACTION_LABELS))

        # 600 packets, decoded in 3 blocks
        specs = [spec(cid, offset=100 * cid, jitter=300.0) for cid in (1, 2, 3)]
        report = run_simulation(specs, duration_us=200_000, seed=8, pipeline_hook=hook)
        assert len(seen) == len(report.window_rows)
        assert seen == sorted(seen) and seen[-1] == decoded == 600
        assert len(set(seen)) >= 3

    def test_two_packet_objects_per_delivered_packet(self, monkeypatch):
        built = 0
        original = StreamPacket.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            original(self)

        monkeypatch.setattr(StreamPacket, "__post_init__", counting)
        specs = [spec(cid, offset=100 * cid, jitter=300.0, drop=0.1) for cid in (1, 2, 3)]
        report = run_simulation(specs, duration_us=50_000, seed=11)
        delivered = sum(c.delivered for c in report.counts.values())
        assert delivered > 0 and built == 2 * delivered

    def test_frame_of_wrong_extents_rejected(self, monkeypatch):
        original = eitnet.stream._packets

        def one_wide_camera(spec, rng, n, frame_hw, counts):
            if spec.camera_id == 2:
                frame_hw = (8, 32)  # as many bytes as 16x16
            return original(spec, rng, n, frame_hw, counts)

        monkeypatch.setattr(eitnet.stream, "_packets", one_wide_camera)
        specs = [spec(1), spec(2), spec(3)]
        with pytest.raises(ValueError, match="camera 2 sent a 8x32 frame, expected 16x16"):
            run_simulation(specs, duration_us=10_000, seed=3)

    def test_camera_order_does_not_change_the_report(self):
        """The merge takes packets in (send time, camera id) order, not in listing order."""
        specs = [spec(cid, offset=100 * cid, jitter=400.0, drop=0.05) for cid in range(1, 9)]
        hook = _window_hook(29, (4, 4))
        runs = [
            run_simulation(order, 100_000, 29, hook, frame_hw=(4, 4), feedback_threshold=0.3)
            for order in (specs, specs[::-1])
        ]
        assert runs[0].duplicates > 0 and runs[0].dropped_late > 0 and runs[0].feedback
        assert report_csv_text(runs[1], 29) == report_csv_text(runs[0], 29)
        assert [m.csv_row() for m in runs[1].feedback] == [m.csv_row() for m in runs[0].feedback]

    def test_many_cameras_run_on_the_calling_thread(self, monkeypatch):
        """65 cameras need no thread of their own, and no camera count is refused."""
        def refuse(*args, **kwargs):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        specs = [spec(cid, offset=10 * cid) for cid in range(1, 66)]
        report = run_simulation(specs, duration_us=3_000, seed=1, frame_hw=(4, 4))
        assert sorted(report.counts) == list(range(1, 66))
        assert all(c.delivered == 3 for c in report.counts.values())
        assert report.conservation_holds()

    def test_window_hook_mean_equals_np_mean(self):
        """The hook's running sum gives the probabilities of np.mean's mean frame, bitwise."""
        rng = Rng(314)
        hook = _window_hook(5, (4, 4))
        for trial in range(200):
            frames = {cid: rng.uniforms(16).reshape(4, 4) * 255 for cid in range(1 + trial % 5)}
            mean_frame = np.mean(list(frames.values()), axis=0)
            got = hook(SyncWindow(trial, frames, 1.0))
            ref = hook(SyncWindow(trial, {0: mean_frame}, 1.0))
            np.testing.assert_array_equal(got, ref)


class TestBlockEquivalence:
    """The block consumer and producer against the per-packet reference loops."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_producer_matches_per_packet_loop(self, case):
        specs, duration, seed, frame_hw, _ = EQUIVALENCE_CASES[case]
        for cam in specs:
            got = lazy_producer(cam, duration, seed, frame_hw)
            ref = per_packet_producer(cam, duration, seed, frame_hw, 5)
            assert got == ref

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_report_and_feedback_bytes_match_per_packet_loop(self, case):
        specs, duration, seed, frame_hw, window_period = EQUIVALENCE_CASES[case]
        kwargs = dict(frame_hw=frame_hw, window_period_us=window_period, feedback_threshold=0.3)
        new = run_simulation(specs, duration, seed, _window_hook(seed, frame_hw), **kwargs)
        ref = per_packet_simulation(specs, duration, seed, _window_hook(seed, frame_hw), **kwargs)
        assert report_csv_text(new, seed) == report_csv_text(ref, seed)
        assert [m.csv_row() for m in new.feedback] == [m.csv_row() for m in ref.feedback]
        assert new.feedback

    def test_cases_reach_the_conditions_they_name(self):
        specs, duration, seed, frame_hw, _ = EQUIVALENCE_CASES["clamped-at-zero"]
        stamps = [
            decode_packet(blob).timestamp_us
            for cam in specs
            for t, _, blob in lazy_producer(cam, duration, seed, frame_hw)[1]
            if t > 0
        ]
        assert 0 in stamps
        specs, duration, seed, frame_hw, _ = EQUIVALENCE_CASES["duplicates-and-late"]
        report = run_simulation(specs, duration, seed, frame_hw=frame_hw)
        assert report.duplicates > 0 and report.dropped_late > 0
        specs, duration, seed, frame_hw, _ = EQUIVALENCE_CASES["several-blocks"]
        report = run_simulation(specs, duration, seed, frame_hw=frame_hw)
        delivered = sum(c.delivered for c in report.counts.values())
        assert delivered > eitnet.stream._FILTER_BLOCK
        specs, duration, seed, frame_hw, _ = EQUIVALENCE_CASES["several-source-blocks"]
        report = run_simulation(specs, duration, seed, frame_hw=frame_hw)
        assert report.counts[1].produced > 2 * eitnet.stream._FILTER_BLOCK
        assert report.counts[1].dropped_link > 0

    def test_filter_calls_stay_within_the_block_cap(self, monkeypatch):
        shapes = []
        original = eitnet.stream.median_filter

        def recording(frames, window):
            shapes.append(np.shape(frames))
            return original(frames, window)

        monkeypatch.setattr(eitnet.stream, "median_filter", recording)
        specs = [spec(cid, period=33333, offset=200 * cid, drop=0.05) for cid in range(1, 6)]
        report = run_simulation(specs, duration_us=20_000_000, seed=27)
        delivered = sum(c.delivered for c in report.counts.values())
        assert max(shape[0] for shape in shapes) <= eitnet.stream._FILTER_BLOCK
        assert sum(shape[0] for shape in shapes) == delivered
        assert len(shapes) > 1


def identified_packet(frame_id, camera_id, ts):
    """A 2x2 frame whose four bytes spell its id, so it can be traced into windows."""
    return StreamPacket(camera_id, frame_id, ts, 2, 2, frame_id.to_bytes(4, "little"))


def run_events(run, make):
    """Replay an assembler_runs example on make(specs, period, offsets) -> (assembler, push)."""
    periods, offsets, window_period, events = run
    specs = [spec(cid, period=p) for cid, p in enumerate(periods, start=1)]
    offsets = {cid: o for cid, o in enumerate(offsets, start=1)}
    assembler, push = make(specs, window_period, offsets)
    windows = []
    pushed = 0
    for event in events:
        if event == "flush":
            windows.extend(assembler.flush())
            continue
        camera, ts = event
        windows.extend(push(identified_packet(pushed, camera + 1, ts)))
        pushed += 1
    windows.extend(assembler.flush())
    return windows, assembler.stats, pushed


def frame_assembler(specs, window_period, offsets):
    assembler = WindowAssembler(specs, window_period)

    def push(packet):
        corrected = packet.timestamp_us - offsets[packet.camera_id]
        return assembler.push(packet.camera_id, corrected, packet_frame(packet))

    return assembler, push


def rescan_assembler(specs, window_period, offsets):
    assembler = RescanAssembler(specs, window_period, offsets)
    return assembler, assembler.push


def window_summary(window):
    frames = {cid: frame_id(f) for cid, f in window.frames.items()}
    return (window.window_index, frames, window.completeness, window.close_latency_us)


def frame_id(frame):
    return int.from_bytes(frame.astype(np.uint8).tobytes(), "little")


assembler_runs = st.integers(1, 4).flatmap(
    lambda cameras: st.tuples(
        st.lists(st.integers(1, 5).map(lambda p: p * 100), min_size=cameras, max_size=cameras),
        st.lists(st.integers(-300, 300), min_size=cameras, max_size=cameras),
        st.integers(1, 5).map(lambda p: p * 100),
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, cameras - 1), st.integers(0, 3000)),
                st.just("flush"),
            ),
            max_size=40,
        ),
    )
)


class TestAssemblerProperties:
    """Watermark invariants of the assembler and conservation of the simulation."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(assembler_runs)
    def test_frames_windows_and_counts(self, run):
        windows, stats, pushed = run_events(run, frame_assembler)
        landed = Counter(frame_id(f) for w in windows for f in w.frames.values())
        assert all(n == 1 for n in landed.values())
        indices = [w.window_index for w in windows]
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert pushed == sum(landed.values()) + stats.duplicates + stats.dropped_late

    @settings(max_examples=100, deadline=None, database=None)
    @given(assembler_runs)
    def test_same_windows_and_stats_as_rescanning_assembler(self, run):
        windows, stats, _ = run_events(run, frame_assembler)
        ref_windows, ref_stats, _ = run_events(run, rescan_assembler)
        assert [window_summary(w) for w in windows] == [window_summary(w) for w in ref_windows]
        assert stats == ref_stats

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 0.9), st.floats(0.0, 3000.0), st.integers(-2000, 2000)),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 20_000),
        st.integers(0, 2**32),
    )
    def test_simulation_conserves_packets(self, cameras, duration, seed):
        specs = [
            spec(cid, offset=offset, jitter=jitter, drop=drop)
            for cid, (drop, jitter, offset) in enumerate(cameras, start=1)
        ]
        frames = -(-duration // 1000)
        early = [s.camera_id for s in specs if (frames - 1) * 1000 + s.clock_offset_us < 0]
        if early:  # a negative last timestamp would clamp every stamp to 0
            with pytest.raises(ValueError, match=f"^camera {early[0]}: last timestamp -"):
                run_simulation(specs, duration, seed, frame_hw=(4, 4))
            return
        report = run_simulation(specs, duration, seed, frame_hw=(4, 4))
        for c in report.counts.values():
            assert c.produced == frames
            assert c.produced == c.delivered + c.dropped_link
        indices = [row[0] for row in report.window_rows]
        assert all(a < b for a, b in zip(indices, indices[1:]))


class TestFeedback:
    def window(self):
        return SyncWindow(window_index=3, frames={}, completeness=1.0, close_latency_us=250.0)

    def test_confident_probability_emits(self):
        msg = emit_feedback(self.window(), np.array([0.9, 0.04, 0.03, 0.03]), 0.5)
        assert msg is not None
        assert msg.label == "dribble" and msg.confidence == 0.9
        assert msg.csv_row().startswith("3,dribble,0.9,")

    def test_uniform_probabilities_suppressed(self):
        msg = emit_feedback(self.window(), np.full(4, 0.25), 0.5)
        assert msg is None

    def test_zero_threshold_always_emits(self):
        specs = [spec(1), spec(2)]
        report = run_simulation(specs, duration_us=8_000, seed=2, feedback_threshold=0.0)
        assert len(report.feedback) == len(report.window_rows)


class TestCameraConfig:
    def test_roundtrip(self):
        specs = [
            CameraSpec(1, 33333, 500, 100.0, 0.1),
            CameraSpec(2, 33333, -200, 0.0, 0.0),
        ]
        parsed = parse_camera_config(camera_config_text(specs))
        assert parsed == specs

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="^line 1: expected key=value"):
            parse_camera_config("id 1\n")
        with pytest.raises(ValueError, match="^line 1: missing field"):
            parse_camera_config("id=1\n")
        with pytest.raises(ValueError, match="no cameras"):
            parse_camera_config("# only a comment\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("id=x period_us=1000", "invalid literal for int"),
            ("id=1 period_us=0", "frame_period must be positive"),
            ("id=70000 period_us=1000", "camera_id must fit u16"),
            ("id=1 period_us=1000 jitter_us=nan", "jitter must be nonnegative and finite"),
            ("id=1 period_us=1000 drop_prob=1.5", r"drop_probability must be in \[0, 1\)"),
            ("id=1 period_us=33333 jiter_us=20000",
             "unknown key 'jiter_us'; valid keys: id, period_us, offset_us, jitter_us, drop_prob$"),
            ("id=1 period_us=33333 drop=0.5", "unknown key 'drop'"),
            ("id=2 period_us=33333 period_us=5", "key 'period_us' repeats$"),
            ("id=2 id=2 period_us=33333", "key 'id' repeats$"),
        ],
        ids=["non-integer-id", "zero-period", "id-over-u16", "nan-jitter", "drop-over-one",
             "misspelt-key", "unknown-key", "repeated-period", "repeated-id"],
    )
    def test_bad_value_names_its_line(self, line, message):
        with pytest.raises(ValueError, match=f"^line 3: {message}"):
            parse_camera_config(f"id=9 period_us=1000\n# spare\n{line}\n")

    def test_repeated_id_names_both_lines(self):
        text = "id=4 period_us=1000\n# spare\nid=4 period_us=2000\n"
        with pytest.raises(ValueError, match="^line 3: camera id 4 repeats line 1$"):
            parse_camera_config(text)

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -1.0])
    def test_jitter_must_be_finite_and_nonnegative(self, jitter):
        with pytest.raises(ValueError, match="jitter must be nonnegative and finite"):
            spec(1, jitter=jitter)
