import dataclasses
import functools
import math
import re
import threading
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import eitnet.stream
from eitnet import ACTION_LABELS, FRAME_HW
from eitnet.cli import _window_hook
from eitnet.fileio import parse_camera_config
from eitnet.rng import Rng, derive_seed
from eitnet.stream import (
    AssemblerStats,
    CameraCounts,
    CameraSpec,
    FeedbackMessage,
    IntegrityError,
    ProtocolError,
    SimulationReport,
    StreamError,
    StreamPacket,
    SyncWindow,
    TruncationError,
    WindowAssembler,
    _camera_sources,
    _percentile,
    calibrate_clocks,
    decode_packet,
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

    def test_decoded_packet_is_the_validated_packet(self):
        """decode_packet skips StreamPacket's checks but builds the same frozen object."""
        rng = Rng(316)
        for h, w in ((1, 1), (3, 5), (16, 16)):
            packet = make_packet(rng, camera_id=0xFFFF, seq=0xFFFFFFFF, ts=2**64 - 1, h=h, w=w)
            decoded = decode_packet(encode_packet(packet))
            assert type(decoded) is StreamPacket
            assert decoded == packet and hash(decoded) == hash(packet)
            assert repr(decoded) == repr(packet)
            assert dataclasses.astuple(decoded) == dataclasses.astuple(packet)
            with pytest.raises(dataclasses.FrozenInstanceError):
                decoded.timestamp_us = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                del decoded.payload

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("camera_id", 0x10000, "camera_id must fit u16"),
            ("camera_id", -1, "camera_id must fit u16"),
            ("sequence_no", 2**32, "sequence_no must fit u32"),
            ("timestamp_us", 2**64, "timestamp must fit u64"),
            ("timestamp_us", -1, "timestamp must fit u64"),
            ("height", 0x10000, "frame extents must fit u16"),
            ("width", -1, "frame extents must fit u16"),
            ("payload", bytes(15), "payload is 15 bytes for a 4x4 frame"),
        ],
    )
    def test_public_constructor_still_validates(self, field, value, message):
        fields = dict(camera_id=1, sequence_no=0, timestamp_us=0, height=4, width=4)
        fields["payload"] = bytes(16)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            StreamPacket(**fields)

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


def bubble_median_filter(frames):
    """Reference 3x3 filter: min/max bubble passes over the 9 shifted views of one padded copy."""
    h, w = frames.shape[-2:]
    padded = np.pad(frames, [(0, 0)] * (frames.ndim - 2) + [(1, 1)] * 2, mode="edge")
    values = [padded[..., i : i + h, j : j + w] for i in range(3) for j in range(3)]
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


# (leading axes, frame extents) for the kernel's property tests
FILTER_SHAPES = st.tuples(
    st.sampled_from([(1,), (256,), (2, 3), ()]),
    st.sampled_from([(3, 3), (5, 7), (16, 16)]),
)


class TestMedianFilter:
    def test_constant_frame_unchanged(self):
        frame = np.full((5, 5), 9.0)
        np.testing.assert_array_equal(median_filter(frame), frame)

    def test_isolated_speck_removed(self):
        frame = np.zeros((3, 3))
        frame[1, 1] = 255.0
        out = median_filter(frame)
        ref = oracles.median_filter_oracle(frame, 3)
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_matches_sort_oracle_on_random(self):
        rng = Rng(306)
        frame = rng.uniforms(7 * 6).reshape(7, 6) * 255
        np.testing.assert_array_equal(median_filter(frame), oracles.median_filter_oracle(frame, 3))

    def test_output_values_from_input_multiset(self):
        rng = Rng(307)
        frame = rng.uniforms(6 * 6).reshape(6, 6)
        out = median_filter(frame)
        values = set(frame.ravel().tolist())
        assert all(v in values for v in out.ravel().tolist())

    @pytest.mark.parametrize("hw", [(2, 5), (5, 2), (1, 1)])
    def test_rejects_frames_smaller_than_the_window(self, hw):
        with pytest.raises(ValueError, match=rf"^window 3 exceeds frame extents {hw[0]}x{hw[1]}$"):
            median_filter(np.zeros((4, *hw), dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("hw", [(5, 7), (7, 5), (6, 6), (3, 3)])
    def test_stack_matches_sort_oracle_frame_by_frame(self, dtype, hw):
        rng = Rng(313)
        frames = (rng.uniforms(4 * hw[0] * hw[1]) * 256).astype(dtype).reshape(4, *hw)
        out = median_filter(frames)
        assert out.dtype == dtype and out.shape == frames.shape
        for frame, got in zip(frames, out):
            ref = oracles.median_filter_oracle(frame.astype(np.float64), 3)
            np.testing.assert_array_equal(got, ref)

    @settings(max_examples=60, deadline=None, database=None)
    @given(FILTER_SHAPES, st.integers(0, 2**32), st.sampled_from([64, 1]))
    def test_uint8_bitwise_equal_to_bubble_filter(self, shape, seed, divisor):
        """Heavy ties (values // 64) and the full range, against the bubble-exchange reference."""
        lead, hw = shape
        size = math.prod(lead) * hw[0] * hw[1]
        frames = ((Rng(seed).uniforms(size) * 256).astype(np.uint8) // divisor).reshape(*lead, *hw)
        out = median_filter(frames)
        assert out.dtype == np.uint8 and out.shape == frames.shape and out.flags.c_contiguous
        np.testing.assert_array_equal(out, bubble_median_filter(frames))

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        st.tuples(st.integers(1, 3), st.integers(3, 7), st.integers(3, 7)).flatmap(
            lambda shape: hnp.arrays(
                np.float64, shape, elements=st.floats(-1e6, 1e6, allow_subnormal=False)
            )
        )
    )
    def test_float64_matches_sort_oracle(self, frames):
        out = median_filter(frames)
        assert out.dtype == np.float64 and out.shape == frames.shape and out.flags.c_contiguous
        for frame, got in zip(frames, out):
            np.testing.assert_array_equal(got, oracles.median_filter_oracle(frame, 3))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_strided_input_gives_contiguous_output(self, dtype):
        stack = (Rng(317).uniforms(6 * 7 * 9) * 256).astype(dtype).reshape(6, 7, 9)
        view = stack[::2, :, ::-1].transpose(0, 2, 1)  # [3, 9, 7], no axis contiguous
        out = median_filter(view)
        assert out.dtype == dtype and out.shape == (3, 9, 7) and out.flags.c_contiguous
        np.testing.assert_array_equal(out, bubble_median_filter(view))

    def test_leading_axes_are_independent_frames(self):
        frames = (Rng(313).uniforms(2 * 3 * 5 * 4) * 256).astype(np.uint8).reshape(2, 3, 5, 4)
        out = median_filter(frames)
        for a in range(2):
            for b in range(3):
                np.testing.assert_array_equal(out[a, b], median_filter(frames[a, b]))


class TestCalibration:
    def test_exact_offset_with_clean_samples(self):
        samples = {1: [(500, 0), (1500, 1000), (2500, 2000)]}
        offsets = calibrate_clocks(samples)
        assert offsets[1] == 500 and type(offsets[1]) is int

    def test_offset_past_2_53_stays_exact(self):
        big = 2**60 + 1  # float64 would round it to 2**60
        offsets = calibrate_clocks({1: [(big + 3, 3), (big + 10, 0), (big - 4, 0)]})
        assert offsets[1] == big and type(offsets[1]) is int

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

    def test_even_sample_count_rejected(self):
        with pytest.raises(ValueError, match=r"^camera 2: need an odd count >= 3 of handshake"):
            calibrate_clocks({1: [(0, 0)] * 5, 2: [(0, 0)] * 4})


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


def lazy_producers(specs, duration_us, seed, frame_hw):
    """{camera id: per_packet_producer's tuple}, from the lazy sources set up together.

    Each source is read to its end in turn.
    """
    counts = {s.camera_id: CameraCounts() for s in specs}
    samples, sources = _camera_sources(specs, duration_us, seed, frame_hw, counts)
    packets = {s.camera_id: list(source) for s, source in zip(specs, sources)}
    return {
        cid: (samples[cid], packets[cid], c.produced, c.dropped_link) for cid, c in counts.items()
    }


def lazy_producer(cam, duration_us, seed, frame_hw):
    """per_packet_producer's tuple from one camera's lazy source, read to its end."""
    return lazy_producers([cam], duration_us, seed, frame_hw)[cam.camera_id]


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
        label, top = ACTION_LABELS[int(probs.argmax())], float(probs.max())
        window_rows.append((window.window_index, window.completeness, label, top))
        if top >= feedback_threshold:
            latency = window.close_latency_us
            feedback.append(FeedbackMessage(window.window_index, label, top, latency))
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
    # first blocks of 255, 256, 256 and 256 frames in one setup pass; the last two
    # cameras (257 and 600 frames) draw their later blocks on their own
    "ragged-first-blocks": (
        [
            spec(1, period=236, offset=50, jitter=60.0, drop=0.1),
            spec(2, period=235, jitter=80.0, drop=0.2),
            spec(3, period=234, offset=-40, jitter=40.0, drop=0.05),
            spec(4, period=100, offset=120, jitter=30.0, drop=0.15),
        ],
        60_000, 30, (4, 4), 1000,
    ),
}

# perfbench's stream cameras: distinct offsets, 20 ms jitter on a 33 ms period, 5% link drops
BENCH_CAMERAS = parse_camera_config(
    "".join(
        f"id={cid} period_us=33333 offset_us={offset} jitter_us=20000 drop_prob=0.05\n"
        for cid, offset in ((1, 1500), (2, -2500), (3, 4000), (4, 750), (5, -1200))
    )
)


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

    @pytest.mark.parametrize("hw", [(2, 16), (16, 2), (0, 0), (70_000, 4), (4, 65_536)])
    def test_frame_extents_outside_3x3_to_u16_rejected_before_any_packet(self, monkeypatch, hw):
        def no_packets(*args):
            raise AssertionError("a packet source was made")

        monkeypatch.setattr(eitnet.stream, "_packets", no_packets)
        message = rf"^frame extents must be from 3x3 to 65535x65535, got {hw[0]}x{hw[1]}$"
        with pytest.raises(ValueError, match=message):
            run_simulation([spec(1)], duration_us=5_000, seed=1, frame_hw=hw)

    @pytest.mark.parametrize("hw", [(3, 3), (3, 65_535)])
    def test_frame_extents_at_the_limits_run(self, hw):
        report = run_simulation([spec(1), spec(2)], duration_us=3_000, seed=1, frame_hw=hw)
        assert sum(c.delivered for c in report.counts.values()) == 6

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

    @pytest.mark.parametrize(
        "probs, error",
        [
            ([0.1, 0.1, 0.1, 0.1, 0.6], r"got shape \(5,\)"),
            ([0.6, 0.1, 0.1, 0.1, 0.1], r"got shape \(5,\)"),
            ([0.2, 0.5, 0.3], r"got shape \(3,\)"),
            ([[0.9, 0.1], [0.0, 0.0]], r"got shape \(2, 2\)"),
            ([np.nan, 0.5, 0.25, 0.25], r"entry 0 is outside \[0, 1\]"),
            ([np.nan] * 4, r"entry 0 is outside \[0, 1\]"),
            ([5.0, 0.0, 0.0, 0.0], r"entry 0 is outside \[0, 1\]"),
            ([-0.1, 0.5, 0.3, 0.3], r"entry 0 is outside \[0, 1\]"),
            ([0.25, 0.25, np.nan, 1.5], r"entry 2 is outside \[0, 1\]"),
        ],
        ids=["five-top-last", "five-top-first", "three", "2x2", "one-nan", "all-nan", "above-one",
             "negative", "first-bad-named"],
    )
    def test_bad_hook_output_is_a_hook_failure(self, probs, error):
        specs = [spec(1), spec(2)]
        report = run_simulation(
            specs, duration_us=6_000, seed=2, pipeline_hook=lambda window: np.array(probs)
        )
        assert report.conservation_holds()
        assert [row[2:] for row in report.window_rows] == [("hook-error", 0.0)] * 6
        assert [idx for idx, _ in report.hook_failures] == [row[0] for row in report.window_rows]
        assert not report.feedback
        lines = report_csv_text(report, 2).splitlines()
        failures = [line for line in lines if line.startswith("# hook_failure")]
        assert len(failures) == 6
        prefix = r"# hook_failure window=\d+: hook must return 4 probabilities in \[0, 1\], "
        assert all(re.fullmatch(prefix + error, f) for f in failures)
        assert "nan" not in "".join(lines)

    @pytest.mark.parametrize(
        "message, written",
        [
            ("bad\nrow,1.0,x,0.5", r"bad\nrow,1.0,x,0.5"),
            ("a\r\nb\rc\vd\fe", r"a\r\nb\rc\x0bd\x0ce"),
            ("a\x1cb\x1dc\x1ed\x85e\u2028f\u2029", r"a\x1cb\x1dc\x1ed\x85e\u2028f\u2029"),
            ("trailing\n", r"trailing\n"),
            ("one line, a \\ and \u00fc\t kept", "one line, a \\ and \u00fc\t kept"),
        ],
        ids=["newline", "crlf-cr-vt-ff", "separators", "trailing", "one-line"],
    )
    def test_hook_failure_is_one_report_line(self, message, written):
        def hook(window):
            raise ValueError(message)

        report = run_simulation([spec(1), spec(2)], duration_us=3_000, seed=2, pipeline_hook=hook)
        assert report.hook_failures == [(i, message) for i in range(3)]  # the raw text
        text = report_csv_text(report, 2)
        clean = report_csv_text(dataclasses.replace(report, hook_failures=[]), 2)
        lines = text.splitlines()
        assert lines[: len(clean.splitlines())] == clean.splitlines()
        assert lines[len(clean.splitlines()) :] == [
            f"# hook_failure window={i}: {written}" for i in range(3)
        ]
        assert text.split("\n") == lines + [""]

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
        """Producer and decode build one packet each, both without re-validation."""
        built = Counter()
        original_check = StreamPacket.__post_init__
        original_trusted = eitnet.stream._trusted_packet

        def counting_check(self):
            built["validated"] += 1
            original_check(self)

        def counting_trusted(*fields):
            built["trusted"] += 1
            return original_trusted(*fields)

        monkeypatch.setattr(StreamPacket, "__post_init__", counting_check)
        monkeypatch.setattr(eitnet.stream, "_trusted_packet", counting_trusted)
        specs = [spec(cid, offset=100 * cid, jitter=300.0, drop=0.1) for cid in (1, 2, 3)]
        report = run_simulation(specs, duration_us=50_000, seed=11)
        delivered = sum(c.delivered for c in report.counts.values())
        assert delivered > 0 and built["trusted"] == 2 * delivered
        assert built["validated"] == 0

    def test_frame_of_wrong_extents_rejected(self, monkeypatch):
        original = eitnet.stream._packets

        def one_wide_camera(spec, rng, n, grid, *rest):
            if spec.camera_id == 2:
                grid = grid.reshape(8, 32)  # as many bytes as 16x16
            return original(spec, rng, n, grid, *rest)

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

    def test_setup_draws_every_camera_in_one_pass(self, monkeypatch):
        """1, 5 or 65 cameras of different periods and at most 256 frames make one _raw_rows
        pass.  At 60 ms, the 5 cameras' 600, 438, 345, 285 and 242 frames add one pass per
        later block, 5 in all."""
        raw_rows = eitnet.stream._raw_rows
        passes = []

        def counting(*args):
            passes[-1] += 1
            return raw_rows(*args)

        monkeypatch.setattr(eitnet.stream, "_raw_rows", counting)
        for cameras, duration in ((1, 25_600), (5, 25_600), (65, 25_600), (5, 60_000)):
            specs = [
                spec(cid, period=100 + 37 * ((cid - 1) % 7), jitter=50.0, drop=0.1)
                for cid in range(1, cameras + 1)
            ]
            passes.append(0)
            report = run_simulation(specs, duration, seed=31, frame_hw=(4, 4))
            assert report.counts[1].produced == -(-duration // 100)
            assert report.conservation_holds()
        assert passes == [1, 1, 1, 6]

    def test_window_hook_mean_equals_np_mean(self):
        """On uint8 frames, and on the integer-valued float64 frames the per-packet reference
        passes, the hook's sum gives the probabilities of np.mean's mean frame, bitwise."""
        rng = Rng(314)
        hook = _window_hook(5, (4, 4))
        for dtype in (np.uint8, np.float64):
            for trial in range(200):
                frames = {
                    cid: np.floor(rng.uniforms(16).reshape(4, 4) * 256).astype(dtype)
                    for cid in range(1 + trial % 5)
                }
                mean_frame = np.mean(list(frames.values()), axis=0)
                got = hook(SyncWindow(trial, frames, 1.0))
                ref = hook(SyncWindow(trial, {0: mean_frame}, 1.0))
                np.testing.assert_array_equal(got, ref)

    def test_hook_gets_filtered_uint8_rows(self):
        """Each window frame is a uint8 [H, W] view of a filtered block, not a float64 copy."""
        specs = [spec(cid, offset=100 * cid) for cid in (1, 2, 3)]
        duration, seed, frame_hw = 200_000, 9, (5, 7)  # 600 packets, filtered in 3 blocks
        filtered = {}
        for cam in specs:
            for _, cid, blob in lazy_producer(cam, duration, seed, frame_hw)[1]:
                packet = decode_packet(blob)
                filtered[cid, packet.sequence_no] = per_frame_median_filter(packet_frame(packet), 3)
        seen = {}

        def hook(window):
            seen[window.window_index] = window.frames
            return np.full(len(ACTION_LABELS), 1.0 / len(ACTION_LABELS))

        run_simulation(specs, duration, seed, hook, frame_hw=frame_hw)
        # no jitter, so window k holds every camera's frame k
        assert sorted(seen) == list(range(200))
        for index, frames in seen.items():
            assert sorted(frames) == [1, 2, 3]
            for cid, frame in frames.items():
                assert frame.dtype == np.uint8 and frame.shape == frame_hw
                assert not frame.flags.owndata
                np.testing.assert_array_equal(frame, filtered[cid, index])

    def test_pending_windows_stay_bounded(self, monkeypatch):
        """Under the benchmark's lossy cameras, the pending windows and the filtered blocks
        their frames keep alive peak as high in a 2 s run as in a 20 s one (3 and 2 here)."""
        push = WindowAssembler.push

        def block_of(frame):
            while frame.base is not None:
                frame = frame.base
            return id(frame)

        peaks = []
        for duration in (2_000_000, 20_000_000):
            pending = blocks = 0

            def recording(self, *args):
                nonlocal pending, blocks
                closed = push(self, *args)
                held = [f for bucket in self._pending.values() for f in bucket.values()]
                held += [f for window in closed for f in window.frames.values()]
                pending = max(pending, len(self._pending))
                blocks = max(blocks, len({block_of(f) for f in held}))
                return closed

            monkeypatch.setattr(WindowAssembler, "push", recording)
            hook = _window_hook(7, FRAME_HW)
            report = run_simulation(BENCH_CAMERAS, duration, 7, hook, feedback_threshold=0.35)
            assert report.conservation_holds() and report.dropped_late > 0
            peaks.append((pending, blocks))
        assert peaks[0] == peaks[1]


class TestBlockEquivalence:
    """The block consumer and producer against the per-packet reference loops."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_producer_matches_per_packet_loop(self, case):
        specs, duration, seed, frame_hw, _ = EQUIVALENCE_CASES[case]
        got = lazy_producers(specs, duration, seed, frame_hw)
        for cam in specs:
            assert got[cam.camera_id] == per_packet_producer(cam, duration, seed, frame_hw, 5)

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
        specs, duration, seed, frame_hw, window = EQUIVALENCE_CASES["ragged-first-blocks"]
        report = run_simulation(specs, duration, seed, frame_hw=frame_hw, window_period_us=window)
        assert [report.counts[s.camera_id].produced for s in specs] == [255, 256, 257, 600]
        assert all(c.dropped_link > 0 for c in report.counts.values())

    def test_filter_calls_stay_within_the_block_cap(self, monkeypatch):
        shapes = []
        original = eitnet.stream.median_filter

        def recording(frames):
            shapes.append(np.shape(frames))
            return original(frames)

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
    @staticmethod
    def constant_run(probs):
        """A two-camera run whose hook returns probs for every window, and each window's latency."""
        latencies = {}

        def hook(window):
            latencies[window.window_index] = window.close_latency_us
            return probs

        report = run_simulation([spec(1), spec(2)], duration_us=8_000, seed=2, pipeline_hook=hook)
        return report, latencies

    def test_confident_probability_emits(self):
        report, latencies = self.constant_run(np.array([0.9, 0.04, 0.03, 0.03]))
        assert len(report.feedback) == len(report.window_rows) == 8
        assert [(m.window_index, m.latency_us) for m in report.feedback] == list(latencies.items())
        for message in report.feedback:
            assert message.label == "dribble" and message.confidence == 0.9
            assert message.csv_row().startswith(f"{message.window_index},dribble,0.9,")

    def test_threshold_is_inclusive_and_a_list_is_accepted(self):
        report, _ = self.constant_run([0.5, 0.2, 0.2, 0.1])
        assert not report.hook_failures
        assert [(m.label, m.confidence) for m in report.feedback] == [("dribble", 0.5)] * 8

    def test_uniform_probabilities_suppressed(self):
        report, latencies = self.constant_run(np.full(4, 0.25))
        assert len(report.window_rows) == len(latencies) == 8 and not report.feedback

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
