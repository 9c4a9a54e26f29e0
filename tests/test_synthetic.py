import hashlib
import math

import numpy as np
import pytest

from eitnet import ACTION_LABELS
from eitnet.metrics import SUBJECT_IDS, VIEW_IDS, SkeletonPose
from eitnet.rng import Rng, derive_seed
from eitnet.synthetic import (
    _BALL_BLOB,
    _BASE_JOINTS_MM,
    _JOINT_BLOB,
    FRAME_HW,
    FRAMES,
    NOISE,
    DatasetConfig,
    SampleSet,
    SyntheticAction,
    _pixels,
    _render_clip,
    _source_pixels,
    _view_rotation,
    augment,
    generate_synthetic_dataset,
    pose_bounding_box,
)


def small_config():
    return DatasetConfig(repetitions=1)


def per_frame_rotate(clip, angle_deg):
    """The per-(channel, frame) rotation loop, kept as the reference for ``augment``'s."""
    c, t, h, w = clip.shape
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows = np.arange(h)[:, None] - cy
    cols = np.arange(w)[None, :] - cx
    src_r = np.rint(cos_t * rows + sin_t * cols + cy).astype(int)
    src_c = np.rint(-sin_t * rows + cos_t * cols + cx).astype(int)
    valid = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    src_r_safe = np.clip(src_r, 0, h - 1)
    src_c_safe = np.clip(src_c, 0, w - 1)
    out = np.zeros_like(clip)
    for ci in range(c):
        for ti in range(t):
            plane = clip[ci, ti][src_r_safe, src_c_safe]
            out[ci, ti] = np.where(valid, plane, 0.0)
    return out


def augment_draws(seed):
    """(mirror, angle) of one clip's stream, drawn after the two a full-frame crop once took."""
    rng = Rng(seed)
    rng.next_u64()
    rng.next_u64()
    return rng.uniform() < 0.5, (2.0 * rng.uniform() - 1.0) * 15.0


def per_clip_augment(clip, seed):
    """One clip mirrored and rotated as the per-clip kernels that ``augment``'s one gather
    replaced did it, kept as its reference."""
    flip, angle = augment_draws(seed)
    return per_frame_rotate(clip[..., ::-1] if flip else clip, angle)


def gather(clips, flips, angles_deg):
    """A [B, C, T, H, W] stack through ``_source_pixels``' index for the given draws."""
    b, c, t, h, w = clips.shape
    index, valid = _source_pixels(h, w, flips, angles_deg)
    frames = np.take_along_axis(clips.reshape(b, c * t, h * w), index, axis=2)
    return np.where(valid, frames, 0.0).reshape(clips.shape)


def per_frame_render_pose(pose, height, width, ball_mm=None):
    """The one-frame renderer that ``_render_clip`` replaced, kept as its reference."""
    mm_per_px = 1600.0 / min(height, width)
    frame = np.zeros((height, width))
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    points = [(x, y, 1.0, 1.3) for x, y, _ in pose.joints]
    if ball_mm is not None:
        points.append((ball_mm[0], ball_mm[1], 1.4, 1.6))
    for x, y, gain, sigma in points:
        px = (width - 1) / 2.0 + x / mm_per_px
        py = (height - 1) * 0.92 - y / mm_per_px
        frame += gain * np.exp(-((rows - py) ** 2 + (cols - px) ** 2) / (2.0 * sigma**2))
    return np.clip(frame, 0.0, 1.0)


def _motion_template(label, tau, amp, phase):
    """Joint offsets (mm) at normalized time tau in [0, 1], one frame of one sample."""
    offsets = np.zeros((5, 3))
    if label == "dribble":
        bounce = abs(math.sin(2.0 * math.pi * (2.0 * tau + phase)))
        offsets[1, 1] = -380.0 * amp * bounce  # both hands pump downward
        offsets[2, 1] = -380.0 * amp * bounce
    elif label == "shoot":
        rise = (max(tau + phase, 0.0)) ** 1.5
        offsets[1, 1] = 540.0 * amp * rise
        offsets[2, 1] = 540.0 * amp * rise
        offsets[1, 0] = 150.0 * amp * rise  # hands come together overhead
        offsets[2, 0] = -150.0 * amp * rise
        offsets[0, 1] = 60.0 * amp * rise
    elif label == "pass":
        spread = math.sin(math.pi * (tau + phase))
        offsets[1, 0] = -440.0 * amp * spread  # hands spread apart and return
        offsets[2, 0] = 440.0 * amp * spread
        offsets[1, 1] = 80.0 * amp * spread
        offsets[2, 1] = 80.0 * amp * spread
    elif label == "jump":
        lift = math.sin(math.pi * (tau + phase))
        offsets[:, 1] += 430.0 * amp * lift  # whole body rises and lands
    else:
        raise ValueError(f"unknown label {label!r}")
    return offsets


def _ball_position(label, tau, amp):
    """World-space ball center per class at one frame; a jump carries no ball."""
    if label == "dribble":
        bounce = abs(math.sin(2.0 * math.pi * 2.0 * tau))
        return np.array([0.0, 400.0 - 360.0 * amp * bounce, 80.0])
    if label == "shoot":
        rise = tau**1.5
        return np.array([0.0, 560.0 + 840.0 * amp * rise, 60.0])
    if label == "pass":
        spread = math.sin(math.pi * tau)
        return np.array([0.0, 520.0 + 90.0 * spread, 60.0 + 500.0 * amp * spread])
    return None


def per_frame_sample(subject_id, view_id, label, rng):
    """The frame-by-frame, sample-by-sample loop the group build and render replaced, kept as its
    reference: scalar motion templates, one camera product per frame, one render per frame."""
    build = 0.85 + 0.03 * (subject_id - 1)
    amp = 1.0 + 0.12 * (rng.uniform() - 0.5)
    phase = 0.08 * (rng.uniform() - 0.5)
    rot = _view_rotation(view_id)
    poses = []
    h, w = FRAME_HW
    frames = np.empty((1, FRAMES, h, w))
    for t in range(FRAMES):
        tau = t / (FRAMES - 1)
        world = build * (_BASE_JOINTS_MM + _motion_template(label, tau, amp, phase))
        camera = world @ rot.T
        pose = SkeletonPose(joints=camera)
        poses.append(pose)
        ball = _ball_position(label, tau, amp)
        ball_cam = build * ball @ rot.T if ball is not None else None
        frame = per_frame_render_pose(pose, h, w, ball_mm=ball_cam)
        frame = frame + NOISE * rng.normals(frame.size).reshape(frame.shape)
        frames[0, t] = np.clip(frame, 0.0, 1.0)
    return frames, poses


def whole_stack_render(points, blobs, height, width):
    """The render that built all P points' Gaussians as one [P, G, T, H, W] stack, kept as the
    reference of the point-by-point ``_render_clip``."""
    gain = np.array([g for g, _ in blobs])[:, None, None, None, None]
    spread = np.array([2.0 * sigma**2 for _, sigma in blobs])[:, None, None, None, None]
    x, y = points[..., :2].transpose(3, 2, 0, 1)  # [P, G, T] each
    px, py = (p[..., None, None] for p in _pixels(x, y, height, width))  # [P, G, T, 1, 1]
    frames = np.zeros((*points.shape[:2], height, width))
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    gaussians = (rows - py) ** 2 + (cols - px) ** 2
    np.divide(gaussians, -spread, out=gaussians)
    np.exp(gaussians, out=gaussians)
    np.multiply(gain, gaussians, out=gaussians)
    for gaussian in gaussians:
        frames += gaussian
    return np.clip(frames, 0.0, 1.0, out=frames)[:, None]


def per_pose_bounding_box(pose, height, width, margin_px=1.5):
    """The one-pose box that ``pose_bounding_box`` replaced, kept as its reference."""
    mm_per_px = 1600.0 / min(height, width)
    px = (width - 1) / 2.0 + pose.joints[:, 0] / mm_per_px
    py = (height - 1) * 0.92 - pose.joints[:, 1] / mm_per_px
    x0 = max(px.min() - margin_px, 0.0)
    x1 = min(px.max() + margin_px, float(width))
    y0 = max(py.min() - margin_px, 0.0)
    y1 = min(py.max() + margin_px, float(height))
    return ((x0 + x1) / 2.0, (y0 + y1) / 2.0, max(x1 - x0, 1.0), max(y1 - y0, 1.0))


def assert_equal_per_frame_reference(config, seed):
    """Every sample, in order, byte-equal to ``per_frame_sample`` on its own stream."""
    samples = generate_synthetic_dataset(config, seed=seed)
    keys = [
        (s, v, label, rep)
        for s in SUBJECT_IDS
        for v in VIEW_IDS
        for label in ACTION_LABELS
        for rep in range(config.repetitions)
    ]
    assert [(x.subject_id, x.view_id, x.label) for x in samples] == [k[:3] for k in keys]
    for sample, key in zip(samples, keys):
        clip, poses = per_frame_sample(*key[:3], Rng(derive_seed(seed, "sample", *key)))
        assert sample.clip.tobytes() == clip.tobytes(), key
        assert sample.joints.shape == (FRAMES, 5, 3) and not sample.joints.flags.writeable, key
        want = b"".join(p.joints.tobytes() for p in poses)
        assert sample.joints.tobytes() == want, key
        assert b"".join(p.joints.tobytes() for p in sample.poses) == want, key


def flatten_trajectory(sample):
    return np.concatenate([p.joints.ravel() for p in sample.poses])


class TestGenerator:
    def test_counts_and_balance(self):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=2), seed=7)
        assert len(samples) == 400
        per_label = {label: 0 for label in ACTION_LABELS}
        for s in samples:
            per_label[s.label] += 1
        assert set(per_label.values()) == {100}

    def test_same_seed_bit_identical(self):
        a = generate_synthetic_dataset(small_config(), seed=3)
        b = generate_synthetic_dataset(small_config(), seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.clip, y.clip)
            for px, py in zip(x.poses, y.poses):
                np.testing.assert_array_equal(px.joints, py.joints)

    def test_different_seed_differs(self):
        a = generate_synthetic_dataset(small_config(), seed=3)
        b = generate_synthetic_dataset(small_config(), seed=4)
        assert any(not np.array_equal(x.clip, y.clip) for x, y in zip(a, b))

    def test_clip_range_and_shapes(self):
        samples = generate_synthetic_dataset(small_config(), seed=5)
        for s in samples[:20]:
            assert s.clip.shape == (1, 8, 16, 16)
            assert s.clip.min() >= 0.0 and s.clip.max() <= 1.0
            assert len(s.poses) == 8
            assert all(p.count == 5 for p in s.poses)

    @pytest.mark.parametrize("hw", [(16, 16), (12, 20)])
    def test_pose_boxes_equal_per_pose_reference_bitwise(self, hw):
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=1), seed=7)
        poses = [p for s in samples for p in s.poses]
        # joints far outside the frame too, so the clamps and the 1-pixel floor act
        joints = Rng(36).normals(50 * 5 * 3).reshape(50, 5, 3) * 3000.0
        poses += [SkeletonPose(joints=j) for j in joints]
        got = pose_bounding_box(np.stack([p.joints for p in poses]), *hw)
        want = np.array([per_pose_bounding_box(p, *hw) for p in poses])
        assert got.shape == (len(poses), 4) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("hw", [(16, 16), (12, 20)])
    @pytest.mark.parametrize("ball", [False, True], ids=["no-ball", "ball"])
    @pytest.mark.parametrize("group", [1, 10])
    def test_render_equals_whole_stack_reference_bitwise(self, group, ball, hw):
        n_points = 6 if ball else 5
        blobs = [_JOINT_BLOB] * 5 + [_BALL_BLOB] * (n_points - 5)
        rng = Rng(98 + group + ball)
        # points around the figure's rest pose, some off the frame, some blobs overlapping
        points = _BASE_JOINTS_MM[[0, 1, 2, 3, 4, 1][:n_points]] + 400.0 * rng.normals(
            group * FRAMES * n_points * 3
        ).reshape(group, FRAMES, n_points, 3)
        got = np.full((group, 1, FRAMES, *hw), np.nan)  # the render overwrites its rows
        assert _render_clip(points, blobs, got[:, 0]) is None
        want = whole_stack_render(points, blobs, *hw)
        assert got.max() == 1.0
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [3, 7])
    def test_clips_and_poses_equal_per_frame_reference_bitwise(self, seed):
        assert_equal_per_frame_reference(small_config(), seed)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_groups_of_three_equal_per_frame_reference_bitwise(self, seed):
        assert_equal_per_frame_reference(DatasetConfig(repetitions=3), seed)

    def test_dataset_digest_pinned(self):
        """SHA-256 of the seed-7 dataset (each clip's bytes, then its poses' joint bytes)."""
        digest = hashlib.sha256()
        for sample in generate_synthetic_dataset(small_config(), seed=7):
            digest.update(sample.clip.tobytes())
            for pose in sample.poses:
                digest.update(pose.joints.tobytes())
        assert digest.hexdigest() == (
            "bf4a65ff496573a595239d0f120687a5c3187947259ddf9808e0a91c33227c3b"
        )

    def test_centroid_classifier_separates_classes(self):
        """Generator sanity oracle: nearest centroid on raw pose trajectories."""
        samples = generate_synthetic_dataset(DatasetConfig(repetitions=2), seed=7)
        vectors = np.stack([flatten_trajectory(s) for s in samples])
        labels = np.array([s.label_index for s in samples])
        centroids = np.stack([vectors[labels == k].mean(axis=0) for k in range(4)])
        dists = ((vectors[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        predicted = dists.argmin(axis=1)
        acc = 100.0 * np.mean(predicted == labels)
        assert acc > 90.0


class TestSampleSet:
    @pytest.fixture(scope="class")
    def samples(self):
        return generate_synthetic_dataset(DatasetConfig(repetitions=2), seed=7)

    def test_arrays_are_read_only_rows(self, samples):
        assert samples.clips.shape == (400, 1, FRAMES, *FRAME_HW)
        assert samples.joints.shape == (400, FRAMES, 5, 3)
        for array in (samples.clips, samples.joints, samples.labels, samples.subject_ids,
                      samples.view_ids):
            assert len(array) == len(samples) == 400 and not array.flags.writeable

    @pytest.mark.parametrize("index", [0, 37, 399, -1, np.int64(250)])
    def test_integer_index_is_the_reference_sample_bitwise(self, samples, index):
        record = samples[index]
        assert isinstance(record, SyntheticAction)
        row = int(index) % len(samples)
        keys = [(s, v, label, rep) for s in SUBJECT_IDS for v in VIEW_IDS
                for label in ACTION_LABELS for rep in range(2)]
        key = keys[row]
        assert (record.subject_id, record.view_id, record.label) == key[:3]
        assert type(record.subject_id) is int and type(record.view_id) is int
        clip, poses = per_frame_sample(*key[:3], Rng(derive_seed(7, "sample", *key)))
        assert record.clip.tobytes() == clip.tobytes()
        assert record.joints.tobytes() == b"".join(p.joints.tobytes() for p in poses)
        assert np.shares_memory(record.clip, samples.clips)
        assert np.shares_memory(record.joints, samples.joints)
        assert not record.clip.flags.writeable and not record.joints.flags.writeable

    def test_slice_shares_memory_with_the_set(self, samples):
        part = samples[10:30:2]
        assert isinstance(part, SampleSet) and len(part) == 10
        assert np.shares_memory(part.clips, samples.clips)
        assert np.shares_memory(part.joints, samples.joints)
        assert part[3].clip.tobytes() == samples[16].clip.tobytes()
        assert part.labels.tolist() == samples.labels[10:30:2].tolist()

    def test_index_arrays_and_masks_give_read_only_sets(self, samples):
        rows = [5, 2, 399, 5]
        mask = samples.view_ids == 3
        for index, want in ((np.array(rows), rows), (rows, rows), (mask, np.flatnonzero(mask))):
            part = samples[index]
            assert isinstance(part, SampleSet) and len(part) == len(want)
            for name in ("clips", "joints", "labels", "subject_ids", "view_ids"):
                got = getattr(part, name)
                assert not got.flags.writeable, name
                assert got.tobytes() == getattr(samples, name)[want].tobytes(), name
        assert set(samples[mask].view_ids.tolist()) == {3}

    def test_of_a_set_is_itself_and_of_its_records_round_trips(self, samples):
        assert SampleSet.of(samples) is samples
        records = list(samples)
        assert len(records) == 400 and all(isinstance(r, SyntheticAction) for r in records)
        again = SampleSet.of(records)
        for name in ("clips", "joints", "labels", "subject_ids", "view_ids"):
            got, want = getattr(again, name), getattr(samples, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        assert [s.label_index for s in records] == samples.labels.tolist()


class TestAugment:
    def clip(self, seed=90):
        return np.abs(Rng(seed).normals(1 * 4 * 16 * 16)).reshape(1, 4, 16, 16).clip(0, 1)

    def test_double_flip_is_identity(self):
        clip = self.clip()[None]
        index, valid = _source_pixels(16, 16, [True], [0.0])
        assert index.reshape(16, 16).tolist() == np.arange(256).reshape(16, 16)[:, ::-1].tolist()
        assert valid.all()
        assert gather(gather(clip, [True], [0.0]), [True], [0.0]).tobytes() == clip.tobytes()

    def test_zero_rotation_is_identity(self):
        for h, w in [(16, 16), (7, 12), (5, 3)]:
            index, valid = _source_pixels(h, w, [False], [0.0])
            assert index.shape == valid.shape == (1, 1, h * w)
            assert index.ravel().tolist() == list(range(h * w)) and valid.all()

    def test_fixed_seed_reproducible(self):
        clips = np.stack([self.clip(90), self.clip(91), self.clip(92)])
        a = augment(clips, [42, 43, 44])
        b = augment(clips, [42, 43, 44])
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 1, 4, 16, 16) and a.flags.c_contiguous

    @pytest.mark.parametrize("seed", range(6))
    def test_flip_and_angle_follow_two_leading_draws(self, seed):
        """The stream opens with the two draws a full-frame crop once took."""
        clip = self.clip()
        got = augment(clip[None], [seed])
        assert got.shape == (1, *clip.shape)
        assert got[0].tobytes() == per_clip_augment(clip, seed).tobytes()

    @pytest.mark.parametrize(
        "shape", [(1, 1, 8, 16, 16), (8, 1, 8, 16, 16), (3, 2, 3, 7, 12), (4, 1, 5, 3, 3)]
    )
    def test_stack_equals_per_clip_reference_bitwise(self, shape):
        rng = Rng(93)
        clips = rng.normals(math.prod(shape)).reshape(shape)
        seeds = [derive_seed(7, "aug", 1, i) for i in range(shape[0])]
        got = augment(clips, seeds)
        want = np.stack([per_clip_augment(clip, seed) for clip, seed in zip(clips, seeds)])
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        if shape[0] == 8:  # the stack mixes mirrored and unmirrored clips
            assert {augment_draws(seed)[0] for seed in seeds} == {True, False}

    def test_seed_count_must_match_the_stack(self):
        with pytest.raises(ValueError, match="2 augmentation seeds for 3 clips"):
            augment(np.zeros((3, 1, 2, 4, 4)), [1, 2])

    def test_clip_validated_once_per_call(self, monkeypatch):
        from eitnet import synthetic

        calls = []
        real = synthetic.as_tensor
        monkeypatch.setattr(
            synthetic, "as_tensor", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        monkeypatch.setattr(synthetic, "FLIP_PROB", 1.0)  # take every step
        augment(np.stack([self.clip(90), self.clip(91), self.clip(92)]), [42, 43, 44])
        assert len(calls) == 1

    def test_rotation_stays_in_range(self):
        clip = self.clip()[None]
        out = gather(clip, [False], [15.0])
        assert out.shape == clip.shape
        assert out.min() >= 0.0 and out.max() <= clip.max() + 1e-12

    def test_rotation_matches_per_frame_loop_bitwise(self):
        rng = Rng(91)
        angles = [15.0, -7.5, 33.0, 90.0, 1e-9, 0.0]
        flips = [False, True, True, False, False, True]
        for shape in [(1, 4, 16, 16), (2, 3, 7, 12), (1, 1, 5, 3)]:
            clip = rng.normals(math.prod(shape)).reshape(shape)
            out = gather(np.stack([clip] * len(angles)), flips, angles)
            for row, flip, angle in zip(out, flips, angles):
                ref = per_frame_rotate(clip[..., ::-1] if flip else clip, angle)
                assert row.tobytes() == ref.tobytes(), (shape, flip, angle)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(repetitions=0)
        for repetitions in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="repetitions must be an integer"):
                DatasetConfig(repetitions=repetitions)
