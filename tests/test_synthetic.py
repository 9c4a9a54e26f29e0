import math

import numpy as np
import pytest

from eitnet import ACTION_LABELS
from eitnet.metrics import SkeletonPose
from eitnet.rng import Rng
from eitnet.synthetic import (
    DatasetConfig,
    augment,
    generate_synthetic_dataset,
    horizontal_flip,
    pose_bounding_box,
    random_crop,
    rotate_frames,
)


def small_config():
    return DatasetConfig(repetitions=1)


def per_frame_rotate(clip, angle_deg):
    """The per-(channel, frame) loop that ``rotate_frames`` replaced, kept as its reference."""
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


class TestAugment:
    def clip(self, seed=90):
        return np.abs(Rng(seed).normals(1 * 4 * 16 * 16)).reshape(1, 4, 16, 16).clip(0, 1)

    def test_double_flip_is_identity(self):
        clip = self.clip()
        np.testing.assert_array_equal(horizontal_flip(horizontal_flip(clip)), clip)

    def test_zero_rotation_full_crop_is_identity(self):
        clip = self.clip()
        out = rotate_frames(random_crop(clip, (16, 16), Rng(1)), 0.0)
        np.testing.assert_array_equal(out, clip)

    def test_fixed_seed_reproducible(self):
        clip = self.clip()
        a = augment(clip, seed=42, crop_hw=(14, 14))
        b = augment(clip, seed=42, crop_hw=(14, 14))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 4, 14, 14)

    def test_clip_validated_once_per_call(self, monkeypatch):
        from eitnet import synthetic

        calls = []
        real = synthetic.as_tensor
        monkeypatch.setattr(
            synthetic, "as_tensor", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        monkeypatch.setattr(synthetic, "FLIP_PROB", 1.0)  # take every step
        augment(self.clip(), seed=42, crop_hw=(14, 14))
        assert len(calls) == 1

    def test_oversized_crop_raises(self):
        with pytest.raises(ValueError, match="larger than clip"):
            random_crop(self.clip(), (32, 32), Rng(1))

    def test_default_crop_constant_retained(self):
        from eitnet.synthetic import DEFAULT_CROP_HW

        assert DEFAULT_CROP_HW == (224, 224)

    def test_rotation_stays_in_range(self):
        clip = self.clip()
        out = rotate_frames(clip, 15.0)
        assert out.shape == clip.shape
        assert out.min() >= 0.0 and out.max() <= clip.max() + 1e-12

    def test_rotation_matches_per_frame_loop_bitwise(self):
        rng = Rng(91)
        for shape in [(1, 4, 16, 16), (2, 3, 7, 12), (1, 1, 5, 3)]:
            clip = rng.normals(math.prod(shape)).reshape(shape)
            for angle in (15.0, -7.5, 33.0, 90.0, 1e-9):
                out = rotate_frames(clip, angle)
                assert out.flags.c_contiguous
                assert out.tobytes() == per_frame_rotate(clip, angle).tobytes(), (shape, angle)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(repetitions=0)
