"""Kernel math against brute-force oracles, plus the fixed hand cases."""

import math
import tracemalloc

import numpy as np
import pytest

from eitnet import FRAMES, tensorops
from eitnet.fileio import load_tensor, save_tensor
from eitnet.pipeline import PipelineConfig, PipelineModel
from eitnet.rng import Rng
from eitnet.tensorops import (
    ConvSpec,
    as_tensor,
    batch_norm,
    conv3d,
    count_macs,
    global_avg_pool,
    layer_norm,
    linear,
    pool3d_max,
    relu,
    softmax,
)

import oracles


def random_shape(rng, ndim, hi=6):
    return tuple(1 + rng.below(hi) for _ in range(ndim))


class TestTensorValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_tensor([1.0, np.nan])

    def test_rejects_rank_zero_and_six(self):
        with pytest.raises(ValueError):
            as_tensor(3.5)
        with pytest.raises(ValueError):
            as_tensor(np.zeros((1, 1, 1, 1, 1, 1)))

    def test_serialization_roundtrip(self, tmp_path):
        rng = Rng(11)
        x = rng.normals(2 * 3 * 4).reshape(2, 3, 4)
        path = tmp_path / "t.bin"
        save_tensor(path, x)
        back = load_tensor(path)
        assert back.shape == (2, 3, 4)
        np.testing.assert_array_equal(back, x)

    def test_serialization_layout(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensor(path, np.array([[1.0, 2.0]]))
        blob = path.read_bytes()
        assert blob[:4] == b"EITT"
        assert blob[4] == 2
        assert blob[5:13] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert len(blob) == 13 + 16

    def test_save_writes_the_payload_without_copying_it(self, tmp_path):
        x = Rng(12).normals(512 * 1024).reshape(512, 1024)  # a 4 MiB payload
        path = tmp_path / "big.bin"
        tracemalloc.start()
        try:
            save_tensor(path, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4, peak
        header = b"EITT\x02" + (512).to_bytes(4, "little") + (1024).to_bytes(4, "little")
        assert path.read_bytes() == header + x.astype("<f8").tobytes()

    def test_element_count_past_2_63_fails_the_length_check(self, tmp_path):
        """65536**4 elements wrap to 0 in int64; the exact count names the real length."""
        path = tmp_path / "huge.bin"
        extents = b"".join(n.to_bytes(4, "little") for n in (65536, 65536, 65536, 65536, 1))
        path.write_bytes(b"EITT\x05" + extents)
        message = f"^tensor file length 25 != expected {25 + 8 * 2**64}$"
        with pytest.raises(ValueError, match=message):
            load_tensor(path)


class TestConv3d:
    def test_delta_kernel_is_identity(self):
        rng = Rng(1)
        x = rng.normals(3 * 4 * 5 * 5).reshape(3, 4, 5, 5)
        w = np.zeros((3, 3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1, 1] = 1.0
        spec = ConvSpec(kernel=(3, 3, 3), padding=(1, 1, 1))
        out = conv3d(x, w, spec, bias=np.zeros(3))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_all_ones_sums_to_27(self):
        x = np.ones((1, 3, 3, 3))
        w = np.ones((1, 1, 3, 3, 3))
        out = conv3d(x, w, ConvSpec(kernel=(3, 3, 3)), bias=np.zeros(1))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 27.0

    def test_matches_nested_loop_oracle(self):
        rng = Rng(2)
        x = rng.normals(2 * 4 * 4 * 4).reshape(2, 4, 4, 4)
        w = rng.normals(2 * 2 * 27).reshape(2, 2, 3, 3, 3)
        b = rng.normals(2)
        spec = ConvSpec(kernel=(3, 3, 3), stride=(1, 2, 1), padding=(1, 0, 1))
        out = conv3d(x, w, spec, bias=b)
        ref = oracles.conv3d_oracle(x, w, spec.stride, spec.padding, b)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_empty_output_raises(self):
        x = np.ones((1, 2, 2, 2))
        w = np.ones((1, 1, 3, 3, 3))
        with pytest.raises(ValueError, match="empty output"):
            conv3d(x, w, ConvSpec(kernel=(3, 3, 3)), bias=np.zeros(1))

    def test_linearity_in_input(self):
        rng = Rng(3)
        x = rng.normals(2 * 3 * 3 * 3).reshape(2, 3, 3, 3)
        y = rng.normals(2 * 3 * 3 * 3).reshape(2, 3, 3, 3)
        w = rng.normals(2 * 2 * 8).reshape(2, 2, 2, 2, 2)
        spec = ConvSpec(kernel=(2, 2, 2))
        a, b = 1.7, -0.4
        lhs = conv3d(a * x + b * y, w, spec)
        rhs = a * conv3d(x, w, spec) + b * conv3d(y, w, spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_bias_is_added_exactly_when_given(self):
        rng = Rng(4)
        x = rng.normals(2 * 3 * 3 * 3).reshape(2, 3, 3, 3)
        w = rng.normals(2 * 2 * 8).reshape(2, 2, 2, 2, 2)
        b = rng.normals(2)
        spec = ConvSpec(kernel=(2, 2, 2))
        want = conv3d(x, w, spec) + b[:, None, None, None]
        assert conv3d(x, w, spec, bias=b).tobytes() == want.tobytes()


def np_pad_conv3d(x, w, spec, bias):
    """conv3d with np.pad for the zero padding: the reference for the padding buffer."""
    pt, ph, pw = spec.padding
    padded = np.pad(x, ((0, 0), (pt, pt), (ph, ph), (pw, pw)))
    st, sh, sw = spec.stride
    win = np.lib.stride_tricks.sliding_window_view(padded, spec.kernel, axis=(-3, -2, -1))
    out = np.einsum("cthwijk,ocijk->othw", win[..., ::st, ::sh, ::sw, :, :, :], w, optimize=True)
    return out if bias is None else out + bias[:, None, None, None]


def np_pad_pool3d_max(x, spec):
    pt, ph, pw = spec.padding
    padded = np.pad(x, ((0, 0), (pt, pt), (ph, ph), (pw, pw)), constant_values=-np.inf)
    st, sh, sw = spec.stride
    win = np.lib.stride_tricks.sliding_window_view(padded, spec.kernel, axis=(-3, -2, -1))
    return win[..., ::st, ::sh, ::sw, :, :, :].max(axis=(-3, -2, -1))


DETECTOR_SAME = ConvSpec(kernel=(1, 3, 3), padding=(0, 1, 1))
DETECTOR_DOWN = ConvSpec(kernel=(1, 3, 3), stride=(1, 2, 2), padding=(0, 1, 1))
I3D_CONV = ConvSpec(kernel=(3, 3, 3), padding=(1, 1, 1))

# (input [C,T,H,W], c_out, spec) of the detector's three convs and the I3D blocks
PIPELINE_CONVS = [
    ((1, 8, 16, 16), 4, DETECTOR_SAME),
    ((4, 8, 16, 16), 4, DETECTOR_DOWN),
    ((4, 8, 8, 8), 4, DETECTOR_DOWN),
    ((1, 8, 12, 12), 8, I3D_CONV),
    ((8, 4, 6, 6), 16, I3D_CONV),
    ((16, 2, 3, 3), 32, I3D_CONV),
]


class TestPaddingBuffer:
    @pytest.mark.parametrize("shape,c_out,spec", PIPELINE_CONVS)
    def test_conv3d_equals_np_pad_bitwise(self, shape, c_out, spec):
        rng = Rng(sum(shape) + c_out)
        x = rng.normals(math.prod(shape)).reshape(shape)
        w = rng.normals(c_out * shape[0] * math.prod(spec.kernel)).reshape(
            (c_out, shape[0]) + spec.kernel
        )
        b = rng.normals(c_out)
        out = conv3d(x, w, spec, bias=b)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, np_pad_conv3d(x, w, spec, b))

    @pytest.mark.parametrize("shape", [shape for shape, _, _ in PIPELINE_CONVS])
    @pytest.mark.parametrize(
        "spec",
        [
            ConvSpec(kernel=(2, 2, 2), stride=(2, 2, 2)),  # the I3D pools: no padding
            ConvSpec(kernel=(1, 3, 3), stride=(1, 2, 2), padding=(0, 1, 1)),
            ConvSpec(kernel=(2, 3, 3), stride=(2, 2, 2), padding=(1, 1, 1)),
        ],
    )
    def test_pool3d_max_equals_np_pad_bitwise(self, shape, spec):
        x = Rng(sum(shape)).normals(math.prod(shape)).reshape(shape)
        out = pool3d_max(x, spec)
        assert out.flags.c_contiguous
        np.testing.assert_array_equal(out, np_pad_pool3d_max(x, spec))

    def test_pool3d_max_sweep_equals_np_pad_bitwise(self):
        rng = Rng(103)
        for trial in range(60):
            c = 1 + rng.below(3)
            kernel = (1, 1, 1) if trial < 5 else random_shape(rng, 3, hi=3)
            extents = tuple(k + rng.below(4) for k in kernel)
            stride = random_shape(rng, 3, hi=3)
            padding = tuple(rng.below(k) for k in kernel)
            x = rng.normals(c * math.prod(extents)).reshape((c,) + extents)
            spec = ConvSpec(kernel=kernel, stride=stride, padding=padding)
            np.testing.assert_array_equal(pool3d_max(x, spec), np_pad_pool3d_max(x, spec))


class TestStackedInput:
    """A [B, C, T, H, W] stack gives each sample the bits of its own [C, T, H, W] call."""

    @pytest.mark.parametrize("b", [1, 2, 5])
    @pytest.mark.parametrize("shape,c_out,spec", PIPELINE_CONVS)
    def test_pipeline_shapes_equal_per_sample_calls_bitwise(self, b, shape, c_out, spec):
        rng = Rng(sum(shape) + c_out + b)
        x = rng.normals(b * math.prod(shape)).reshape((b,) + shape)
        w = rng.normals(c_out * shape[0] * math.prod(spec.kernel)).reshape(
            (c_out, shape[0]) + spec.kernel
        )
        bias = rng.normals(c_out)
        pool_spec = ConvSpec(kernel=(2, 2, 2), stride=(2, 2, 2))  # the I3D pool
        out = conv3d(x, w, spec, bias=bias)
        pooled = pool3d_max(x, pool_spec)
        assert out.shape == (b, c_out) + spec.output_extents(shape[1:])
        assert out.flags.c_contiguous and pooled.flags.c_contiguous
        for sample, got, got_pool in zip(x, out, pooled):
            assert got.tobytes() == conv3d(sample, w, spec, bias=bias).tobytes()
            assert got_pool.tobytes() == pool3d_max(sample, pool_spec).tobytes()

    @pytest.mark.parametrize("lead", [(), (1,), (8,)], ids=["clip", "B=1", "B=8"])
    @pytest.mark.parametrize("shape,c_out,spec", PIPELINE_CONVS)
    def test_biased_conv_leaves_its_arguments_alone(self, lead, shape, c_out, spec):
        """The bias is added in place, into the product's fresh array only."""
        rng = Rng(sum(shape) + c_out + len(lead))
        x = rng.normals(math.prod(lead + shape)).reshape(lead + shape)
        w = rng.normals(c_out * shape[0] * math.prod(spec.kernel)).reshape(
            (c_out, shape[0]) + spec.kernel
        )
        bias = rng.normals(c_out)
        before = [a.copy() for a in (x, w, bias)]
        out = conv3d(x, w, spec, bias=bias)
        for arg, kept in zip((x, w, bias), before):
            assert arg.tobytes() == kept.tobytes()
            assert not np.shares_memory(out, arg)
        want = conv3d(x, w, spec) + bias[:, None, None, None]
        assert out.tobytes() == want.tobytes()

    def test_stack_sweep_meets_oracles(self):
        rng = Rng(106)
        for _ in range(30):
            b, c_in, c_out = 1 + rng.below(4), 1 + rng.below(2), 1 + rng.below(2)
            kernel = random_shape(rng, 3, hi=3)
            extents = tuple(k + rng.below(4) for k in kernel)
            stride = random_shape(rng, 3, hi=2)
            padding = tuple(rng.below(k) for k in kernel)  # below the kernel: valid for the pool
            x = rng.normals(b * c_in * math.prod(extents)).reshape((b, c_in) + extents)
            w = rng.normals(c_out * c_in * math.prod(kernel)).reshape((c_out, c_in) + kernel)
            bias = rng.normals(c_out)
            mean, var = rng.normals(c_in), np.abs(rng.normals(c_in)) + 0.05
            gamma, beta = rng.normals(c_in), rng.normals(c_in)
            spec = ConvSpec(kernel=kernel, stride=stride, padding=padding)
            out = conv3d(x, w, spec, bias=bias)
            pooled = pool3d_max(x, spec)
            normed = batch_norm(x, mean, var, gamma, beta, axis=1)
            averaged = global_avg_pool(x)
            for k, sample in enumerate(x):
                assert out[k].tobytes() == conv3d(sample, w, spec, bias=bias).tobytes()
                ref = oracles.conv3d_oracle(sample, w, stride, padding, bias)
                assert np.abs(out[k] - ref).max() <= 1e-10
                assert pooled[k].tobytes() == pool3d_max(sample, spec).tobytes()
                ref = oracles.pool3d_max_oracle(sample, kernel, stride, padding)
                assert np.abs(pooled[k] - ref).max() <= 1e-10
                assert normed[k].tobytes() == batch_norm(sample, mean, var, gamma, beta).tobytes()
                assert averaged[k].tobytes() == global_avg_pool(sample).tobytes()


class TestConvSpec:
    @pytest.mark.parametrize("field", ["kernel", "stride", "padding"])
    @pytest.mark.parametrize("value", [(2, 2), (1, 1, 1, 1), ()])
    def test_wrong_length_raises(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be 3 integers"):
            ConvSpec(**{"kernel": (1, 1, 1), field: value})

    @pytest.mark.parametrize("field", ["kernel", "stride", "padding"])
    @pytest.mark.parametrize("value", [(2.5, 1, 1), (1, 1, 1.0), 3, None])
    def test_non_integer_raises(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be 3 integers"):
            ConvSpec(**{"kernel": (1, 1, 1), field: value})

    def test_list_and_numpy_entries_become_int_tuples(self):
        spec = ConvSpec(kernel=[1, np.int64(3), 3], stride=[1, 2, 2], padding=np.array([0, 1, 1]))
        assert spec == ConvSpec(kernel=(1, 3, 3), stride=(1, 2, 2), padding=(0, 1, 1))
        for triple in (spec.kernel, spec.stride, spec.padding):
            assert type(triple) is tuple and all(type(v) is int for v in triple)
        hash(spec)


class TestWindowIndexCache:
    def test_pipeline_shapes_leave_the_cached_index_as_built(self, monkeypatch):
        """The cached index is shared writeable; a forward pass writes none of them."""
        cached = tensorops._window_index
        keys = set()

        def recording(extents, spec):
            keys.add((extents, spec))
            return cached(extents, spec)

        monkeypatch.setattr(tensorops, "_window_index", recording)
        model = PipelineModel(PipelineConfig(), seed=7)
        model.forward(Rng(106).normals(FRAMES * 16 * 16).reshape(1, FRAMES, 16, 16))
        specs = {spec for _, spec in keys}
        assert {DETECTOR_SAME, DETECTOR_DOWN, I3D_CONV} < specs  # and the I3D pools
        assert {key for key in keys if key[1] == I3D_CONV} == {
            (shape[1:], I3D_CONV) for shape, _, spec in PIPELINE_CONVS if spec == I3D_CONV
        }
        for key in keys:
            np.testing.assert_array_equal(cached(*key), cached.__wrapped__(*key))

    def test_gather_allocates_no_index_copy(self):
        """``np.take`` copies a read-only index on every call; the cached one is used as is."""
        index = tensorops._window_index((8, 12, 12), I3D_CONV)  # I3D block 0
        assert index.shape == (27, 8 * 12 * 12)
        x = Rng(107).normals(8 * 12 * 12).reshape(1, 8, 12, 12)
        tracemalloc.start()
        try:
            cells = tensorops._gather_windows(x, index, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells.shape == (1, 27, 8 * 12 * 12)
        assert peak < cells.nbytes + index.nbytes / 2, peak

    def test_cache_is_bounded(self):
        assert tensorops._window_index.cache_info().maxsize is not None

    def test_padding_cells_index_the_fill_slot(self):
        index = tensorops._window_index((1, 2, 2), DETECTOR_SAME)
        # the first output cell's window: row -1 and column -1 are padding
        assert index[:, 0].tolist() == [4, 4, 4, 4, 0, 1, 4, 2, 3]

    def test_one_spec_on_two_extents(self):
        rng = Rng(104)
        spec = ConvSpec(kernel=(2, 3, 3), stride=(1, 2, 1), padding=(1, 1, 0))
        w = rng.normals(2 * 3 * 18).reshape(2, 3, 2, 3, 3)
        b = rng.normals(2)
        for extents in [(3, 5, 4), (4, 3, 6), (3, 5, 4)]:
            x = rng.normals(3 * math.prod(extents)).reshape((3,) + extents)
            ref = oracles.conv3d_oracle(x, w, spec.stride, spec.padding, b)
            assert np.abs(conv3d(x, w, spec, bias=b) - ref).max() <= 1e-10
            pool_ref = oracles.pool3d_max_oracle(x, spec.kernel, spec.stride, spec.padding)
            np.testing.assert_array_equal(pool3d_max(x, spec), pool_ref)

    def test_empty_output_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="empty output"):
                tensorops._window_index((2, 2, 2), ConvSpec(kernel=(3, 1, 1)))

    def test_kernels_use_neither_einsum_nor_window_views(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(np, "einsum", forbidden)
        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", forbidden)
        rng = Rng(105)
        x = rng.normals(2 * 3 * 5 * 5).reshape(2, 3, 5, 5)
        w = rng.normals(4 * 2 * 27).reshape(4, 2, 3, 3, 3)
        b = rng.normals(4)
        spec = ConvSpec(kernel=(3, 3, 3), stride=(1, 2, 2), padding=(1, 1, 1))
        ref = oracles.conv3d_oracle(x, w, spec.stride, spec.padding, b)
        assert np.abs(conv3d(x, w, spec, bias=b) - ref).max() <= 1e-10
        pool_ref = oracles.pool3d_max_oracle(x, spec.kernel, spec.stride, spec.padding)
        np.testing.assert_array_equal(pool3d_max(x, spec), pool_ref)


class TestPool3dMax:
    def test_constant_input(self):
        x = np.full((2, 4, 4, 4), 7.0)
        out = pool3d_max(x, ConvSpec(kernel=(2, 2, 2), stride=(2, 2, 2)))
        np.testing.assert_array_equal(out, np.full((2, 2, 2, 2), 7.0))

    def test_global_kernel_gives_max(self):
        rng = Rng(4)
        x = rng.normals(1 * 3 * 4 * 2).reshape(1, 3, 4, 2)
        out = pool3d_max(x, ConvSpec(kernel=(3, 4, 2)))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == x.max()

    def test_matches_oracle(self):
        rng = Rng(5)
        x = rng.normals(2 * 5 * 4 * 5).reshape(2, 5, 4, 5)
        spec = ConvSpec(kernel=(2, 3, 2), stride=(1, 1, 2), padding=(1, 0, 1))
        out = pool3d_max(x, spec)
        ref = oracles.pool3d_max_oracle(x, spec.kernel, spec.stride, spec.padding)
        np.testing.assert_array_equal(out, ref)

    def test_oversized_kernel_raises(self):
        x = np.ones((1, 2, 2, 2))
        with pytest.raises(ValueError):
            pool3d_max(x, ConvSpec(kernel=(5, 5, 5)))

    def test_monotone(self):
        rng = Rng(6)
        x = rng.normals(1 * 4 * 4 * 4).reshape(1, 4, 4, 4)
        y = x + np.abs(rng.normals(x.size)).reshape(x.shape)
        spec = ConvSpec(kernel=(2, 2, 2))
        assert np.all(pool3d_max(x, spec) <= pool3d_max(y, spec))


class TestElementwise:
    def test_relu_cases(self):
        np.testing.assert_array_equal(relu(np.array([-3.0, -0.5])), [0.0, 0.0])
        pos = np.array([0.25, 9.0])
        np.testing.assert_array_equal(relu(pos), pos)
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_monotone(self):
        rng = Rng(7)
        x = rng.normals(64)
        y = x + np.abs(rng.normals(64))
        assert np.all(relu(x) <= relu(y))

    def test_batch_norm_identity_and_beta(self):
        rng = Rng(8)
        x = rng.normals(3 * 2 * 2 * 2).reshape(3, 2, 2, 2)
        ident = batch_norm(x, np.zeros(3), np.ones(3), np.ones(3), np.zeros(3), eps=0.0)
        np.testing.assert_allclose(ident, x, atol=1e-14)
        flat = batch_norm(x, np.zeros(3), np.ones(3), np.zeros(3), np.full(3, 2.5))
        np.testing.assert_array_equal(flat, np.full_like(x, 2.5))

    def test_batch_norm_matches_formula(self):
        rng = Rng(9)
        x = rng.normals(2 * 3 * 2 * 2).reshape(2, 3, 2, 2)
        mean, var = rng.normals(2), np.abs(rng.normals(2))
        gamma, beta = rng.normals(2), rng.normals(2)
        out = batch_norm(x, mean, var, gamma, beta, eps=1e-5)
        ref = oracles.batch_norm_oracle(x, mean, var, gamma, beta, 1e-5)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_global_avg_pool(self):
        x = np.full((2, 2, 3, 3), 4.25)
        np.testing.assert_array_equal(global_avg_pool(x), [4.25, 4.25])
        half = np.zeros((1, 2, 1, 1))
        half[0, 1] = 2.0
        np.testing.assert_array_equal(global_avg_pool(half), [1.0])
        rng = Rng(12)
        y = rng.normals(3 * 2 * 4 * 2).reshape(3, 2, 4, 2)
        np.testing.assert_allclose(
            global_avg_pool(y), oracles.global_avg_pool_oracle(y), atol=1e-12
        )


class TestSoftmax:
    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-15)

    def test_shift_invariance(self):
        rng = Rng(13)
        x = rng.normals(12).reshape(3, 4)
        np.testing.assert_allclose(softmax(x), softmax(x + 137.0), atol=1e-12)

    def test_hand_case_quarter_three_quarters(self):
        out = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_rows_positive_and_normalized(self):
        rng = Rng(14)
        x = rng.normals(5 * 6).reshape(5, 6) * 20.0
        out = softmax(x, axis=1)
        assert out.min() > 0.0
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestLayerNorm:
    def test_standardized_row_unchanged(self):
        row = np.array([[-1.0, 1.0, -1.0, 1.0]])
        out = layer_norm(row, np.ones(4), np.zeros(4), eps=1e-12)
        np.testing.assert_allclose(out, row, atol=1e-6)

    def test_gamma_zero_gives_beta(self):
        rng = Rng(15)
        x = rng.normals(8).reshape(2, 4)
        out = layer_norm(x, np.zeros(4), np.full(4, 3.0))
        np.testing.assert_array_equal(out, np.full_like(x, 3.0))

    def test_matches_oracle(self):
        rng = Rng(16)
        x = rng.normals(3 * 5).reshape(3, 5)
        gamma, beta = rng.normals(5), rng.normals(5)
        out = layer_norm(x, gamma, beta)
        np.testing.assert_allclose(out, oracles.layer_norm_oracle(x, gamma, beta, 1e-5), atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 73, 32), (4, 73, 32), (3, 5), (2, 3, 7, 33), (6, 1)])
    def test_bitwise_equal_to_mean_and_var(self, shape):
        """The one-pass form keeps the bits of x.mean / x.var at every scale and offset."""
        rng = Rng(17)
        for scale in (1e-3, 1.0, 1e6):
            x = (rng.normals(math.prod(shape)).reshape(shape) + 10 * rng.normals(1)) * scale
            gamma, beta = rng.normals(shape[-1]), rng.normals(shape[-1])
            mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
            want = gamma * (x - mean) / np.sqrt(var + 1e-5) + beta
            assert layer_norm(x, gamma, beta).tobytes() == want.tobytes()


class TestLinear:
    def test_identity_weight(self):
        rng = Rng(17)
        x = rng.normals(12).reshape(3, 4)
        out = linear(x, np.eye(4), np.zeros(4))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_zero_weight_is_bias(self):
        x = np.ones((2, 3))
        out = linear(x, np.zeros((3, 2)), np.array([1.5, -2.0]))
        np.testing.assert_array_equal(out, np.tile([1.5, -2.0], (2, 1)))

    def test_matches_triple_loop(self):
        rng = Rng(18)
        x = rng.normals(12).reshape(3, 4)
        w = rng.normals(8).reshape(4, 2)
        b = rng.normals(2)
        np.testing.assert_allclose(linear(x, w, b), oracles.linear_oracle(x, w, b), atol=1e-12)


class TestCountMacs:
    def test_only_a_block_counts_and_a_nested_block_starts_its_own_total(self):
        x, w = np.ones((3, 4)), np.ones((4, 2))  # 3 rows x 4 x 2 = 24 MACs a call
        linear(x, w)
        assert tensorops.MACS.get() is None
        with count_macs() as outer:
            linear(x, w, np.zeros(2))
            with count_macs() as inner:
                linear(x, w)
                linear(x, w)
            assert tensorops.MACS.get() is outer
        linear(x, w)
        assert (outer.total, inner.total) == (24, 48)
        assert tensorops.MACS.get() is None

    def test_conv3d_counts_its_weights_times_outputs_per_stacked_input(self):
        spec = ConvSpec(kernel=(3, 3, 3))
        with count_macs() as macs:
            conv3d(np.ones((2, 1, 4, 4, 4)), np.ones((1, 1, 3, 3, 3)), spec)
            pool3d_max(np.ones((1, 4, 4, 4)), spec)  # not a matrix product: counts zero
        assert macs.total == 2 * 216


class TestRandomizedOracleSweep:
    """Each kernel against its oracle over many random small instances."""

    def test_conv3d_sweep(self):
        rng = Rng(100)
        for _ in range(40):
            c_in, c_out = 1 + rng.below(2), 1 + rng.below(2)
            kernel = random_shape(rng, 3, hi=3)
            extents = tuple(k + rng.below(4) for k in kernel)
            stride = random_shape(rng, 3, hi=2)
            padding = tuple(rng.below(2) for _ in range(3))
            x = rng.normals(c_in * int(np.prod(extents))).reshape((c_in,) + extents)
            w = rng.normals(c_out * c_in * int(np.prod(kernel))).reshape(
                (c_out, c_in) + kernel
            )
            b = rng.normals(c_out)
            spec = ConvSpec(kernel=kernel, stride=stride, padding=padding)
            out = conv3d(x, w, spec, bias=b)
            ref = oracles.conv3d_oracle(x, w, stride, padding, b)
            assert np.abs(out - ref).max() <= 1e-10

    def test_pool_sweep(self):
        rng = Rng(101)
        for _ in range(40):
            c = 1 + rng.below(2)
            kernel = random_shape(rng, 3, hi=3)
            extents = tuple(k + rng.below(4) for k in kernel)
            stride = random_shape(rng, 3, hi=2)
            padding = tuple(rng.below(k) for k in kernel)
            x = rng.normals(c * int(np.prod(extents))).reshape((c,) + extents)
            spec = ConvSpec(kernel=kernel, stride=stride, padding=padding)
            out = pool3d_max(x, spec)
            ref = oracles.pool3d_max_oracle(x, kernel, stride, padding)
            assert np.array_equal(out, ref)

    def test_dense_op_sweep(self):
        rng = Rng(102)
        for _ in range(60):
            rows, d_in, d_out = (1 + rng.below(6) for _ in range(3))
            x = rng.normals(rows * d_in).reshape(rows, d_in)
            w = rng.normals(d_in * d_out).reshape(d_in, d_out)
            b = rng.normals(d_out)
            assert np.abs(linear(x, w, b) - oracles.linear_oracle(x, w, b)).max() <= 1e-10
            assert np.abs(softmax(x, 1) - oracles.softmax_oracle(x, 1)).max() <= 1e-10
            gamma, beta = rng.normals(d_in), rng.normals(d_in)
            assert (
                np.abs(
                    layer_norm(x, gamma, beta) - oracles.layer_norm_oracle(x, gamma, beta, 1e-5)
                ).max()
                <= 1e-10
            )
