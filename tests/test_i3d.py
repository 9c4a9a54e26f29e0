import numpy as np
import pytest

from eitnet.i3d import (
    BN_MEAN,
    BN_VAR,
    CONV,
    DROPOUT,
    WIDTHS,
    I3DBlockParams,
    I3DStack,
    i3d_block,
    i3d_forward,
)
from eitnet.rng import Rng, derive_seed
from eitnet.tensorops import (
    ConvSpec,
    batch_norm,
    conv3d,
    global_avg_pool,
    pool3d_max,
    relu,
)


def dropout(x, p, seed):
    """The per-clip kernel that ``i3d_block``'s one draw for the stack replaced, kept as its
    reference: zero each cell whose seeded uniform is below p, scale the rest by 1/(1-p)."""
    draws = Rng(seed).uniforms(x.size).reshape(x.shape)
    return np.where(draws >= p, x / (1.0 - p), 0.0)


def identity_block(c=2):
    w = np.zeros((c, c, 3, 3, 3))
    for i in range(c):
        w[i, i, 1, 1, 1] = 1.0
    return I3DBlockParams(
        conv_weight=w,
        conv_bias=np.zeros(c),
        pool_spec=ConvSpec(kernel=(1, 1, 1)),
        bn_gamma=np.ones(c),
        bn_beta=np.zeros(c),
    )


def random_block(rng, c_in, c_out, pool=(2, 2, 2)):
    return I3DBlockParams(
        conv_weight=rng.normals(c_out * c_in * 27).reshape(c_out, c_in, 3, 3, 3),
        conv_bias=rng.normals(c_out),
        pool_spec=ConvSpec(kernel=pool, stride=pool),
        bn_gamma=rng.normals(c_out),
        bn_beta=rng.normals(c_out),
    )


def composed_block(x, b, axis=0):
    """conv3d -> relu -> pool3d_max -> batch_norm with per-channel identity statistics."""
    c = len(b.conv_bias)
    spec = ConvSpec(kernel=(3, 3, 3), padding=(1, 1, 1))
    out = relu(conv3d(x, b.conv_weight, spec, bias=b.conv_bias))
    out = pool3d_max(out, b.pool_spec)
    return batch_norm(out, np.zeros(c), np.ones(c), b.bn_gamma, b.bn_beta, 1e-5, axis=axis)


class TestBlock:
    def test_zero_input_zero_output(self):
        rng = Rng(40)
        params = random_block(rng, 2, 3)
        params.bn_beta = np.zeros(3)
        params.conv_bias = np.zeros(3)
        out = i3d_block(np.zeros((1, 2, 4, 4, 4)), params, seeds=[1])
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_matches_hand_composition(self):
        rng = Rng(41)
        params = random_block(rng, 2, 3)
        x = rng.normals(2 * 4 * 4 * 4).reshape(2, 4, 4, 4)
        out = i3d_block(x[None], params, seeds=[9])[0]
        ref = composed_block(x, params)
        assert not np.array_equal(out, ref)  # the seed switched dropout on
        np.testing.assert_array_equal(out, dropout(ref, DROPOUT, 9))
        np.testing.assert_array_equal(i3d_block(x[None], params)[0], ref)

    @pytest.mark.parametrize("b", [1, 4])
    def test_stack_masks_equal_per_clip_dropout_bitwise(self, b):
        rng = Rng(42)
        params = random_block(rng, 2, 3)
        x = rng.normals(b * 2 * 4 * 6 * 6).reshape(b, 2, 4, 6, 6)
        seeds = [2**64 - 1, 0, 9, derive_seed(3, "drop", 1, 5)][:b]  # one wraps past 2**64
        got = i3d_block(x, params, seeds)
        want = np.stack([dropout(composed_block(c, params), DROPOUT, s) for c, s in zip(x, seeds)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_dropout_zeroes_its_fraction_and_scales_survivors(self):
        params = identity_block(c=2)
        x = np.ones((3, 2, 8, 20, 20))
        out = i3d_block(x, params, seeds=[77, 78, 79])
        ref = composed_block(x[0], params)  # every cell the same value before dropout
        assert abs(np.mean(out == 0.0) - DROPOUT) <= 0.01
        np.testing.assert_array_equal(out[out != 0.0], ref[0, 0, 0, 0] / (1.0 - DROPOUT))
        assert out.tobytes() == i3d_block(x, params, seeds=[77, 78, 79]).tobytes()
        assert not np.array_equal(out[0], out[1])  # each clip masked from its own seed


class TestForward:
    def test_identity_config_preserves_constant(self):
        clip = np.full((2, 3, 3, 3), 1.75)
        feats = i3d_forward(clip[None], [identity_block(c=2)])[0]
        np.testing.assert_allclose(feats, [1.75 / np.sqrt(1 + 1e-5)] * 2, atol=1e-12)

    def test_two_block_composition_oracle(self):
        rng = Rng(43)
        blocks = [random_block(rng, 1, 2), random_block(rng, 2, 3, pool=(1, 2, 2))]
        clip = rng.normals(1 * 4 * 8 * 8).reshape(1, 4, 8, 8)
        feats = i3d_forward(clip[None], blocks, seeds=[5])[0]
        step = i3d_block(clip[None], blocks[0], seeds=[derive_seed(5, "i3d-block", 0)])
        step = i3d_block(step, blocks[1], seeds=[derive_seed(5, "i3d-block", 1)])[0]
        ref = step.mean(axis=(1, 2, 3))
        np.testing.assert_allclose(feats, ref, atol=1e-10)

    def test_dropout_runs_exactly_when_seeds_are_given(self):
        rng = Rng(45)
        blocks = [random_block(rng, 1, 2)]
        clip = rng.normals(1 * 4 * 4 * 4).reshape(1, 4, 4, 4)
        plain = i3d_forward(clip[None], blocks)
        assert plain.tobytes() == i3d_forward(clip[None], blocks).tobytes()
        out = composed_block(clip, blocks[0])
        assert plain[0].tobytes() == global_avg_pool(out).tobytes()
        out = dropout(out, DROPOUT, derive_seed(1, "i3d-block", 0))
        got = i3d_forward(clip[None], blocks, seeds=[1])
        assert got[0].tobytes() == global_avg_pool(out).tobytes()
        assert not np.array_equal(got, plain)

    def test_positive_homogeneity(self):
        rng = Rng(46)
        block = random_block(rng, 1, 2)
        block.conv_bias = np.zeros(2)
        block.bn_beta = np.zeros(2)
        block.bn_gamma = np.ones(2)
        clip = np.abs(rng.normals(1 * 4 * 4 * 4)).reshape(1, 4, 4, 4)
        a = 2.5
        np.testing.assert_allclose(
            i3d_forward(a * clip[None], [block]), a * i3d_forward(clip[None], [block]), atol=1e-9
        )


class TestStack:
    def test_desk_scale_shapes(self):
        stack = I3DStack(seed=3)
        clip = Rng(48).normals(1 * 8 * 12 * 12).reshape(1, 8, 12, 12)
        feats = stack.forward(clip[None])
        assert feats.shape == (1, 32)
        assert np.all(np.isfinite(feats))

    def test_blocks_keep_the_kernels_preconditions(self):
        """i3d_forward, conv3d, pool3d_max, batch_norm and dropout check none of these."""
        stack = I3DStack(seed=3)
        assert len(stack.blocks) == len(WIDTHS) > 0
        assert 0.0 <= DROPOUT <= 1.0
        c_prev = 1  # single-channel clips
        for b, width in zip(stack.blocks, WIDTHS):
            assert b.conv_weight.shape == (width, c_prev, *CONV.kernel)
            for array in (b.conv_bias, b.bn_gamma, b.bn_beta):
                assert array.shape == (width,)
            for array in (b.conv_weight, b.conv_bias, b.bn_gamma, b.bn_beta):
                assert array.dtype == np.float64
            assert all(p < k for p, k in zip(b.pool_spec.padding, b.pool_spec.kernel))
            c_prev = width

    def test_identity_statistics_equal_per_channel_ones_bitwise(self):
        """The shared [1] statistics give each block the bytes of per-channel zeros and ones."""
        assert not BN_MEAN.flags.writeable and not BN_VAR.flags.writeable
        assert BN_MEAN.dtype == BN_VAR.dtype == np.float64
        assert np.all(BN_VAR >= 0.0)
        stack = I3DStack(seed=3)
        x = Rng(52).normals(2 * 8 * 12 * 12).reshape(2, 1, 8, 12, 12)
        for b in stack.blocks:
            got = i3d_block(x, b)
            assert got.tobytes() == composed_block(x, b, axis=1).tobytes()
            x = got

    def test_dropout_seed_changes_features(self):
        stack = I3DStack(seed=3)
        clip = Rng(49).normals(1 * 8 * 12 * 12).reshape(1, 8, 12, 12)
        a = stack.forward(clip[None], seeds=[1])
        b = stack.forward(clip[None], seeds=[2])
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, stack.forward(clip[None], seeds=[1]))

    @pytest.mark.parametrize("seeds", [None, [4]], ids=["no-dropout", "dropout"])
    def test_forward_matches_hand_composition_bitwise(self, seeds):
        stack = I3DStack(seed=3)
        clip = Rng(50).normals(1 * 8 * 12 * 12).reshape(1, 8, 12, 12)
        out = clip
        for i, b in enumerate(stack.blocks):
            out = composed_block(out, b)
            if seeds:
                out = dropout(out, DROPOUT, derive_seed(4, "i3d-block", i))
        ref = global_avg_pool(out)
        assert stack.forward(clip[None], seeds)[0].tobytes() == ref.tobytes()

    def test_stack_equals_one_clip_calls_bitwise(self):
        stack = I3DStack(seed=3)
        clips = Rng(51).normals(5 * 8 * 12 * 12).reshape(5, 1, 8, 12, 12)
        seeds = [11, 12, 13, 14, 15]
        got = stack.forward(clips, seeds)
        for clip, seed, row in zip(clips, seeds, got):
            one = stack.forward(clip[None], [seed])[0]
            assert row.tobytes() == one.tobytes()
