import numpy as np
import pytest

from eitnet.encoder import (
    EncoderParams,
    TokenSequence,
    encoder_block,
    patch_embed,
    self_attention,
)
from eitnet.rng import Rng
from eitnet.tensorops import layer_norm, linear, relu, softmax

import oracles


def make_params(rng, d=4, d_ff=6):
    def mat(rows, cols):
        return rng.normals(rows * cols).reshape(rows, cols) / np.sqrt(rows)

    return EncoderParams(
        w_q=mat(d, d),
        w_k=mat(d, d),
        w_v=mat(d, d),
        b_q=rng.normals(d) * 0.1,
        b_k=rng.normals(d) * 0.1,
        b_v=rng.normals(d) * 0.1,
        w_ffn1=mat(d, d_ff),
        b_ffn1=rng.normals(d_ff) * 0.1,
        w_ffn2=mat(d_ff, d),
        b_ffn2=rng.normals(d) * 0.1,
        norm1_gamma=np.ones(d) + 0.1 * rng.normals(d),
        norm1_beta=0.1 * rng.normals(d),
        norm2_gamma=np.ones(d) + 0.1 * rng.normals(d),
        norm2_beta=0.1 * rng.normals(d),
    )


def make_sequence(rng, frames=2, gh=2, gw=2, d=4, has_summary=False):
    s = frames * gh * gw + (1 if has_summary else 0)
    return TokenSequence(
        tokens=rng.normals(s * d).reshape(s, d),
        frames=frames,
        grid_h=gh,
        grid_w=gw,
        patch=2,
        has_summary=has_summary,
    )


def per_group_divided_block(seq, params):
    """Divided block with one self_attention call per attention group.

    Temporal groups are the frames of one grid position, spatial groups the
    positions of one frame; the summary token is in no group and stays as is.
    """
    base = 1 if seq.has_summary else 0
    hw = seq.grid_h * seq.grid_w

    def grouped(tokens, mode):
        if mode == "temporal":
            groups = [base + pos + hw * np.arange(seq.frames) for pos in range(hw)]
        else:
            groups = [base + hw * ft + np.arange(hw) for ft in range(seq.frames)]
        out = tokens.copy()
        for idx in groups:
            if idx.size > 1:
                out[idx] = self_attention(tokens[idx], params)
        return out

    x = seq.tokens
    z = grouped(grouped(x, "temporal"), "spatial")
    h = layer_norm(z + x, params.norm1_gamma, params.norm1_beta, params.eps)
    f = linear(relu(linear(h, params.w_ffn1, params.b_ffn1)), params.w_ffn2, params.b_ffn2)
    return layer_norm(f + h, params.norm2_gamma, params.norm2_beta, params.eps)


class TestPatchEmbed:
    def test_matches_per_patch_loop_bitwise(self):
        rng = Rng(68)
        c, t, h, w, p = 2, 3, 4, 6, 2
        clip = rng.normals(c * t * h * w).reshape(c, t, h, w)
        weight = rng.normals(c * p * p * 5).reshape(c * p * p, 5)
        bias = rng.normals(5)
        count = t * (h // p) * (w // p)
        pos = rng.normals(count * 5).reshape(count, 5)
        patches = [
            clip[:, ft, r * p : (r + 1) * p, cc * p : (cc + 1) * p].ravel()
            for ft in range(t)
            for r in range(h // p)
            for cc in range(w // p)
        ]
        ref = linear(np.array(patches), weight, bias) + pos
        seq = patch_embed(clip, p, weight, bias, pos)
        assert np.array_equal(seq.tokens, ref)

    def test_one_patch_per_frame(self):
        rng = Rng(50)
        clip = rng.normals(1 * 3 * 4 * 4).reshape(1, 3, 4, 4)
        w = rng.normals(16 * 5).reshape(16, 5)
        seq = patch_embed(clip, 4, w, np.zeros(5), np.zeros((3, 5)))
        assert seq.tokens.shape == (3, 5)
        assert (seq.frames, seq.grid_h, seq.grid_w) == (3, 1, 1)

    def test_zero_clip_zero_projection_gives_pos_enc(self):
        rng = Rng(51)
        pos = rng.normals(8 * 3).reshape(8, 3)
        seq = patch_embed(np.zeros((1, 2, 4, 4)), 2, np.zeros((4, 3)), np.zeros(3), pos)
        np.testing.assert_array_equal(seq.tokens, pos)

    def test_hand_flatten_project_oracle(self):
        rng = Rng(52)
        clip = rng.normals(1 * 2 * 4 * 4).reshape(1, 2, 4, 4)
        w = rng.normals(4 * 3).reshape(4, 3)
        b = rng.normals(3)
        pos = rng.normals(8 * 3).reshape(8, 3)
        seq = patch_embed(clip, 2, w, b, pos)
        assert seq.tokens.shape == (8, 3)
        i = 0
        for t in range(2):
            for r in range(2):
                for c in range(2):
                    patch = clip[0, t, 2 * r : 2 * r + 2, 2 * c : 2 * c + 2].ravel()
                    ref = patch @ w + b + pos[i]
                    np.testing.assert_allclose(seq.tokens[i], ref, atol=1e-12)
                    i += 1


class TestSelfAttention:
    def test_single_token_returns_value_vector(self):
        rng = Rng(53)
        params = make_params(rng)
        token = rng.normals(4).reshape(1, 4)
        out = self_attention(token, params)
        ref = token @ params.w_v + params.b_v
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_identical_tokens_share_output(self):
        rng = Rng(54)
        params = make_params(rng)
        row = rng.normals(4)
        tokens = np.tile(row, (5, 1))
        out = self_attention(tokens, params)
        ref = row @ params.w_v + params.b_v
        for r in out:
            np.testing.assert_allclose(r, ref, atol=1e-12)

    def test_matches_explicit_loop_oracle(self):
        rng = Rng(55)
        params = make_params(rng)
        tokens = rng.normals(3 * 4).reshape(3, 4)
        out = self_attention(tokens, params)
        ref = oracles.attention_oracle(
            tokens, params.w_q, params.w_k, params.w_v, params.b_q, params.b_k, params.b_v
        )
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_attention_rows_normalized(self):
        rng = Rng(56)
        params = make_params(rng)
        tokens = rng.normals(6 * 4).reshape(6, 4) * 5.0
        q = linear(tokens, params.w_q, params.b_q)
        k = linear(tokens, params.w_k, params.b_k)
        attn = softmax((q @ k.T) / 2.0, axis=-1)
        assert attn.min() >= 0.0
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-12)


class TestEncoderBlock:
    def test_single_frame_divided_equals_spatial_bitwise(self):
        rng = Rng(59)
        params = make_params(rng)
        seq = make_sequence(rng, frames=1, gh=3, gw=2)
        a = encoder_block(seq, params, "divided").tokens
        b = encoder_block(seq, params, "spatial").tokens
        np.testing.assert_array_equal(a, b)

    def test_single_position_divided_equals_temporal_bitwise(self):
        rng = Rng(60)
        params = make_params(rng)
        seq = make_sequence(rng, frames=4, gh=1, gw=1)
        a = encoder_block(seq, params, "divided").tokens
        b = encoder_block(seq, params, "temporal").tokens
        np.testing.assert_array_equal(a, b)

    def test_summary_token_keeps_degeneracies(self):
        rng = Rng(61)
        params = make_params(rng)
        seq = make_sequence(rng, frames=1, gh=2, gw=2, has_summary=True)
        a = encoder_block(seq, params, "divided").tokens
        b = encoder_block(seq, params, "spatial").tokens
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("has_summary", [False, True])
    def test_divided_matches_per_group_loop_bitwise(self, has_summary):
        rng = Rng(69)
        params = make_params(rng)
        seq = make_sequence(rng, frames=3, gh=2, gw=3, has_summary=has_summary)
        out = encoder_block(seq, params, "divided").tokens
        assert np.array_equal(out, per_group_divided_block(seq, params))

    def test_deterministic(self):
        rng = Rng(62)
        params = make_params(rng)
        seq = make_sequence(rng, frames=3, gh=2, gw=2)
        a = encoder_block(seq, params, "divided").tokens
        b = encoder_block(seq, params, "divided").tokens
        np.testing.assert_array_equal(a, b)

    def test_preserves_shape_for_every_mode(self):
        rng = Rng(63)
        params = make_params(rng)
        seq = make_sequence(rng, frames=2, gh=2, gw=3, has_summary=True)
        for mode in ("temporal", "spatial", "divided"):
            out = encoder_block(seq, params, mode)
            assert out.tokens.shape == seq.tokens.shape
