import hashlib

import numpy as np
import pytest

from eitnet.rng import Rng, box_muller, derive_seed, normals_rows, uniforms_rows


def test_sequential_and_vectorised_draws_agree():
    a = Rng(42)
    b = Rng(42)
    seq = [a.next_u64() for _ in range(100)]
    vec = b.raw(100)
    assert seq == [int(v) for v in vec]


def test_uniforms_in_range_and_reproducible():
    u = Rng(7).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    np.testing.assert_array_equal(u, Rng(7).uniforms(10_000))
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = Rng(9).normals(20_000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_normals_split_at_an_even_count_continue_the_stream():
    for a, b in [(256, 256), (2, 7), (0, 5), (10, 1)]:
        stream = Rng(11)
        split = np.concatenate([stream.normals(a), stream.normals(b)])
        assert split.tobytes() == Rng(11).normals(a + b).tobytes(), (a, b)


def test_normals_split_at_an_odd_count_diverge():
    """Box-Muller draws pairs: an odd first draw discards its pair's second normal."""
    for a, b in [(255, 257), (1, 6), (7, 3)]:
        stream = Rng(11)
        first, second = stream.normals(a), stream.normals(b)
        joined = Rng(11).normals(a + 1 + b)
        assert first.tobytes() == joined[:a].tobytes()
        assert second.tobytes() != joined[a : a + b].tobytes(), (a, b)
        assert second.tobytes() == joined[a + 1 :].tobytes(), (a, b)  # one normal skipped


def one_stream_normals(rng, n):
    """n normals from one stream's next_u64 outputs, Box-Muller on each pair."""
    pairs = (n + 1) // 2
    bits = np.array([rng.next_u64() for _ in range(2 * pairs)], dtype=np.uint64)
    out = np.empty(2 * pairs)
    out[0::2], out[1::2] = box_muller(bits[0::2], bits[1::2])
    return out[:n]


def test_normals_rows_equal_each_streams_own_draw_bitwise():
    seeds = [3, 2**64 - 5, derive_seed(7, "sample"), 0]  # one state wraps past 2**64
    for n in (0, 1, 7, 2048):
        rows, alone = [Rng(seed) for seed in seeds], [Rng(seed) for seed in seeds]
        for k, (a, b) in enumerate(zip(rows, alone)):  # streams at different positions
            for _ in range(k):
                a.uniform(), b.uniform()
        got = normals_rows(rows, n)
        want = np.stack([one_stream_normals(rng, n) for rng in alone])
        assert got.shape == (len(seeds), n) and got.tobytes() == want.tobytes(), n
        assert [a.next_u64() for a in rows] == [b.next_u64() for b in alone], n


def test_uniforms_rows_equal_each_streams_scalar_draws_bitwise():
    seeds = [3, 2**64 - 5, derive_seed(7, "sample"), 0]  # one state wraps past 2**64
    for n in (0, 1, 7, 2048):
        rows, alone = [Rng(seed) for seed in seeds], [Rng(seed) for seed in seeds]
        for k, (a, b) in enumerate(zip(rows, alone)):  # streams at different positions
            for _ in range(k):
                a.uniform(), b.uniform()
        got = uniforms_rows(rows, n)
        want = np.array([[rng.uniform() for _ in range(n)] for rng in alone])
        assert got.shape == (len(seeds), n) and got.tobytes() == want.tobytes(), n
        assert [a.next_u64() for a in rows] == [b.next_u64() for b in alone], n


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# SHA-256 of the bytes of each draw from Rng(5), recorded before the finalizer
# and Box-Muller ran in place; an odd and an even count.
PINNED_DRAWS = {
    ("raw", 1001): "b6139fd4d9cadc549d160eaab3cd504fddd4f4d4e13957d84bb46b572129f0fe",
    ("uniforms", 1001): "f24615faa29f690ef65ca26da295de745f14db0979bd72d74a80991e170bf678",
    ("normals", 1001): "9f004cf669c1784e7ecfde4ed5b5094151897f2e9387dc9df3d89d1f2f58b87b",
    ("raw", 1024): "d3e86501c4f89342c7df97956977755f031a28493337e23740c5bb186dbb05dc",
    ("uniforms", 1024): "a5074b2a56643de13d7d5eac7be887d3c57e0d14f088786b67f6f8c5b45aca02",
    ("normals", 1024): "7672347415d32b09f2ee9c499fe158c2059c30895238762b0d731149abfa9140",
}


@pytest.mark.parametrize("draw, n", sorted(PINNED_DRAWS))
def test_draw_bytes_pinned(draw, n):
    assert sha256(getattr(Rng(5), draw)(n)) == PINNED_DRAWS[draw, n]


@pytest.mark.parametrize(
    "n, pinned",
    [
        (7, "515281eeace74d6ad11d091de806adebb2d2fd37b5b3dad4962761800212df7e"),
        (2048, "f78cdb11628d9e92ce938ac0c25bce924bea7d05e2c6d056e23b6b86a890b021"),
    ],
)
def test_normals_rows_bytes_pinned(n, pinned):
    seeds = [3, 2**64 - 5, derive_seed(7, "sample"), 0]  # one state wraps past 2**64
    assert sha256(normals_rows([Rng(seed) for seed in seeds], n)) == pinned


def test_box_muller_leaves_its_inputs_unchanged():
    bits = Rng(13).raw(64).reshape(2, 4, 8)
    first, second = bits[:, :, 0::2], bits[:, :, 1::2]  # strided views, as normals_rows passes
    before = bits.copy()
    box_muller(first, second)
    assert bits.tobytes() == before.tobytes()


def test_shuffle_is_permutation_and_seed_sensitive():
    items = list(range(20))
    a = items[:]
    Rng(1).shuffle(a)
    assert sorted(a) == items
    b = items[:]
    Rng(2).shuffle(b)
    assert a != b
    c = items[:]
    Rng(1).shuffle(c)
    assert a == c


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(5, "init", 3) == derive_seed(5, "init", 3)
    assert derive_seed(5, "init", 3) != derive_seed(5, "init", 4)
    assert derive_seed(5, "a") != derive_seed(6, "a")
