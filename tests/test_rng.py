import numpy as np

from eitnet.rng import Rng, derive_seed


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
