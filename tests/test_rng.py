import numpy as np
import pytest

from macie import (
    ConfigError,
    SeedTree,
    bootstrap_indices,
    derive_stream,
    sample_permutations,
)
from macie.rng import uniform_streams


def test_stream_draws_are_reproducible():
    a = SeedTree(42).stream("act", 0, 1, 2).random(3)
    b = SeedTree(42).stream("act", 0, 1, 2).random(3)
    assert np.array_equal(a, b)
    # frozen draws guard the derivation scheme against accidental change
    assert np.allclose(a, [0.08577248, 0.41204530, 0.88333561])
    assert np.allclose(
        SeedTree(42).stream("reset", 7).random(2), [0.23442035, 0.38889956]
    )


def test_streams_do_not_depend_on_creation_order():
    t1 = SeedTree(7)
    a1 = t1.stream("act", 0, 0, 0).random(4)
    b1 = t1.stream("env", 3, 1).random(4)
    t2 = SeedTree(7)
    b2 = t2.stream("env", 3, 1).random(4)
    a2 = t2.stream("act", 0, 0, 0).random(4)
    assert np.array_equal(a1, a2)
    assert np.array_equal(b1, b2)


def test_distinct_keys_give_distinct_streams():
    t = SeedTree(42)
    base = t.stream("act", 0, 0, 0).random(8)
    assert not np.array_equal(base, t.stream("act", 0, 0, 1).random(8))
    assert not np.array_equal(base, t.stream("act", 0, 1, 0).random(8))
    assert not np.array_equal(base, t.stream("act", 1, 0, 0).random(8))
    assert not np.array_equal(base, t.stream("env", 0, 0, 0).random(8))
    assert not np.array_equal(base, SeedTree(43).stream("act", 0, 0, 0).random(8))


def test_sibling_streams_look_independent():
    t = SeedTree(0)
    a = t.stream("act", 0, 0, 0).random(4000)
    b = t.stream("act", 0, 0, 1).random(4000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_derive_stream_matches_stream_method():
    t = SeedTree(13)
    a = derive_stream(t, "bootstrap", [2, 5]).random(6)
    b = t.stream("bootstrap", 2, 5).random(6)
    assert np.array_equal(a, b)


def test_stream_key_validation():
    t = SeedTree(1)
    with pytest.raises(ConfigError):
        t.stream("")
    with pytest.raises(ConfigError):
        t.stream("act", -1)


@pytest.mark.parametrize(
    "seed", [0, 1, 42, 2**32 + 5, 2**64 - 1, -1, 99999999999999999999999]
)
def test_uniform_streams_match_derive_stream_bit_for_bit(seed):
    t = SeedTree(seed)
    rng = np.random.default_rng(seed % 1000)
    for tag in ("act", "env", "bootstrap"):
        for m in (1, 2, 3):
            idx = rng.integers(0, 2**32, size=(6, m))
            idx[0], idx[1] = 0, 2**32 - 1
            for n in (1, 2, 3, 4, 5, 36, 108):
                got = uniform_streams(t, tag, idx, n)
                assert got.shape == (len(idx), n)
                for row, key in zip(got, idx.tolist()):
                    want = derive_stream(t, tag, key).random(n)
                    assert row.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_uniform_streams_key_validation():
    t = SeedTree(1)
    with pytest.raises(ConfigError):
        uniform_streams(t, "", [[0]], 4)
    with pytest.raises(ConfigError):
        uniform_streams(t, "act", [[0, -1]], 4)
    with pytest.raises(ConfigError):
        uniform_streams(t, "act", [[2**32, 0]], 4)


def test_sample_permutations_blocks_cover_every_order():
    perms = sample_permutations(3, 6, np.random.default_rng(0))
    assert perms.shape == (6, 3)
    assert {tuple(p) for p in perms} == {
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    }
    # a longer run is whole blocks plus a partial one, still all permutations
    perms = sample_permutations(2, 5, np.random.default_rng(1))
    assert perms.shape == (5, 2)
    assert {tuple(p) for p in perms[:2]} == {(0, 1), (1, 0)}
    assert {tuple(p) for p in perms[2:4]} == {(0, 1), (1, 0)}


def test_sample_permutations_deterministic():
    a = sample_permutations(4, 10, np.random.default_rng(5))
    b = sample_permutations(4, 10, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_bootstrap_indices_shape_and_range():
    idx = bootstrap_indices(9, 50, np.random.default_rng(3))
    assert idx.shape == (50, 9)
    assert idx.min() >= 0 and idx.max() < 9
    again = bootstrap_indices(9, 50, np.random.default_rng(3))
    assert np.array_equal(idx, again)
