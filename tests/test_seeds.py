import numpy as np
import pytest

from modnet.seeds import derive_seed

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _reference_stream(seed: int, n: int) -> list[int]:
    """Textbook splitmix64, written independently of seeds.py."""
    state = seed
    out = []
    for _ in range(n):
        state = (state + GOLDEN) & MASK
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


def test_matches_published_first_output():
    # splitmix64 seeded with 0 famously emits e220a8397b1dcdaf first
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF


def test_matches_reference_stream_for_several_masters():
    for master in (0, 1, 42, 2**64 - 1):
        assert [derive_seed(master, i) for i in range(8)] == \
            _reference_stream(master, 8)


def test_outputs_are_64_bit_and_deterministic():
    vals = [derive_seed(987654321, i) for i in range(1000)]
    assert all(0 <= v <= MASK for v in vals)
    assert vals == [derive_seed(987654321, i) for i in range(1000)]


def test_no_collisions_across_chain_indices():
    vals = {derive_seed(2026, i) for i in range(10000)}
    assert len(vals) == 10000


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        derive_seed(0, -1)


# -- numpy Generator facts the pinned streams rely on ---------------------------
# The one-particle sweep step draws a scalar where the general step draws
# random(1), an inverse draws all its rows' uniforms in one random(n), and a
# dead one-particle sweep resamples with integers(0, 1, size=1). A numpy that
# broke any of these would silently move every pinned digest.
# (integers(1) drawing nothing is pinned in test_mh.)

def test_scalar_random_is_the_first_double_of_a_one_element_draw():
    for seed in range(50):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert a.random() == b.random(1)[0]
            assert a.bit_generator.state == b.bit_generator.state


def test_consecutive_random_calls_continue_one_stream():
    for seed, (n, m) in enumerate([(1, 1), (1, 4), (3, 2), (7, 0), (0, 5),
                                   (64, 65), (1000, 3)]):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = a.random(n).tolist() + a.random(m).tolist()
        assert got == b.random(n + m).tolist()
        assert a.bit_generator.state == b.bit_generator.state


def test_a_one_value_integer_row_draws_nothing():
    rng = np.random.default_rng(17)
    rng.random(3)
    before = rng.bit_generator.state
    for _ in range(5):
        assert rng.integers(0, 1, size=1).tolist() == [0]
    assert rng.bit_generator.state == before
