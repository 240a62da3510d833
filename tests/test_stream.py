"""The counter-based SplitMix64 stream that every randomized probe reads."""

import warnings

import numpy as np
import pytest

from oscillab.stream import SEEDS, box_muller, uniforms


@pytest.mark.parametrize("seed", [0, 1, 2**63, SEEDS - 1])
def test_draws_lie_in_the_unit_interval_and_repeat_bit_for_bit(seed):
    """Seed 2^64 - 1 wraps its state modulo 2^64 with no RuntimeWarning:
    the arithmetic stays on uint64 arrays, where numpy does not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = uniforms(seed, 0, 4096)
        again = uniforms(seed, 0, 4096)
    assert u.dtype == np.float64 and u.shape == (4096,)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert u.tobytes() == again.tobytes()
    # 53-bit resolution: every draw is a multiple of 2^-53
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


def test_seeds_0_and_1_differ():
    assert not np.any(uniforms(0, 0, 256) == uniforms(1, 0, 256))


def test_draw_k_of_seed_s_is_a_function_of_s_and_k_alone():
    """A block read from offset a equals the same draws read as part of a
    longer block from 0: no state is carried between reads."""
    whole = uniforms(7, 0, 1000)
    assert uniforms(7, 300, 200).tobytes() == whole[300:500].tobytes()
    assert uniforms(7, 999, 1).tobytes() == whole[999:].tobytes()
    assert uniforms(7, 5, 0).shape == (0,)


def test_the_stream_is_splitmix64():
    """The first outputs of SplitMix64 seeded with 0, the reference
    sequence of Vigna's splitmix64.c, shifted right by 11 bits."""
    first = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    assert uniforms(0, 0, 3).tolist() == [(z >> 11) * 2.0**-53 for z in first]


@pytest.mark.parametrize("seed", [-1, SEEDS])
def test_a_seed_outside_the_stream_is_refused(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        uniforms(seed, 0, 1)


def test_box_muller_gives_standard_normals():
    """Mean 0 and variance 1 within about four standard errors over 2^17
    normals, and finite at both ends of the first uniform's range."""
    z = box_muller(uniforms(3, 0, 2**18).reshape(-1, 2))
    assert z.shape == (2**17,)
    assert abs(np.mean(z)) < 0.012 and abs(np.var(z) - 1.0) < 0.016
    ends = box_muller(np.array([[0.0, 0.0], [1.0 - 2.0**-53, 0.0]]))
    assert ends.tolist() == pytest.approx([0.0, np.sqrt(106.0 * np.log(2.0))], rel=1e-15)
