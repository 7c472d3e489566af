"""The bulk draws of seeded states and unitaries against the scalar stream they reproduce."""

import warnings

import numpy as np
import pytest

from qwl import rng
from qwl.rng import LcgStream, seeded_state, seeded_unitary

CASES = [(1, 0), (7, 3), (512, 3), (1000, 3), (6000, 11), (3, -5), (5, 2 ** 70)]


def _stream_gaussians(seed, k):
    stream = LcgStream(seed)
    return np.array([stream.complex_gauss() for _ in range(k)], dtype=complex)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("dim, seed", CASES)
def test_bulk_draws_are_the_streams_bit_for_bit(dim, seed):
    expected = _stream_gaussians(seed, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the uint64 products wrap silently
        assert _same_bits(rng._complex_gaussians(seed, dim), expected)
        assert _same_bits(seeded_state(dim, seed), expected / np.linalg.norm(expected))


@pytest.mark.parametrize("dim, seed", [(1, 0), (7, 3), (3, -5), (5, 2 ** 70), (32, 11)])
def test_seeded_unitary_reads_the_stream_row_major(dim, seed):
    q, r = np.linalg.qr(_stream_gaussians(seed, dim * dim).reshape(dim, dim))
    expected = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    assert _same_bits(seeded_unitary(dim, seed), expected)
