"""Reproducible pseudo-random states from a fixed linear congruential stream.

The generator is Knuth's 64-bit LCG (multiplier 6364136223846793005,
increment 1442695040888963407, modulus 2^64); uniforms take the top 53
bits, and complex Gaussians come from the Box-Muller transform.  The
stream is fully specified here so seeded outputs are bit-reproducible
across platforms without importing a heavyweight RNG.  ``seeded_state`` and
``seeded_unitary`` draw it in bulk, bit for bit as ``LcgStream`` draws it one
number at a time: the states by jump-ahead doubling on uint64 arrays, and the
logarithms, cosines and sines by the ``math`` functions ``LcgStream`` calls.
"""

import math

import numpy as np

__all__ = ["LcgStream", "seeded_state", "seeded_unitary"]

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class LcgStream:
    """Deterministic uniform/Gaussian scalar stream."""

    def __init__(self, seed: int):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK
        # warm up so small seeds decorrelate
        for _ in range(4):
            self._next()

    def _next(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def uniform(self) -> float:
        """Uniform in the open interval (0, 1)."""
        return ((self._next() >> 11) + 0.5) / 2.0 ** 53

    def gauss_pair(self):
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)

    def complex_gauss(self) -> complex:
        re, im = self.gauss_pair()
        return complex(re, im)


def _complex_gaussians(seed: int, k: int) -> np.ndarray:
    """The first k values of LcgStream(seed).complex_gauss(), drawn in one pass."""
    states = np.array([LcgStream(seed)._next()], dtype=np.uint64)
    # (a, c) maps a state to the one len(states) further on; the uint64 products wrap mod 2^64
    a, c = _MULT, _INC
    while len(states) < 2 * k:
        states = np.concatenate([states, states * np.uint64(a) + np.uint64(c)])
        a, c = (a * a) & _MASK, (a * c + c) & _MASK
    u = ((states[:2 * k] >> np.uint64(11)).astype(float) + 0.5) / 2.0 ** 53
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u[0::2].tolist()), float, k))
    angle = (2.0 * math.pi * u[1::2]).tolist()
    out = np.empty((k, 2))
    out[:, 0] = r * np.fromiter(map(math.cos, angle), float, k)
    out[:, 1] = r * np.fromiter(map(math.sin, angle), float, k)
    return out.view(complex)[:, 0]


def seeded_state(dim: int, seed: int) -> np.ndarray:
    """Normalized complex state with i.i.d. Gaussian amplitudes."""
    v = _complex_gaussians(seed, dim)
    return v / np.linalg.norm(v)


def seeded_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-ish unitary: QR of a seeded complex Gaussian matrix."""
    m = _complex_gaussians(seed, dim * dim).reshape(dim, dim)
    q, r = np.linalg.qr(m)
    # fix the diagonal phases so the factorization is unique
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
