"""Deterministic splittable PRNG used for every random choice in the package.

The generator is counter-based on top of the splitmix64 finalizer: a stream
is identified by a 64-bit key, and the k-th output word is
``mix64(key + k * GAMMA)``.  Keys are derived by folding an integer path
(seed, tag, indices, ...) through the same mixer, so independent streams can
be split off deterministically at any point.  Words, keys and 53-bit
uniforms are plain integer arithmetic, bit-identical on any platform.
Gaussians come from Box-Muller on those uniforms: ``Stream.normals`` does the
integer part, sqrt and products in numpy (exact or correctly rounded) but
log, cos and sin through libm's ``math.*``, element by element, because
numpy's ufuncs dispatch to CPU-dependent SIMD loops that may differ from
libm in the last ulp.  Gaussians are thus reproducible wherever libm agrees.
"""
from __future__ import annotations

import math
import struct

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_KEY_DOMAIN = 0x8AC7230489E80000  # arbitrary non-zero domain constant

# Stream tags, so different consumers of the same seed never collide.
TAG_GEN_RANDOM = 1
TAG_GEN_PLANTED = 2
TAG_SOLVER = 3
TAG_SUBSET = 4


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective mixer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64_array(z) -> np.ndarray:
    """mix64 over a uint64 array; integer products wrap mod 2^64 as in mix64."""
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_key(seed: int, *path: int) -> int:
    """Fold (seed, *path) into a 64-bit stream key."""
    h = mix64((seed & _MASK) ^ _KEY_DOMAIN)
    for t in path:
        h = mix64(h ^ mix64(t & _MASK))
    return h


def first_uniforms(seed: int, path: tuple[int, ...], last) -> np.ndarray:
    """Stream(derive_key(seed, *path, x)).uniform() for every x of a uint64 array."""
    keys = mix64_array(np.uint64(derive_key(seed, *path)) ^ mix64_array(last))
    return (mix64_array(keys + np.uint64(_GAMMA)) >> np.uint64(11)) * 2.0**-53


def float_bits(x: float) -> int:
    """IEEE-754 bit pattern of a double, as an unsigned 64-bit int."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class Stream:
    """Counter-based word stream for a fixed key."""

    def __init__(self, key: int):
        self.key = key & _MASK
        self.counter = 0
        self._spare: float | None = None

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * _GAMMA) & _MASK)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        """Uniform double in (0, 1], safe as a log argument."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on (uniform_open, uniform) pairs.

        Pair j uses words counter+2j+1 and counter+2j+2 and yields r cos(theta)
        then r sin(theta); an odd count carries the last sine to the next call.
        """
        head = [] if self._spare is None else [self._spare]
        pairs = (n - len(head) + 1) // 2
        k = np.arange(self.counter + 1, self.counter + 2 * pairs + 1, dtype=np.uint64)
        self.counter += 2 * pairs
        w = mix64_array(np.uint64(self.key) + k * np.uint64(_GAMMA)) >> np.uint64(11)
        r = np.sqrt(-2.0 * _libm(math.log, (w[0::2] + np.uint64(1)) * 2.0**-53))
        theta = (2.0 * math.pi) * (w[1::2] * 2.0**-53)
        pair = np.column_stack([r * _libm(math.cos, theta), r * _libm(math.sin, theta)])
        z = np.concatenate([head, pair.ravel()])
        self._spare = float(z[n]) if len(z) > n else None
        return z[:n]


def _libm(f, x: np.ndarray) -> np.ndarray:
    """f (a math.* function) applied element by element, never a numpy ufunc."""
    return np.fromiter(map(f, x.tolist()), np.float64, len(x))
