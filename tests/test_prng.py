import math

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from ks2.prng import Stream, derive_key, first_uniforms, float_bits, mix64, mix64_array

from reference_prng import ReferenceStream


def test_mix64_known_values_stable():
    # Frozen outputs guard against accidental changes to the mixer, which
    # would silently change every fixture and solver path in the package.
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535


def test_mix64_array_matches_scalar():
    zs = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15] + [mix64(k) for k in range(200)]
    got = mix64_array(np.array(zs, dtype=np.uint64))
    assert [int(z) for z in got] == [mix64(z) for z in zs]


def test_first_uniforms_match_streams():
    last = [0, 2**64 - 1] + [mix64(k) for k in range(200)]
    got = first_uniforms(42, (3, 7), np.array(last, dtype=np.uint64))
    assert got.tolist() == [Stream(derive_key(42, 3, 7, x)).uniform() for x in last]


def test_streams_are_deterministic():
    a = Stream(derive_key(42, 1, 2, 3))
    b = Stream(derive_key(42, 1, 2, 3))
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_distinct_paths_diverge():
    a = Stream(derive_key(42, 1))
    b = Stream(derive_key(42, 2))
    c = Stream(derive_key(43, 1))
    heads = {s.next_u64() for s in (a, b, c)}
    assert len(heads) == 3


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_uniform_range(key):
    s = Stream(key)
    u = s.uniform()
    assert 0.0 <= u < 1.0
    v = s.uniform_open()
    assert 0.0 < v <= 1.0


def test_normals_have_sane_moments():
    s = Stream(derive_key(7, 123))
    xs = s.normals(20_000)
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.05


def test_normal_pair_caching_keeps_determinism():
    a = ReferenceStream(derive_key(9, 9))
    b = Stream(derive_key(9, 9))
    seq_a = [a.normal() for _ in range(7)]
    seq_b = b.normals(7).tolist()
    assert seq_a == seq_b


_COUNTS = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 64),
                    st.integers(0, 40).map(lambda j: 2 * j + 1), st.integers(4001, 4200))


@given(st.integers(0, 2**64 - 1), st.lists(_COUNTS, min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_normals_match_scalar_reference(key, counts):
    # Value for value, and the counter and carried sine after every call, so
    # an odd count continues into the next call exactly as the scalar path.
    got, ref = Stream(key), ReferenceStream(key)
    for n in counts:
        xs = got.normals(n)
        assert xs.dtype == np.float64 and xs.shape == (n,)
        assert xs.tolist() == ref.normals(n)
        assert got.counter == ref.counter
        assert got._spare == ref._spare


def test_float_bits_distinguishes_values():
    assert float_bits(1.0) != float_bits(-1.0)
    assert float_bits(0.5) == float_bits(0.5)
    assert float_bits(math.nextafter(0.5, 1.0)) != float_bits(0.5)
