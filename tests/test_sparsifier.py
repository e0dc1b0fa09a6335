import dataclasses
import math

import numpy as np
import pytest

from ks2 import gen_random
from ks2.errors import BadParams, DegenerateDimension, InvalidVector
from ks2.linalg import SymMatrix, psd_sandwich_check
from ks2.prng import Stream, derive_key
from ks2.sparsifier import (
    fold_ledger_hashes,
    new_state,
    observe,
    recompute_sum,
    sample_probability,
    stack_probabilities,
)

from reference_sparsifier import reference_stream


class TestNewState:
    def test_fresh_state(self):
        st = new_state(3, 0.5, 0.1)
        assert np.array_equal(st.b.a, np.zeros((3, 3)))
        assert st.sample_count == 0
        assert st.shift == pytest.approx(0.2)

    def test_bad_mu(self):
        with pytest.raises(BadParams):
            new_state(3, 0.0, 0.1)
        with pytest.raises(BadParams):
            new_state(3, 1.5, 0.1)

    def test_bad_delta(self):
        with pytest.raises(BadParams):
            new_state(3, 0.5, 0.0)

    def test_one_dimensional_state_allowed(self):
        st = new_state(1, 1.0, 1.0)
        assert st.b.dim == 1


class TestSampleProbability:
    def test_empty_state_saturates(self):
        st = new_state(2, 1.0, 1.0)
        p = sample_probability(st, np.array([1.0, 0.0]))
        # b = 8 ln 2, quadratic form = 1, so the raw value 2b >> 1.
        assert p == 1.0

    def test_zero_vector(self):
        st = new_state(2, 1.0, 1.0)
        assert sample_probability(st, np.zeros(2)) == 0.0

    def test_saturated_background(self):
        st = new_state(2, 1.0, 1.0)
        big = SymMatrix.from_array(100.0 * np.eye(2))
        st = dataclasses.replace(st, b=big)
        p = sample_probability(st, np.array([0.01, 0.0]))
        expected = 8 * math.log(2) * 2.0 * (1e-4 / 101.0)
        assert p == pytest.approx(expected, rel=1e-12)
        assert p == pytest.approx(1.0980549395009034e-05, rel=1e-10)

    def test_degenerate_dimension(self):
        st = new_state(1, 1.0, 1.0)
        with pytest.raises(DegenerateDimension):
            sample_probability(st, np.array([1.0]))

    def test_invalid_vector(self):
        st = new_state(2, 1.0, 1.0)
        with pytest.raises(InvalidVector):
            sample_probability(st, np.array([np.inf, 0.0]))


class TestObserve:
    def test_forced_sample_weight_one(self):
        st = new_state(2, 1.0, 1.0)
        st2, sampled = observe(st, 0, np.array([1.0, 0.0]), u=1.0)
        assert sampled
        assert st2.ledger == ((0, 1.0),)
        assert st2.b.a[0, 0] == pytest.approx(1.0)

    def test_keep_shares_the_parent_ledger(self):
        # A keep links to its parent's ledger instead of copying it.
        st1, _ = observe(new_state(2, 1.0, 1.0), 0, np.array([1.0, 0.0]), u=1.0)
        st2, sampled = observe(st1, 3, np.array([0.0, 1.0]), u=1.0)
        assert sampled and st2.ledger_chain[0] is st1.ledger_chain
        assert st2.ledger == ((0, 1.0), (3, 1.0)) and st2.sample_count == 2

    def test_zero_vector_never_sampled(self):
        st = new_state(2, 1.0, 1.0)
        st2, sampled = observe(st, 0, np.zeros(2), u=0.0)
        assert not sampled
        assert st2 is st

    def test_bad_u(self):
        st = new_state(2, 1.0, 1.0)
        with pytest.raises(BadParams):
            observe(st, 0, np.ones(2), u=1.5)

    def test_replay_ledger_consistency(self):
        # 200 vectors in d=10: the final B must equal the ledger-recomputed
        # sum, every intermediate B must be PSD and the count monotone.
        inst = gen_random(10, 200, seed=4)
        st = new_state(10, 0.3, 0.05)
        u = Stream(derive_key(4, 1000))
        last_count = 0
        for i in range(200):
            st, _ = observe(st, i, inst.vectors[i], u.uniform())
            assert st.sample_count >= last_count
            last_count = st.sample_count
            assert all(w >= 1.0 for _, w in st.ledger)
        assert np.linalg.eigvalsh(st.b.a)[0] >= -1e-12
        rebuilt = recompute_sum(st, inst.vectors)
        assert np.linalg.norm(st.b.a - rebuilt.a, 2) <= 1e-9

    def test_bitwise_determinism(self):
        inst = gen_random(5, 30, seed=9)
        u1, u2 = (Stream(derive_key(9, 2000)) for _ in range(2))
        s1, s2 = new_state(5, 0.4, 0.1), new_state(5, 0.4, 0.1)
        for i in range(30):
            s1, f1 = observe(s1, i, inst.vectors[i], u1.uniform())
            s2, f2 = observe(s2, i, inst.vectors[i], u2.uniform())
            assert f1 == f2
        assert np.array_equal(s1.b.a, s2.b.a)
        assert s1.ledger == s2.ledger
        assert s1.ledger_hash == s2.ledger_hash


class TestStackKernels:
    @staticmethod
    def _states():
        # A path through 119 vectors in d=3 whose later draws have p < 1.
        inst = gen_random(3, 120, seed=9)
        st = new_state(3, 1.0, 0.05)
        u = Stream(derive_key(9, 3000))
        states = [st]
        for i in range(119):
            st, _ = observe(st, i, inst.vectors[i], u.uniform())
            states.append(st)
        return states, inst.vectors[119]

    def test_probabilities_match_sample_probability(self):
        states, v = self._states()
        sums = np.array([s.b.a for s in states])
        got = stack_probabilities(sums, states[0].mu, states[0].shift, v)
        want = [sample_probability(s, v) for s in states]
        assert got.tolist() == want
        assert min(want) < 1.0 == max(want)

    def test_fold_matches_observe(self):
        states, v = self._states()
        grown = [observe(s, 119, v, 0.0)[0] for s in states]
        got = fold_ledger_hashes(np.array([s.ledger_hash for s in states], dtype=np.uint64),
                                 119, np.array([g.ledger[-1][1] for g in grown]))
        assert [int(h) for h in got] == [g.ledger_hash for g in grown]

    def test_degenerate_dimension_only_when_asked(self):
        with pytest.raises(DegenerateDimension):
            stack_probabilities(np.zeros((1, 1, 1)), 1.0, 1.0, np.array([1.0]))
        assert stack_probabilities(np.zeros((0, 1, 1)), 1.0, 1.0, np.array([1.0])).size == 0


def test_long_stream_matches_reference():
    # The sparsify-stream benchmark's shape: most draws have p < 1.
    inst = gen_random(10, 4000, seed=11)
    draws = np.random.default_rng(11).random(4000)
    st = new_state(10, 0.5, 0.05)
    for i, (v, u) in enumerate(zip(inst.vectors, draws)):
        st, _ = observe(st, i, v, float(u))
    b, ledger, h = reference_stream(inst.vectors, draws, 0.5, 0.05)
    assert st.b.a.tobytes() == b.tobytes()
    assert st.ledger == ledger and st.sample_count == len(ledger)
    assert st.ledger_hash == h
    assert len(ledger) < 4000 and max(w for _, w in ledger) > 1.0


def test_sandwich_statistics_smoke():
    # Small version of the statistical guarantee; the acceptance suite runs
    # the full 100-seed sweep.
    eye = SymMatrix.identity(10)
    hits = 0
    for seed in range(10):
        inst = gen_random(10, 120, seed=seed)
        st = new_state(10, 0.25, 0.05)
        u = Stream(derive_key(seed, 77))
        for i in range(inst.num_vectors):
            st, _ = observe(st, i, inst.vectors[i], u.uniform())
        hits += psd_sandwich_check(eye, st.b, 0.25, 0.05)
    assert hits >= 9
