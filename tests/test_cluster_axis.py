"""The cluster axis of the source model against per-cluster sub-corpora.

A labelled fit, opening draw, buffer and index key every part by
cluster.  The oracle for cluster c is the same part built from
``corpus.subset(labels == c)`` alone, which is how clustered batches
were built before the cluster became a key.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import (
    ConfigError,
    DataFormatError,
    PairedMcEngine,
    SynthesisConfig,
    TvmcModel,
    build_index,
    extend_with_buffer,
)

from _groundtruth import activity_ground_truth
from test_paired_mc_oracle import OracleFirstEpisodes
from test_tvmc_oracle import oracle_fit, oracle_step, small_corpora


@st.composite
def labelled_corpora(draw):
    corpus = draw(small_corpora())
    k = draw(st.integers(1, len(corpus)))
    labels = draw(st.permutations([i % k for i in range(len(corpus))]))
    return corpus, np.array(labels, dtype=np.int64)


def _subset(corpus, labels, c):
    return corpus.subset(np.flatnonzero(labels == c))


def _labelled_days(n=24, length=90, k=3, seed=31):
    corpus = activity_ground_truth(n, length, seed=seed)
    labels = np.random.default_rng(seed).permutation(np.arange(n) % k)
    return corpus, labels


class TestFit:
    @settings(max_examples=60, deadline=None)
    @given(labelled_corpora())
    def test_each_slice_is_the_fit_of_its_cluster(self, case):
        corpus, labels = case
        model = TvmcModel.fit(corpus, labels)
        k = int(labels.max()) + 1
        assert model.trans_cum.shape[0] == model.first_cum.shape[0] == k
        for c in range(k):
            want = oracle_fit(_subset(corpus, labels, c))
            got = (model.trans_cum[c], model.first_cum[c], model.marginal_cum[c])
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_walk_reads_each_rows_cluster(self, data):
        corpus, labels = data.draw(labelled_corpora())
        k = int(labels.max()) + 1
        n_rows = data.draw(st.integers(1, 6))
        n_steps = data.draw(st.integers(0, 10))
        t0 = data.draw(st.integers(0, 2 * corpus.length))
        state = st.integers(0, corpus.alphabet.size - 1)
        start = data.draw(st.lists(state, min_size=n_rows, max_size=n_rows))
        cluster = data.draw(st.lists(st.integers(0, k - 1), min_size=n_rows, max_size=n_rows))
        uniforms = np.random.default_rng(data.draw(st.integers(0, 2**32))).random(
            (n_rows, n_steps)
        )
        model = TvmcModel.fit(corpus, labels)
        states, fallbacks = model.walk(np.array(start), t0, uniforms, np.array(cluster))
        assert states.dtype == corpus.alphabet.cell_dtype
        fitted = [oracle_fit(_subset(corpus, labels, c)) for c in range(k)]
        for i in range(n_rows):
            cur, fell_back = start[i], 0
            for j in range(n_steps):
                cur, fb = oracle_step(fitted[cluster[i]], cur, t0 + j, uniforms[i, j])
                assert states[i, j] == cur
                fell_back += fb
            assert fallbacks[i] == fell_back


class _Doubles:
    """A stand-in stream that returns the given doubles in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestFirstEpisodes:
    @settings(max_examples=60, deadline=None)
    @given(labelled_corpora(), st.integers(0, 2**32))
    def test_draws_match_the_table_of_each_cluster(self, case, seed):
        corpus, labels = case
        k = int(labels.max()) + 1
        config = SynthesisConfig(delta=0, buffer="none", target_length=corpus.length)
        engine = PairedMcEngine(corpus, config, labels)
        rng = np.random.default_rng(seed)
        for c in range(k):
            part = OracleFirstEpisodes(_subset(corpus, labels, c))
            total = int(np.sum(labels == c))
            # random doubles, and doubles on and just below every bound
            edges = np.arange(total) / total
            u_state = np.concatenate((rng.random(20), edges, np.nextafter(edges, -1)[1:]))
            u_pos = rng.random(u_state.size)
            got = engine._opening(u_state, u_pos, np.full(u_state.size, c))
            want = np.array(
                [part.draw(_Doubles(pair)) for pair in zip(u_state, u_pos)]
            ).T
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestBuffer:
    def test_each_cluster_walks_on_its_own_stream(self):
        corpus, labels = _labelled_days()
        model = TvmcModel.fit(corpus, labels)
        streams = [np.random.default_rng(100 + c) for c in range(3)]
        got = extend_with_buffer(corpus, model, 20, streams, labels)
        for c in range(3):
            part = _subset(corpus, labels, c)
            want = extend_with_buffer(
                part, TvmcModel.fit(part), 20, [np.random.default_rng(100 + c)]
            )
            rows = np.flatnonzero(labels == c)
            assert np.array_equal(got.states_matrix[rows], want.states_matrix)
        assert got.states_matrix.dtype == corpus.states_matrix.dtype


class TestIndex:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_candidates_match_the_index_of_each_cluster(self, order):
        corpus, labels = _labelled_days()
        delta = 12
        index = build_index(corpus, delta, order, labels)
        parts = [build_index(_subset(corpus, labels, c), delta, order) for c in range(3)]
        assert index.n_records == sum(p.n_records for p in parts)
        rng = np.random.default_rng(40 + order)
        n_states = corpus.alphabet.size
        for _ in range(300):
            c = int(rng.integers(3))
            a_c = int(rng.integers(n_states))
            context = rng.integers(n_states, size=int(rng.integers(0, order))).tolist()
            t_c = int(rng.integers(0, corpus.length))
            width = int(rng.choice([0, delta, 4 * delta]))
            got = index.candidates(a_c, context, t_c, width, order, cluster=c)
            want = parts[c].candidates(a_c, context, t_c, width, order)
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.durations, want.durations)

    @pytest.mark.parametrize("labelled", [False, True])
    def test_a_higher_order_appends_to_a_lower_order_index(self, labelled):
        corpus, labels = _labelled_days()
        labels = labels if labelled else None
        base = build_index(corpus, 12, 1, labels)
        for order in (2, 3):
            grown = build_index(corpus, 12, order, labels, base)
            fresh = build_index(corpus, 12, order, labels)
            for name in ("keys", "records", "states", "durations"):
                assert np.array_equal(getattr(grown, name), getattr(fresh, name)), name
            assert grown.order == order
            base = grown

    def test_cluster_outside_the_index_is_rejected(self):
        corpus, labels = _labelled_days()
        index = build_index(corpus, 12, 1, labels)
        with pytest.raises(ConfigError, match="cluster"):
            index.candidates(0, (), 10, cluster=3)

    def test_cluster_count_overflowing_the_key_is_rejected_before_allocating(self):
        corpus = activity_ground_truth(2, 1440, seed=3)
        # 2**48 clusters of 39 order-3 contexts times 1440 starts pass 2**63
        labels = np.array([0, 2**48 - 1])
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="too many to index"):
                build_index(corpus, 5, 3, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert build_index(corpus, 5, 3, np.array([0, 1])).n_clusters == 2


class TestEngineInputs:
    def test_clusters_must_be_one_known_cluster_per_stream(self):
        corpus, labels = _labelled_days()
        engine = PairedMcEngine(corpus, SynthesisConfig(delta=10, target_length=90), labels)
        rngs = [np.random.default_rng(i) for i in range(2)]
        for bad in ([0], [0, 3], [-1, 0]):
            with pytest.raises(ConfigError, match="clusters"):
                engine.generate_many(rngs, bad)
        states, _ = engine.generate_many(rngs, [2, 0])
        assert states.shape == (2, 90)

    def test_labels_must_cover_the_corpus(self):
        corpus, labels = _labelled_days()
        config = SynthesisConfig(delta=10, target_length=90)
        with pytest.raises(DataFormatError, match="labels"):
            PairedMcEngine(corpus, config, labels[:-1])
        with pytest.raises(DataFormatError, match="non-empty"):
            PairedMcEngine(corpus, config, labels * 2)
