"""The lockstep TVMC walk against the scalar per-interval walk.

``oracle_fit``, ``oracle_step`` and ``oracle_generate`` keep the former
one-``bincount``-per-interval fit, the scalar ``TvmcModel.step`` and
the one-sequence ``TvmcEngine.generate`` loop as the reference that
``TvmcModel.fit``, ``TvmcModel.walk`` and ``TvmcEngine.generate_many``
must reproduce exactly.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import (
    ClusterWeights,
    Corpus,
    StateAlphabet,
    SynthesisConfig,
    TvmcModel,
    synthesize_batch,
)
from seqsynth import synth
from seqsynth.synth import _SEQUENCE_STREAM

from _groundtruth import activity_ground_truth
from _provenance import oracle_provenance_json


def oracle_fit(corpus):
    """(trans_cum, first_cum, marginal_cum), one bincount per interval."""
    mat = corpus.states_matrix.astype(np.int64)
    n_seq, length = mat.shape
    n_states = corpus.alphabet.size
    prev = np.roll(mat, 1, axis=1)
    flat = prev * n_states + mat
    counts = np.empty((length, n_states, n_states), dtype=np.int64)
    for t in range(length):
        counts[t] = np.bincount(flat[:, t], minlength=n_states * n_states).reshape(
            n_states, n_states
        )
    marginal = counts.sum(axis=1)
    first = np.bincount(mat[:, 0], minlength=n_states)
    return counts.cumsum(axis=2), first.cumsum(), marginal.cumsum(axis=1)


def oracle_step(fitted, state, t, u):
    """State at ``t`` given ``state`` at ``t - 1``; (state, fell back)."""
    trans_cum, _, marginal_cum = fitted
    t = t % trans_cum.shape[0]
    row = trans_cum[t, state]
    total = row[-1]
    fallback = total == 0
    if fallback:
        row = marginal_cum[t]
        total = row[-1]
    return int(np.searchsorted(row, u * total, side="right")), bool(fallback)


def oracle_generate(fitted, rng):
    """One day from one stream: an opening draw, then one step per interval."""
    trans_cum, first_cum, _ = fitted
    n = trans_cum.shape[0]
    states = np.empty(n, dtype=np.int64)
    cur = int(np.searchsorted(first_cum, rng.random() * first_cum[-1], side="right"))
    states[0] = cur
    us = rng.random(n - 1)
    fallbacks = 0
    for t in range(1, n):
        cur, fell_back = oracle_step(fitted, cur, t, us[t - 1])
        states[t] = cur
        fallbacks += fell_back
    return states, fallbacks


@st.composite
def small_corpora(draw):
    n_states = draw(st.integers(2, 4))
    length = draw(st.integers(1, 12))
    n_seq = draw(st.integers(1, 5))
    # the last state may never occur, so walks from it must fall back
    cell = st.integers(0, n_states - 1)
    rows = draw(
        st.lists(
            st.lists(cell, min_size=length, max_size=length),
            min_size=n_seq,
            max_size=n_seq,
        )
    )
    alphabet = StateAlphabet(tuple(f"s{i}" for i in range(n_states)))
    return Corpus.from_arrays(alphabet, rows)


class TestFit:
    @settings(max_examples=60, deadline=None)
    @given(small_corpora())
    def test_matches_per_interval_loop(self, corpus):
        model = TvmcModel.fit(corpus)
        for got, want in zip(
            (model.trans_cum[0], model.first_cum[0], model.marginal_cum[0]), oracle_fit(corpus)
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_matches_per_interval_loop_on_full_days(self):
        corpus = activity_ground_truth(40, 1440, seed=80)
        model = TvmcModel.fit(corpus)
        trans_cum, first_cum, marginal_cum = oracle_fit(corpus)
        assert np.array_equal(model.trans_cum[0], trans_cum)
        assert np.array_equal(model.first_cum[0], first_cum)
        assert np.array_equal(model.marginal_cum[0], marginal_cum)


class TestWalk:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_scalar_steps(self, data):
        corpus = data.draw(small_corpora())
        n_states = corpus.alphabet.size
        n_rows = data.draw(st.integers(1, 6))
        n_steps = data.draw(st.integers(0, 15))
        t0 = data.draw(st.integers(0, 3 * corpus.length))
        start = data.draw(
            st.lists(st.integers(0, n_states - 1), min_size=n_rows, max_size=n_rows)
        )
        unit = st.floats(0.0, 1.0, exclude_max=True)
        uniforms = np.array(
            data.draw(
                st.lists(
                    st.lists(unit, min_size=n_steps, max_size=n_steps),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
            dtype=np.float64,
        ).reshape(n_rows, n_steps)

        states, fallbacks = TvmcModel.fit(corpus).walk(np.array(start), t0, uniforms)

        fitted = oracle_fit(corpus)
        assert states.shape == (n_rows, n_steps)
        for i in range(n_rows):
            cur, fell_back = start[i], 0
            for k in range(n_steps):
                cur, fb = oracle_step(fitted, cur, t0 + k, uniforms[i, k])
                assert states[i, k] == cur
                fell_back += fb
            assert fallbacks[i] == fell_back

    def test_unseen_start_state_falls_back_to_marginal(self):
        # state 2 never occurs: a walk from it draws from the marginal
        alphabet = StateAlphabet(("a", "b", "c"))
        corpus = Corpus.from_arrays(alphabet, [[0, 0, 1, 1], [1, 1, 0, 0]])
        model = TvmcModel.fit(corpus)
        uniforms = np.array([[0.1, 0.9], [0.1, 0.9]])
        states, fallbacks = model.walk(np.array([2, 0]), 1, uniforms)
        fitted = oracle_fit(corpus)
        assert fallbacks.tolist() == [1, 0]
        assert states[0, 0] == oracle_step(fitted, 2, 1, 0.1)[0]
        assert states[1].tolist() == [0, 1]


def _clustered(corpus):
    # unequal clusters, weighted against their sizes
    sizes = (15, 10, 5)
    vec = np.repeat(np.arange(3), sizes)
    labels = {sid: int(c) for sid, c in zip(corpus.ids, vec)}
    return labels, vec, [float(s) for s in sizes[::-1]]


class TestBatchOracle:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("small_windows", [False, True])
    def test_batch_matches_scalar_generation(
        self, workers, clustered, small_windows, monkeypatch
    ):
        if small_windows:
            # many blocks per chunk, each mixing clusters
            monkeypatch.setattr(synth, "_BLOCK_ROWS", 8)
        corpus = activity_ground_truth(30, 120, seed=81)
        config = SynthesisConfig(delta=20, target_length=120, seed=82)
        count = 600  # several 256-row blocks, not a multiple of 256
        if clustered:
            labels, vec, weights = _clustered(corpus)
            parts = [corpus.subset(np.flatnonzero(vec == c)) for c in range(3)]
        else:
            labels = weights = None
            parts = [corpus]
        out, prov = synthesize_batch(
            corpus, config, count, engine="tvmc", assignment=labels,
            weights=weights, workers=workers,
        )

        fitted = [oracle_fit(part) for part in parts]
        want = np.empty((count, corpus.length), dtype=np.int64)
        drawn = []
        for ordinal in range(count):
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, _SEQUENCE_STREAM, ordinal))
            )
            cluster = int(ClusterWeights(weights).choose(rng.random())) if clustered else 0
            want[ordinal], marginal = oracle_generate(fitted[cluster], rng)
            drawn.append((cluster, {"marginal": marginal}))
        assert np.array_equal(out.states_matrix, want)
        assert json.dumps(prov.to_dict()) == oracle_provenance_json(
            "tvmc", config, count, weights or [1.0], drawn
        )
        if clustered:
            sizes = np.bincount(prov.clusters, minlength=3)
            assert sizes.max() > 256  # one cluster spans two blocks
