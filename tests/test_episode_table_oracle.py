"""The one-pass episode table against the per-sequence ``run_bounds`` loop.

``oracle_table`` keeps the loop that index building, the all-day
duration pools, the evaluation episode arrays and the episode CSV
writer each ran over a corpus, one sequence at a time, as the reference
that ``episode_table`` must reproduce exactly: the same episodes, in the
same order, with the same dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import Corpus, StateAlphabet, episode_table
from seqsynth.core import run_bounds

from _groundtruth import activity_ground_truth


def oracle_table(matrix):
    """(row, start, state, duration) of every episode, one row at a time."""
    rows_l, starts_l, states_l, durs_l = [], [], [], []
    for i, states in enumerate(np.asarray(matrix, dtype=np.int64)):
        starts, lengths = run_bounds(states)
        rows_l.append(np.full(starts.size, i, dtype=np.int64))
        starts_l.append(starts)
        states_l.append(states[starts])
        durs_l.append(lengths)
    if not rows_l:
        return tuple(np.empty(0, np.int64) for _ in range(4))
    return tuple(np.concatenate(c) for c in (rows_l, starts_l, states_l, durs_l))


def assert_matches_oracle(matrix):
    got = episode_table(matrix)
    want = oracle_table(matrix)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        assert np.array_equal(g, w)
    return got


def corpus_of(rows, n_states=4):
    alphabet = StateAlphabet(tuple(f"s{i}" for i in range(n_states)))
    return Corpus.from_arrays(alphabet, rows)


@st.composite
def matrices(draw):
    n_states = draw(st.integers(1, 4))
    length = draw(st.integers(1, 15))
    n_rows = draw(st.integers(1, 6))
    cell = st.integers(0, n_states - 1)
    rows = draw(
        st.lists(
            st.lists(cell, min_size=length, max_size=length),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return corpus_of(rows, n_states).states_matrix


class TestEpisodeTable:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_matches_per_row_loop(self, matrix):
        assert_matches_oracle(matrix)

    def test_one_row(self):
        row, start, state, dur = assert_matches_oracle(
            corpus_of([[0, 0, 1, 1, 1, 0]]).states_matrix
        )
        assert start.tolist() == [0, 2, 5]
        assert state.tolist() == [0, 1, 0]
        assert dur.tolist() == [2, 3, 1]

    def test_one_column(self):
        row, start, state, dur = assert_matches_oracle(
            corpus_of([[2], [0], [0], [3]]).states_matrix
        )
        assert row.tolist() == [0, 1, 2, 3]
        assert start.tolist() == [0, 0, 0, 0]
        assert state.tolist() == [2, 0, 0, 3]
        assert dur.tolist() == [1, 1, 1, 1]

    def test_constant_rows(self):
        # equal neighbouring rows must not merge across the row boundary
        row, start, state, dur = assert_matches_oracle(
            corpus_of([[1] * 7, [1] * 7, [3] * 7]).states_matrix
        )
        assert row.tolist() == [0, 1, 2]
        assert dur.tolist() == [7, 7, 7]

    def test_every_step_changes(self):
        length = 9
        rows = [[(t + r) % 2 for t in range(length)] for r in range(4)]
        row, start, state, dur = assert_matches_oracle(corpus_of(rows).states_matrix)
        assert row.size == 4 * length
        assert (dur == 1).all()
        assert start.tolist() == list(range(length)) * 4

    def test_empty_corpus(self):
        empty = corpus_of([[0, 1]]).subset([])
        assert empty.states_matrix.shape == (0, 0)
        for column in assert_matches_oracle(empty.states_matrix):
            assert column.size == 0

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
    def test_full_days_any_cell_dtype(self, dtype):
        matrix = activity_ground_truth(200, 1440, seed=71).states_matrix
        assert_matches_oracle(matrix.astype(dtype))
