import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import (
    ConfigError,
    ContinuousSeries,
    Corpus,
    DataFormatError,
    Episode,
    EpisodeSequence,
    IntervalSequence,
    StateAlphabet,
    discretize,
    discretize_corpus,
    rle_decode,
    rle_encode,
    smooth_rolling,
    threshold_alphabet,
)


class TestStateAlphabet:
    def test_basic(self):
        a = StateAlphabet(("home", "work"))
        assert a.size == 2
        assert a.index("work") == 1
        assert a.label(0) == "home"
        assert "home" in a and "car" not in a

    def test_rejects_duplicates(self):
        with pytest.raises(DataFormatError):
            StateAlphabet(("home", "home"))

    def test_rejects_empty(self):
        with pytest.raises(DataFormatError):
            StateAlphabet(())
        with pytest.raises(DataFormatError):
            StateAlphabet(("", "x"))

    def test_unknown_label(self):
        with pytest.raises(DataFormatError):
            StateAlphabet(("a",)).index("b")


class TestIntervalSequence:
    def test_immutable(self):
        seq = IntervalSequence([0, 1, 1])
        with pytest.raises(ValueError):
            seq.states[0] = 5

    def test_rejects_empty_and_negative(self):
        with pytest.raises(DataFormatError):
            IntervalSequence([])
        with pytest.raises(DataFormatError):
            IntervalSequence([0, -1])

    def test_equality(self):
        assert IntervalSequence([0, 1], id="x") == IntervalSequence([0, 1], id="x")
        assert IntervalSequence([0, 1], id="x") != IntervalSequence([0, 1], id="y")
        assert IntervalSequence([0, 1]) != IntervalSequence([0, 2])


class TestRle:
    def test_constant_sequence(self):
        e = rle_encode(IntervalSequence([0, 0, 0, 0]))
        assert [(ep.state, ep.duration, ep.start) for ep in e.episodes] == [(0, 4, 0)]

    def test_alternation(self):
        e = rle_encode(IntervalSequence([0, 1, 1, 0]))
        assert [(ep.state, ep.duration, ep.start) for ep in e.episodes] == [
            (0, 1, 0),
            (1, 2, 1),
            (0, 1, 3),
        ]

    def test_decode_trivial(self):
        e = EpisodeSequence((Episode(0, 3, 0),), 3)
        assert rle_decode(e).states.tolist() == [0, 0, 0]
        e = EpisodeSequence((Episode(0, 1, 0), Episode(1, 1, 1)), 2)
        assert rle_decode(e).states.tolist() == [0, 1]

    def test_episode_sequence_invariants(self):
        with pytest.raises(DataFormatError):  # adjacent equal states
            EpisodeSequence((Episode(0, 1, 0), Episode(0, 1, 1)), 2)
        with pytest.raises(DataFormatError):  # bad start
            EpisodeSequence((Episode(0, 1, 0), Episode(1, 1, 2)), 2)
        with pytest.raises(DataFormatError):  # bad total
            EpisodeSequence((Episode(0, 2, 0),), 3)

    def test_round_trip_1440(self):
        rng = np.random.default_rng(1)
        seq = IntervalSequence(rng.integers(0, 5, 1440), id="day")
        assert rle_decode(rle_encode(seq)) == seq

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=300))
    def test_round_trip_property(self, states):
        seq = IntervalSequence(states, 1, "p")
        eseq = rle_encode(seq)
        assert rle_decode(eseq) == seq
        # canonical episode chains round-trip the other way too
        assert rle_encode(rle_decode(eseq)) == eseq


class TestSmoothing:
    def test_day_length_shrinks_by_window(self):
        s = ContinuousSeries(np.arange(1440, dtype=float))
        assert len(smooth_rolling(s, 5)) == 1436

    def test_constant(self):
        s = ContinuousSeries(np.full(100, 7.5))
        out = smooth_rolling(s, 9)
        assert np.allclose(out.values, 7.5)

    def test_mean_value(self):
        out = smooth_rolling(ContinuousSeries([0, 5, 10, 0, 0]), 5)
        assert out.values.tolist() == [3.0]

    def test_window_too_large(self):
        with pytest.raises(DataFormatError, match="window exceeds series"):
            smooth_rolling(ContinuousSeries([1.0, 2.0]), 3)

    def test_bounded_by_input(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 3000, 500)
        out = smooth_rolling(ContinuousSeries(v), 7)
        assert out.values.min() >= v.min()
        assert out.values.max() <= v.max()


class TestDiscretize:
    THRESHOLDS = [0.0, 760.0, 2020.0]

    @pytest.mark.parametrize(
        "value,state",
        [(0, 0), (1, 1), (760, 1), (761, 2), (2020, 2), (2021, 3), (3000, 3)],
    )
    def test_category_mapping(self, value, state):
        out = discretize(ContinuousSeries([float(value)]), self.THRESHOLDS)
        assert out.states[0] == state

    def test_alphabet_labels(self):
        assert threshold_alphabet(self.THRESHOLDS).labels == ("1", "2", "3", "4")

    def test_rejects_negative_at_ingestion(self):
        with pytest.raises(DataFormatError):
            ContinuousSeries([-1.0])

    def test_rejects_unsorted_thresholds(self):
        # a threshold list is configuration, checked by threshold_alphabet
        with pytest.raises(ConfigError, match="strictly ascending"):
            discretize(ContinuousSeries([1.0]), [10.0, 5.0])

    @pytest.mark.parametrize(
        "thresholds",
        [[float("nan")], [0.0, float("inf")], [2.0, 1.0], [1.0, 1.0], [], [1.0, True],
         [1, 10**400], "760", np.array([[1.0, 2.0]])],
        ids=["nan", "inf", "descending", "repeat", "empty", "bool", "huge-int", "text", "2-d"],
    )
    def test_bad_thresholds_are_config_errors(self, thresholds):
        # NaN once mapped every value to state "1", and inf was accepted
        with pytest.raises(ConfigError, match="thresholds must be a non-empty, strictly"):
            threshold_alphabet(thresholds)
        with pytest.raises(ConfigError, match="thresholds must be a non-empty, strictly"):
            discretize_corpus([ContinuousSeries([1.0, 3.0])], thresholds)

    def test_threshold_array_accepted(self):
        series = [ContinuousSeries([0.0, 800.0, 3000.0])]
        as_list = discretize_corpus(series, [0, 760.0, 2020])
        assert discretize_corpus(series, np.array([0, 760.0, 2020])) == as_list
        assert as_list.states_matrix.tolist() == [[0, 2, 3]]

    @given(st.lists(st.floats(0, 5000, allow_nan=False), min_size=2, max_size=50))
    def test_monotone(self, values):
        out = discretize(ContinuousSeries(values), self.THRESHOLDS)
        order = np.argsort(values, kind="stable")
        assert (np.diff(out.states[order]) >= 0).all()


class TestCorpus:
    def test_rejects_ragged(self):
        a = StateAlphabet(("x", "y"))
        with pytest.raises(DataFormatError, match="length"):
            Corpus.from_arrays(a, [[0, 1], [0, 1, 1]], ids=["a", "b"])

    def test_rejects_duplicate_ids(self):
        a = StateAlphabet(("x",))
        with pytest.raises(DataFormatError, match="duplicate"):
            Corpus.from_arrays(a, [[0], [0]], ids=["a", "a"])

    def test_rejects_out_of_alphabet_state(self):
        a = StateAlphabet(("x",))
        with pytest.raises(DataFormatError):
            Corpus.from_arrays(a, [[0, 1]], ids=["a"])

    def test_subset_keeps_labels(self):
        a = StateAlphabet(("x", "y"))
        c = Corpus.from_arrays(a, [[0, 1], [1, 0]], ids=["a", "b"])
        sub = c.subset([1])
        assert sub.ids == ("b",)
        assert sub.states_matrix.tolist() == [[1, 0]]

    def test_states_matrix(self):
        a = StateAlphabet(("x", "y"))
        c = Corpus.from_arrays(a, [[0, 1], [1, 1]])
        assert c.states_matrix.tolist() == [[0, 1], [1, 1]]
        assert c.length == 2

    def test_matrix_is_readonly_small_int(self):
        c = Corpus.from_arrays(StateAlphabet(("x", "y")), [[0, 1], [1, 1]])
        assert c.states_matrix.dtype == np.int8
        assert not c.states_matrix.flags.writeable
        wide = StateAlphabet(tuple(f"s{i}" for i in range(200)))
        c = Corpus.from_arrays(wide, [[0, 199]])
        assert c.states_matrix.dtype == np.int16
        assert c.states_matrix.tolist() == [[0, 199]]

    def test_input_matrix_is_copied(self):
        mat = np.array([[0, 1], [1, 1]])
        c = Corpus(StateAlphabet(("x", "y")), mat, ("a", "b"))
        mat[0, 0] = 1
        assert c.states_matrix.tolist() == [[0, 1], [1, 1]]

    def test_rejects_bad_matrix(self):
        a = StateAlphabet(("x", "y"))
        with pytest.raises(DataFormatError, match="2-D"):
            Corpus(a, np.array([0, 1]), ("a",))
        with pytest.raises(DataFormatError, match="ids"):
            Corpus(a, np.array([[0, 1]]), ("a", "b"))
        with pytest.raises(DataFormatError, match="alphabet"):
            Corpus(a, np.array([[0, -1]]), ("a",))
        with pytest.raises(DataFormatError, match="non-empty"):
            Corpus(a, np.empty((2, 0), dtype=np.int64), ("a", "b"))

    def test_from_arrays_id_count_mismatch(self):
        a = StateAlphabet(("x",))
        with pytest.raises(DataFormatError, match="ids"):
            Corpus.from_arrays(a, [[0], [0]], ids=["only-one"])

    def test_empty_subset(self):
        a = StateAlphabet(("x",))
        c = Corpus.from_arrays(a, [[0], [0]])
        sub = c.subset([])
        assert len(sub) == 0
        assert sub.length == 0
