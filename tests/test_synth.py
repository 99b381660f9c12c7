import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import (
    ConfigError,
    Corpus,
    DataFormatError,
    IntervalSequence,
    PairedMcEngine,
    StateAlphabet,
    SynthesisConfig,
    TvmcEngine,
    TvmcModel,
    build_index,
    extend_with_buffer,
    rle_encode,
    synthesize_batch,
)
from seqsynth import synth
from seqsynth.synth import (
    Candidates,
    _categorical,
    _pick,
    config_from_dict,
    config_to_dict,
    silverman_bandwidth,
)

from _groundtruth import activity_ground_truth
from test_paired_mc_oracle import (
    DurationSampler,
    OracleEngine,
    sample_transition,
    verify_realizable,
)


def brute_candidates(corpus, a_c, context, t_c, delta, order):
    out = []
    for row in corpus.states_matrix:
        eps = rle_encode(IntervalSequence(row)).episodes
        for i in range(1, len(eps)):
            if abs(eps[i].start - t_c) > delta:
                continue
            if eps[i - 1].state != a_c:
                continue
            if order >= 2 and len(context) >= 1:
                if i < 2 or eps[i - 2].state != context[0]:
                    continue
            if order >= 3 and len(context) >= 2:
                if i < 3 or eps[i - 3].state != context[1]:
                    continue
            out.append((eps[i].state, eps[i].duration))
    return sorted(out)


def random_corpus(rng, n_seq=10, length=80, n_states=4):
    alphabet = StateAlphabet(tuple(f"s{i}" for i in range(n_states)))
    arrays = []
    for _ in range(n_seq):
        states = np.empty(length, dtype=np.int64)
        t = 0
        cur = int(rng.integers(n_states))
        while t < length:
            d = int(min(rng.integers(1, 12), length - t))
            states[t : t + d] = cur
            t += d
            nxt = int(rng.integers(n_states - 1))
            cur = nxt if nxt < cur else nxt + 1
        arrays.append(states)
    return Corpus.from_arrays(alphabet, arrays)


def two_state_alphabet():
    return StateAlphabet(("a", "b"))


class TestCandidateIndex:
    def test_single_sequence_single_record(self):
        alphabet = two_state_alphabet()
        corpus = Corpus.from_arrays(alphabet, [[0] * 5 + [1] * 5])
        index = build_index(corpus, delta=2)
        assert index.n_records == 1
        cands = index.candidates(0, (), t_c=5, delta=2)
        assert cands.states.tolist() == [1]
        assert cands.durations.tolist() == [5]

    def test_window_fixture(self):
        # b->c at t=100 and b->d at t=110; query around 105 catches both
        alphabet = StateAlphabet(("b", "c", "d"))
        corpus = Corpus.from_arrays(
            alphabet, [[0] * 100 + [1] * 40, [0] * 110 + [2] * 30]
        )
        index = build_index(corpus, delta=10)
        cands = index.candidates(0, (), t_c=105, delta=10)
        assert sorted(cands.states.tolist()) == [1, 2]
        assert index.candidates(0, (), t_c=85, delta=10).size == 0

    def test_zero_width_window(self):
        alphabet = two_state_alphabet()
        corpus = Corpus.from_arrays(alphabet, [[0] * 5 + [1] * 5])
        index = build_index(corpus, delta=0)
        assert index.candidates(0, (), t_c=4, delta=0).size == 0
        assert index.candidates(0, (), t_c=5, delta=0).size == 1

    def test_order2_filters_second_predecessor(self):
        alphabet = StateAlphabet(("a", "b", "c", "d"))
        # both sequences transition b->? at t=20 but come from different
        # states before b
        corpus = Corpus.from_arrays(
            alphabet,
            [
                [0] * 10 + [1] * 10 + [2] * 20,  # a, b, c
                [3] * 10 + [1] * 10 + [0] * 20,  # d, b, a
            ],
        )
        index = build_index(corpus, delta=5)
        order1 = index.candidates(1, (), t_c=20, delta=5, order=1)
        assert order1.size == 2
        order2 = index.candidates(1, (0,), t_c=20, delta=5, order=2)
        assert order2.size == 1
        assert order2.states.tolist() == [2]

    def test_negative_context_rejected(self):
        alphabet = two_state_alphabet()
        corpus = Corpus.from_arrays(alphabet, [[0] * 5 + [1] * 5])
        index = build_index(corpus, delta=5)
        with pytest.raises(ConfigError, match="non-negative"):
            index.candidates(0, (-1,), t_c=5, delta=5, order=2)

    def test_states_outside_alphabet_have_no_candidates(self):
        alphabet = StateAlphabet(("a", "b", "c"))
        corpus = Corpus.from_arrays(alphabet, [[0] * 10 + [1] * 10 + [2] * 10])
        index = build_index(corpus, delta=40)
        assert index.candidates(1, (0,), t_c=20, order=2).size == 1
        for a_c, context in ((3, ()), (4, ()), (-1, ()), (2, (3,)), (1, (0, 5))):
            got = index.candidates(a_c, context, t_c=20, order=3)
            assert got.size == 0
            assert brute_candidates(corpus, a_c, context, 20, 40, 3) == []

    def test_key_space_must_fit_int64(self):
        # 200000**3 contexts times 1440 starts overflow an int64 key
        alphabet = StateAlphabet(tuple(f"s{i}" for i in range(200_000)))
        corpus = Corpus.from_arrays(alphabet, [[0] * 720 + [1] * 720])
        assert build_index(corpus, delta=5, order=1).n_records == 1
        with pytest.raises(DataFormatError, match="too many to index"):
            build_index(corpus, delta=5, order=3)

    def test_order2_excludes_records_without_second_predecessor(self):
        alphabet = StateAlphabet(("a", "b", "c"))
        corpus = Corpus.from_arrays(alphabet, [[0] * 10 + [1] * 10 + [2] * 10])
        index = build_index(corpus, delta=40)
        # b starts the record chain: the a->b record has no predecessor
        cands = index.candidates(0, (1,), t_c=10, delta=40, order=2)
        assert cands.size == 0

    def test_oracle_exhaustive_small_corpus(self):
        # every (state, context, time, order) query on a corpus with
        # fewer than 20 episodes, checked against the brute-force scan
        rng = np.random.default_rng(99)
        corpus = random_corpus(rng, n_seq=3, length=30, n_states=3)
        total_eps = sum(len(rle_encode(IntervalSequence(r))) for r in corpus.states_matrix)
        assert total_eps <= 20
        for delta in (0, 2, 5, 30):
            index = build_index(corpus, delta)
            for a_c in range(3):
                for t_c in range(corpus.length):
                    for order in (1, 2, 3):
                        for ctx in ([], [0], [1], [2], [0, 1], [2, 0]):
                            context = tuple(ctx[: order - 1])
                            got = index.candidates(a_c, context, t_c, delta, order)
                            pairs = sorted(
                                zip(got.states.tolist(), got.durations.tolist())
                            )
                            assert pairs == brute_candidates(
                                corpus, a_c, context, t_c, delta, order
                            )

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            corpus = random_corpus(
                rng,
                n_seq=int(rng.integers(2, 10)),
                length=int(rng.integers(20, 100)),
                n_states=int(rng.integers(2, 5)),
            )
            delta = int(rng.integers(0, 15))
            index = build_index(corpus, delta)
            for _ in range(25):
                order = int(rng.integers(1, 4))
                a_c = int(rng.integers(corpus.alphabet.size))
                context = tuple(
                    int(rng.integers(corpus.alphabet.size))
                    for _ in range(order - 1)
                )
                t_c = int(rng.integers(0, corpus.length))
                got = sorted(
                    zip(
                        index.candidates(a_c, context, t_c, delta, order).states.tolist(),
                        index.candidates(a_c, context, t_c, delta, order).durations.tolist(),
                    )
                )
                assert got == brute_candidates(corpus, a_c, context, t_c, delta, order)


def opening_draw(corpus, u_state, u_pos):
    """The paired-mc opening (states, durations) of one row per uniform pair."""
    config = SynthesisConfig(delta=0, buffer="none", target_length=corpus.length)
    engine = PairedMcEngine(corpus, config)
    return engine._opening(u_state, u_pos, np.zeros(len(u_state), dtype=np.int64))


class TestInitialize:
    def test_single_start_state(self):
        alphabet = two_state_alphabet()
        corpus = Corpus.from_arrays(alphabet, [[0, 0, 1], [0, 1, 1]])
        rng = np.random.default_rng(13)
        states, durations = opening_draw(corpus, rng.random(20), rng.random(20))
        assert np.all(states == 0)
        assert set(durations.tolist()) <= {1, 2}

    def test_duration_comes_from_matching_state(self):
        alphabet = StateAlphabet(("home", "work"))
        corpus = Corpus.from_arrays(
            alphabet,
            [[0] * 420 + [1] * 1020, [0] * 480 + [1] * 960, [1] * 510 + [0] * 930],
        )
        rng = np.random.default_rng(14)
        states, durations = opening_draw(corpus, rng.random(300), rng.random(300))
        seen_home = set(durations[states == 0].tolist())
        seen_work = set(durations[states != 0].tolist())
        assert seen_home <= {420, 480}
        assert seen_work <= {510}

    def test_chi_square_goodness_of_fit(self):
        stats = pytest.importorskip("scipy.stats")
        rng_data = np.random.default_rng(15)
        alphabet = StateAlphabet(tuple("abc"))
        starts = rng_data.choice(3, size=400, p=[0.5, 0.3, 0.2])
        arrays = []
        for s in starts:
            other = (s + 1) % 3
            arrays.append([s] * 30 + [other] * 30)
        corpus = Corpus.from_arrays(alphabet, arrays)
        rng = np.random.default_rng(16)
        draws, _ = opening_draw(corpus, rng.random(10000), rng.random(10000))
        observed = np.bincount(draws, minlength=3)
        expected = np.bincount(starts, minlength=3) / 400 * 10000
        result = stats.chisquare(observed, f_exp=expected)
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("clustered", [False, True])
    def test_both_engines_open_on_the_same_state(self, clustered):
        # a paired-mc day's first state is drawn as the baseline's first
        # interval, from the same opening counts and the same first double
        corpus = activity_ground_truth(40, 120, seed=17)
        labels = np.arange(len(corpus)) % 3 if clustered else None
        clusters = np.random.default_rng(18).integers(0, 3, 200) if clustered else None
        config = SynthesisConfig(delta=15, target_length=120, seed=19)
        days = []
        for engine in (PairedMcEngine, TvmcEngine):
            rngs = [np.random.default_rng(20 + i) for i in range(200)]
            days.append(engine(corpus, config, labels).generate_many(rngs, clusters)[0])
        assert np.array_equal(days[0][:, 0], days[1][:, 0])
        assert len(set(days[0][:, 0].tolist())) > 1


@st.composite
def counts_and_doubles(draw):
    """Integer counts, some empty, and doubles on, just below and between the bounds."""
    counts = draw(
        st.lists(st.integers(0, 2**31), min_size=1, max_size=12).filter(lambda c: sum(c) > 0)
    )
    cum = np.cumsum(counts)
    bounds = cum / cum[-1]
    edges = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], bounds, np.nextafter(bounds, 0.0)))
    edges = edges[edges < 1.0]
    some = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    return cum, np.concatenate((edges, some))


class TestDrawRule:
    @settings(max_examples=200, deadline=None)
    @given(counts_and_doubles())
    def test_categorical_is_the_right_side_search(self, case):
        cum, u = case
        got = _categorical(np.broadcast_to(cum, (u.size, cum.size)), u)
        assert np.array_equal(got, np.searchsorted(cum, u * cum[-1], side="right"))
        assert np.all(np.diff(np.concatenate(([0], cum)))[got] > 0)

    def test_position_covers_the_pool(self):
        # the largest double Generator.random returns is 1 - 2**-53, and
        # n - n * 2**-53 rounds below n for every n <= 2**53, so the top
        # double picks the last position with no clip: checked for every
        # pool size up to 2**20, each power of two up to 2**31 with its
        # neighbours, and a sample of sizes up to 2**31
        powers = 2 ** np.arange(21, 32)
        sample = np.random.default_rng(0).integers(1, 2**31, size=10**6, endpoint=True)
        sizes = np.concatenate(
            [np.arange(1, 2**20 + 1), powers - 1, powers, powers + 1, sample, [2**52 + 1]]
        )
        assert np.array_equal(_pick(np.nextafter(1.0, 0.0), sizes), sizes - 1)
        sizes = np.array([1, 2, 3, 5, 7, 1000, 2**31 - 1, 2**52 + 1])
        assert np.array_equal(_pick(np.zeros(sizes.size), sizes), np.zeros(sizes.size))
        assert np.array_equal(_pick(np.full(3, 0.5), np.array([2, 3, 4])), [1, 1, 2])


class TestSampleTransition:
    def test_singleton(self):
        cands = Candidates(np.array([2]), np.array([30]))
        rng = np.random.default_rng(17)
        assert sample_transition(cands, DurationSampler(), rng) == (2, 30)

    def test_two_stage_probabilities(self):
        cands = Candidates(np.array([1, 1, 2]), np.array([10, 20, 5]))
        rng = np.random.default_rng(18)
        draws = [sample_transition(cands, DurationSampler(), rng) for _ in range(9000)]
        states = np.array([s for s, _ in draws])
        assert np.mean(states == 1) == pytest.approx(2 / 3, abs=0.02)
        durs_for_1 = {d for s, d in draws if s == 1}
        assert durs_for_1 == {10, 20}
        assert all(d == 5 for s, d in draws if s == 2)

    def test_direct_draws_are_observed(self):
        rng = np.random.default_rng(19)
        observed = np.array([3, 7, 7, 12, 40])
        cands = Candidates(np.zeros(5, dtype=np.int64), observed)
        sampler = DurationSampler()
        for _ in range(10000):
            _, d = sample_transition(cands, sampler, rng)
            assert d in {3, 7, 12, 40}

    def test_empty_rejected(self):
        rng = np.random.default_rng(20)
        empty = Candidates(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="no candidates"):
            sample_transition(empty, DurationSampler(), rng)

    def test_kde_rounds_and_clamps(self):
        rng = np.random.default_rng(21)
        cands = Candidates(np.zeros(4, dtype=np.int64), np.array([1, 1, 2, 2]))
        sampler = DurationSampler("kde", bandwidth=5.0)
        draws = [sample_transition(cands, sampler, rng)[1] for _ in range(2000)]
        assert min(draws) >= 1
        assert any(d > 2 for d in draws)  # noise actually perturbs

    def test_kde_draws_track_data_plus_kernel_noise(self):
        rng = np.random.default_rng(92)
        observed = np.array([10, 15, 20, 25, 30, 35, 40, 45, 50, 55])
        cands = Candidates(np.zeros(observed.size, dtype=np.int64), observed)
        h = silverman_bandwidth(observed)
        sampler = DurationSampler("kde")
        draws = np.array(
            [sample_transition(cands, sampler, rng)[1] for _ in range(20000)]
        )
        assert draws.mean() == pytest.approx(observed.mean(), abs=0.5)
        # variance adds the kernel term (rounding noise is < 1/12)
        expected_var = observed.var() + h**2
        assert draws.var() == pytest.approx(expected_var, rel=0.08)

    def test_alternate_duration_pool(self):
        rng = np.random.default_rng(22)
        cands = Candidates(np.array([1, 1]), np.array([10, 10]))
        pools = {1: np.array([99])}
        state, dur = sample_transition(cands, DurationSampler(), rng, pools)
        assert (state, dur) == (1, 99)


class TestSilverman:
    def test_zero_for_degenerate(self):
        assert silverman_bandwidth(np.array([5])) == 0.0
        assert silverman_bandwidth(np.array([5, 5, 5])) == 0.0

    def test_formula(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sd = np.std(values, ddof=1)
        iqr = np.percentile(values, 75) - np.percentile(values, 25)
        expected = 0.9 * min(sd, iqr / 1.34) * 5 ** (-0.2)
        assert silverman_bandwidth(values) == pytest.approx(expected)


class TestBuffer:
    def test_constant_corpus_extends_constant(self):
        alphabet = two_state_alphabet()
        corpus = Corpus.from_arrays(alphabet, [[0] * 50, [0] * 50])
        rng = np.random.default_rng(23)
        extended = extend_with_buffer(corpus, TvmcModel.fit(corpus), 10, [rng])
        assert extended.length == 60
        assert (extended.states_matrix == 0).all()

    def test_prefix_unchanged_and_length(self):
        rng_data = np.random.default_rng(24)
        corpus = random_corpus(rng_data, n_seq=6, length=70)
        rng = np.random.default_rng(25)
        extended = extend_with_buffer(corpus, TvmcModel.fit(corpus), 15, [rng])
        assert extended.length == 85
        assert np.array_equal(extended.states_matrix[:, :70], corpus.states_matrix)
        assert extended.ids == corpus.ids

    def test_zero_delta_is_noop(self):
        corpus = random_corpus(np.random.default_rng(26), n_seq=3, length=30)
        model = TvmcModel.fit(corpus)
        assert extend_with_buffer(corpus, model, 0, [np.random.default_rng(0)]) is corpus

    def test_buffer_supplies_late_window_candidates(self):
        # queries near the end of the day need transitions observed past
        # the boundary; only the buffered index can supply them
        corpus = activity_ground_truth(60, 300, seed=90)
        config = SynthesisConfig(delta=40, target_length=300, seed=91)
        buffered = PairedMcEngine(corpus, config)
        bare = PairedMcEngine(
            corpus, SynthesisConfig(delta=40, target_length=300, seed=91, buffer="none")
        )
        late_state = int(corpus.states_matrix[0, -1])
        probe = 299  # end time one step before midnight
        for engine, horizon in ((buffered, 340), (bare, 300)):
            assert engine.index.horizon == horizon
        rich = buffered.index.candidates(late_state, (), probe, 40, 1)
        sparse = bare.index.candidates(late_state, (), probe, 40, 1)
        assert (rich.states.size > 0) and (
            np.sort(np.unique(rich.durations)).size
            >= np.sort(np.unique(sparse.durations)).size
        )
        # the buffered index holds records that start past the day boundary;
        # a window over [300, 340] covers every start either index can hold
        assert buffered.index.n_records > bare.index.n_records
        assert buffered.index.candidates(late_state, (), 320, 20, 1).size > 0
        assert bare.index.candidates(late_state, (), 320, 20, 1).size == 0


class TestPairedMc:
    def test_degenerate_corpus_reproduced(self):
        alphabet = StateAlphabet(("home", "car", "work"))
        day = [0] * 420 + [1] * 30 + [2] * 510 + [1] * 30 + [0] * 450
        corpus = Corpus.from_arrays(alphabet, [day] * 4)
        config = SynthesisConfig(delta=60, target_length=1440, seed=3)
        states, _ = PairedMcEngine(corpus, config).generate_many([np.random.default_rng(3)])
        assert states.tolist() == [day]

    def test_constant_corpus_reproduced(self):
        alphabet = two_state_alphabet()
        corpus = Corpus.from_arrays(alphabet, [[0] * 100] * 3)
        config = SynthesisConfig(delta=10, target_length=100, seed=4)
        states, _ = PairedMcEngine(corpus, config).generate_many([np.random.default_rng(4)])
        assert states.shape == (1, 100)
        assert (states == 0).all()

    def test_exact_length_and_alphabet_closure(self):
        corpus = activity_ground_truth(40, 500, seed=30)
        for order in (1, 2, 3):
            config = SynthesisConfig(
                delta=45, order=order, target_length=500, seed=5 + order
            )
            engine = PairedMcEngine(corpus, config)
            rng = np.random.default_rng(31 + order)
            for _ in range(5):
                states, _ = engine.generate_many([rng])
                assert states.shape == (1, 500)
                assert states.min() >= 0
                assert states.max() < corpus.alphabet.size

    def test_realizability_replay(self):
        corpus = activity_ground_truth(120, 400, seed=32)
        config = SynthesisConfig(delta=40, order=1, target_length=400, seed=6)
        engine = PairedMcEngine(corpus, config)
        oracle = OracleEngine(corpus, config)
        # one stream each for the engine and the oracle chain it replays
        rng, oracle_rng = np.random.default_rng(33), np.random.default_rng(33)
        checked = 0
        for _ in range(10):
            states, fallbacks = engine.generate_many([rng])
            chain = oracle.generate(oracle_rng)
            assert np.array_equal(states[0], chain.states)
            assert dict(zip(engine.fallback_names, fallbacks[0])) == chain.fallbacks
            if chain.fallback_total == 0:
                assert verify_realizable(chain, engine.index, config)
                checked += 1
        assert checked > 0  # dense corpus: most draws need no fallback

    def test_transitions_respect_clock_position(self):
        # sources switch a->c at t=60 and a->b at t=120; a window of 20
        # must keep those transitions tied to their clock positions
        alphabet = StateAlphabet(("a", "b", "c"))
        early = [0] * 60 + [2] * 180
        late = [0] * 120 + [1] * 120
        corpus = Corpus.from_arrays(alphabet, [early] * 10 + [late] * 10)
        config = SynthesisConfig(delta=20, target_length=240, seed=27)
        engine = PairedMcEngine(corpus, config)
        rng = np.random.default_rng(28)
        seen = set()
        for _ in range(40):
            states, _ = engine.generate_many([rng])
            episodes = rle_encode(IntervalSequence(states[0])).episodes
            first_switch = episodes[1].start if len(episodes) > 1 else None
            seen.add(first_switch)
            if first_switch == 60:
                assert episodes[1].state == 2  # c, never the late target
            elif first_switch == 120:
                assert episodes[1].state == 1  # b, never the early target
        assert {60, 120} <= seen

    def test_buffer_none_stops_at_target(self):
        corpus = activity_ground_truth(30, 300, seed=34)
        config = SynthesisConfig(
            delta=30, target_length=300, seed=7, buffer="none"
        )
        engine = PairedMcEngine(corpus, config)
        assert engine.stop == 300
        states, _ = engine.generate_many([np.random.default_rng(35)])
        assert states.shape == (1, 300)

    def test_kde_engine_runs(self):
        corpus = activity_ground_truth(30, 300, seed=36)
        config = SynthesisConfig(delta=30, target_length=300, seed=8, sampler="kde")
        states, _ = PairedMcEngine(corpus, config).generate_many([np.random.default_rng(8)])
        assert states.shape == (1, 300)

    def test_all_day_duration_pool(self):
        corpus = activity_ground_truth(30, 300, seed=37)
        config = SynthesisConfig(
            delta=30, target_length=300, seed=9, duration_pool="all_day"
        )
        states, _ = PairedMcEngine(corpus, config).generate_many([np.random.default_rng(9)])
        assert states.shape == (1, 300)

    def test_target_length_mismatch_rejected(self):
        corpus = activity_ground_truth(5, 100, seed=38)
        config = SynthesisConfig(delta=10, target_length=99, seed=1)
        with pytest.raises(DataFormatError, match="target_length"):
            PairedMcEngine(corpus, config)


class TestTvmc:
    def test_deterministic_corpus_reproduced(self):
        alphabet = StateAlphabet(("home", "work"))
        day = [0] * 40 + [1] * 30 + [0] * 30
        corpus = Corpus.from_arrays(alphabet, [day] * 3)
        config = SynthesisConfig(delta=10, target_length=100, seed=10)
        states, _ = TvmcEngine(corpus, config).generate_many([np.random.default_rng(10)])
        assert states.tolist() == [day]

    def test_forced_switch_time(self):
        alphabet = two_state_alphabet()
        rng_data = np.random.default_rng(39)
        arrays = []
        for _ in range(20):
            # a until exactly t=100, then b, with random later tail
            tail = rng_data.integers(0, 2, 50)
            arrays.append([0] * 100 + [1] * 10 + tail.tolist())
        corpus = Corpus.from_arrays(alphabet, arrays)
        config = SynthesisConfig(delta=10, target_length=160, seed=11)
        engine = TvmcEngine(corpus, config)
        rng = np.random.default_rng(40)
        for _ in range(10):
            [states], _ = engine.generate_many([rng])
            assert (states[:100] == 0).all()
            assert states[100] == 1

    def test_interval_marginals_match_source(self):
        corpus = activity_ground_truth(150, 240, seed=41)
        config = SynthesisConfig(delta=30, target_length=240, seed=12)
        out, _ = synthesize_batch(corpus, config, 2000, engine="tvmc")
        source = corpus.states_matrix
        synth = out.states_matrix
        n_states = corpus.alphabet.size
        deciles = np.array_split(np.arange(240), 10)
        for block in deciles:
            for s in range(n_states):
                want = (source[:, block] == s).mean()
                got = (synth[:, block] == s).mean()
                assert abs(want - got) <= 0.03


class TestBatch:
    def test_count_zero(self):
        corpus = random_corpus(np.random.default_rng(42), n_seq=4, length=40)
        config = SynthesisConfig(delta=5, target_length=40, seed=13)
        out, prov = synthesize_batch(corpus, config, 0)
        assert len(out) == 0
        assert prov.count == 0

    def test_same_seed_identical(self):
        corpus = random_corpus(np.random.default_rng(43), n_seq=8, length=60)
        config = SynthesisConfig(delta=8, target_length=60, seed=14)
        out1, _ = synthesize_batch(corpus, config, 12)
        out2, _ = synthesize_batch(corpus, config, 12)
        assert out1 == out2

    def test_different_seed_differs(self):
        corpus = activity_ground_truth(20, 120, seed=44)
        a, _ = synthesize_batch(
            corpus, SynthesisConfig(delta=10, target_length=120, seed=1), 6
        )
        b, _ = synthesize_batch(
            corpus, SynthesisConfig(delta=10, target_length=120, seed=2), 6
        )
        assert a != b

    def test_workers_do_not_change_output(self):
        corpus = activity_ground_truth(30, 200, seed=45)
        config = SynthesisConfig(delta=20, target_length=200, seed=15)
        serial, _ = synthesize_batch(corpus, config, 16, workers=1)
        parallel, _ = synthesize_batch(corpus, config, 16, workers=3)
        assert serial == parallel

    def test_parallel_batch_leaves_the_gc_freeze_as_it_was(self):
        corpus = activity_ground_truth(20, 120, seed=45)
        config = SynthesisConfig(delta=10, target_length=120, seed=15)
        synthesize_batch(corpus, config, 8, workers=2)
        assert gc.get_freeze_count() == 0
        # a caller's own freeze survives the batch
        gc.freeze()
        try:
            synthesize_batch(corpus, config, 8, workers=2)
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_spawn_fallback_matches_serial(self, monkeypatch):
        # platforms without fork unpickle the built engine in each worker
        import multiprocessing

        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("fork disabled for test")
            return real_get_context(method)

        monkeypatch.setattr(synth.multiprocessing, "get_context", no_fork)
        corpus = activity_ground_truth(20, 120, seed=93)
        labels = {sid: i % 3 for i, sid in enumerate(corpus.ids)}
        cases = [
            ({}, {}),
            ({}, {"engine": "tvmc"}),
            ({"sampler": "kde"}, {"assignment": labels, "weights": [1.0, 3.0, 0.5]}),
        ]
        for fields, kwargs in cases:
            config = SynthesisConfig(delta=15, target_length=120, seed=94, **fields)
            serial = synthesize_batch(corpus, config, 8, workers=1, **kwargs)
            spawned = synthesize_batch(corpus, config, 8, workers=2, **kwargs)
            assert serial[0] == spawned[0]
            assert serial[1].to_dict() == spawned[1].to_dict()

    def test_weights_concentrate_cluster(self):
        corpus = activity_ground_truth(30, 150, seed=46)
        labels = {sid: (0 if i < 15 else 1) for i, sid in enumerate(corpus.ids)}
        config = SynthesisConfig(delta=15, target_length=150, seed=16)
        out, prov = synthesize_batch(
            corpus, config, 10, assignment=labels, weights=[1.0, 0.0]
        )
        assert prov.clusters.tolist() == [0] * 10
        assert prov.ids == out.ids

    def test_cluster_draws_follow_sizes(self):
        corpus = activity_ground_truth(40, 100, seed=47)
        labels = {sid: (0 if i < 30 else 1) for i, sid in enumerate(corpus.ids)}
        config = SynthesisConfig(delta=10, target_length=100, seed=17)
        _, prov = synthesize_batch(corpus, config, 400, assignment=labels)
        assert np.mean(prov.clusters == 0) == pytest.approx(0.75, abs=0.07)

    def test_unknown_engine_rejected(self):
        corpus = random_corpus(np.random.default_rng(48), n_seq=3, length=30)
        config = SynthesisConfig(delta=5, target_length=30, seed=18)
        with pytest.raises(ConfigError):
            synthesize_batch(corpus, config, 2, engine="lstm")

    def test_weight_count_mismatch_rejected(self):
        corpus = activity_ground_truth(10, 60, seed=95)
        labels = {sid: i % 2 for i, sid in enumerate(corpus.ids)}
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        with pytest.raises(ConfigError, match="weights"):
            synthesize_batch(
                corpus, config, 2, assignment=labels, weights=[1.0, 1.0, 1.0]
            )

    def test_weights_without_assignment_rejected(self):
        # they were once ignored, and the provenance recorded weights [1.0]
        corpus = activity_ground_truth(10, 60, seed=95)
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        with pytest.raises(ConfigError, match="weights need a cluster assignment"):
            synthesize_batch(corpus, config, 2, weights=[0.7, 0.3])

    @pytest.mark.parametrize(
        "weights", [[0, 0], [1, -1], [math.nan, 1], [1, math.inf], [], [[1, 1]]]
    )
    def test_bad_weights_are_config_errors(self, weights):
        # they once raised ClusterWeights' DataFormatError, unlike the same
        # values in a config
        corpus = activity_ground_truth(10, 60, seed=95)
        labels = {sid: i % 2 for i, sid in enumerate(corpus.ids)}
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        with pytest.raises(ConfigError, match="weights must be a list of finite"):
            synthesize_batch(corpus, config, 2, assignment=labels, weights=weights)

    def test_integer_weight_array_accepted(self):
        corpus = activity_ground_truth(10, 60, seed=95)
        labels = {sid: i % 2 for i, sid in enumerate(corpus.ids)}
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        ints = synthesize_batch(corpus, config, 6, assignment=labels, weights=np.array([3, 1]))
        floats = synthesize_batch(corpus, config, 6, assignment=labels, weights=[3.0, 1.0])
        assert ints[0] == floats[0]
        assert ints[1].to_dict() == floats[1].to_dict()

    @pytest.mark.parametrize("bad", [0.5, 1.5, math.nan, math.inf, "1", None])
    def test_non_integer_assignment_labels_rejected(self, bad):
        # 0.5 and 1.5 once ran as clusters 0 and 1 through int()
        corpus = activity_ground_truth(10, 60, seed=95)
        labels = {sid: i % 2 for i, sid in enumerate(corpus.ids)}
        labels[corpus.ids[3]] = bad
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        with pytest.raises(DataFormatError, match="cluster labels must be"):
            synthesize_batch(corpus, config, 2, assignment=labels)

    def test_integral_float_assignment_labels_accepted(self):
        corpus = activity_ground_truth(10, 60, seed=95)
        ints = {sid: i % 2 for i, sid in enumerate(corpus.ids)}
        floats = {sid: float(label) for sid, label in ints.items()}
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        want = synthesize_batch(corpus, config, 6, assignment=ints)
        got = synthesize_batch(corpus, config, 6, assignment=floats)
        assert got[0] == want[0]
        assert got[1].to_dict() == want[1].to_dict()

    def test_worker_count_is_bounded_before_any_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was constructed")

        monkeypatch.setattr(synth, "ProcessPoolExecutor", no_pool)
        corpus = activity_ground_truth(10, 60, seed=95)
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        for workers, message in ((synth._MAX_WORKERS + 1, "at most"), (0, "at least 1")):
            with pytest.raises(ConfigError, match=f"workers must be {message}"):
                synthesize_batch(corpus, config, 2, workers=workers)

    def test_pool_has_no_more_workers_than_chunks(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records its size and runs the chunks in this process."""

            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(synth, "ProcessPoolExecutor", SerialPool)
        corpus = activity_ground_truth(10, 60, seed=95)
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        serial, _ = synthesize_batch(corpus, config, 2)
        pooled, _ = synthesize_batch(corpus, config, 2, workers=synth._MAX_WORKERS)
        assert sizes == [2]
        assert pooled == serial

    @pytest.mark.parametrize("engine", ["paired-mc", "tvmc"])
    def test_failed_batch_releases_the_worker_state(self, monkeypatch, engine):
        # a chunk that raises must not leave the corpus pinned until the next batch
        def out_of_memory(*args, **kwargs):
            raise MemoryError("chunk")

        cls = synth._ENGINE_CLASSES[engine]
        monkeypatch.setattr(cls, "generate_many", out_of_memory)
        corpus = activity_ground_truth(10, 60, seed=95)
        config = SynthesisConfig(delta=10, target_length=60, seed=20)
        with pytest.raises(MemoryError):
            synthesize_batch(corpus, config, 4, engine=engine)
        assert synth._WORKER == {}

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("draw", ["direct", "kde", "all_day"])
    def test_read_ahead_width_does_not_change_output(self, monkeypatch, draw, order):
        # a row reads its stream _WIDTH doubles at a time; any width must
        # give the same sequences and leave each stream at the same place
        corpus = activity_ground_truth(20, 120, seed=96)
        labels = np.arange(len(corpus)) % 2
        assignment = dict(zip(corpus.ids, labels))
        fields = {"kde": {"sampler": "kde"}, "all_day": {"duration_pool": "all_day"}}
        config = SynthesisConfig(
            delta=15, order=order, target_length=120, seed=97, **fields.get(draw, {})
        )
        seen = []
        for width in (1, 2, 3, 64):
            monkeypatch.setattr(synth, "_WIDTH", width)
            out, prov = synthesize_batch(corpus, config, 12, assignment=assignment)
            rngs = [np.random.default_rng(s) for s in range(4)]
            states, _ = PairedMcEngine(corpus, config, labels).generate_many(rngs, [0, 1, 1, 0])
            after = [rng.random(3).tolist() for rng in rngs]
            seen.append((out.states_matrix.tobytes(), prov.to_dict(), states.tobytes(), after))
        assert all(s == seen[0] for s in seen[1:])

    def test_ordinal_streams_are_stable_under_count(self):
        # sequence i is identical whether the batch stops at i+1 or later
        corpus = activity_ground_truth(15, 90, seed=49)
        config = SynthesisConfig(delta=10, target_length=90, seed=19)
        small, _ = synthesize_batch(corpus, config, 3)
        large, _ = synthesize_batch(corpus, config, 9)
        assert small == large.subset(range(3))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthesisConfig(delta=-1)
        with pytest.raises(ConfigError):
            SynthesisConfig(order=0)
        with pytest.raises(ConfigError):
            SynthesisConfig(order=4)
        with pytest.raises(ConfigError):
            SynthesisConfig(sampler="spline")
        with pytest.raises(ConfigError):
            SynthesisConfig(kde_bandwidth=0.0)
        with pytest.raises(ConfigError):
            SynthesisConfig(buffer="pad")
        with pytest.raises(ConfigError):
            SynthesisConfig(seed=-1)

    def test_delta_bounded_by_target_length(self):
        # the buffer allocates (n_sequences, delta) floats; an oversized
        # delta must fail here instead of exhausting memory there
        assert SynthesisConfig(delta=100, target_length=100).delta == 100
        with pytest.raises(ConfigError, match="delta"):
            SynthesisConfig(delta=101, target_length=100)
        with pytest.raises(ConfigError, match="delta"):
            config_from_dict({"delta": 1_000_000})

    @pytest.mark.parametrize("field", ["delta", "order", "target_length", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, 2.5, "2"])
    def test_integer_fields_reject_non_int(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SynthesisConfig(**{"delta": 1, field: value})
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            config_from_dict({"delta": 1, field: value})

    @pytest.mark.parametrize("value", [True, 5.0, 1.7, "5"])
    def test_dict_count_not_truncated(self, value):
        with pytest.raises(ConfigError, match="count must be an integer"):
            config_from_dict({"count": value})

    def test_json_round_trip(self):
        config = SynthesisConfig(
            delta=30, order=2, target_length=720, sampler="kde",
            kde_bandwidth=2.5, buffer="none", seed=99,
        )
        payload = config_to_dict(config, count=50, weights=[2.0, 1.0])
        parsed, count, weights = config_from_dict(payload)
        assert parsed == config
        assert count == 50
        assert weights == [2.0, 1.0]

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_bandwidth_must_be_finite(self, value):
        with pytest.raises(ConfigError, match="finite positive"):
            SynthesisConfig(sampler="kde", kde_bandwidth=value)
        with pytest.raises(ConfigError, match="finite positive"):
            config_from_dict({"sampler": {"type": "kde", "bandwidth_rule": value}})

    @pytest.mark.parametrize("rule", ["abc", "5", True, [1.0]])
    def test_bandwidth_rule_must_be_silverman_or_number(self, rule):
        with pytest.raises(ConfigError, match="bandwidth must be a finite positive"):
            config_from_dict({"sampler": {"type": "kde", "bandwidth_rule": rule}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="detla"):
            config_from_dict({"detla": 5})
        with pytest.raises(ConfigError, match="sampler.bandwith_rule"):
            config_from_dict({"sampler": {"type": "kde", "bandwith_rule": 2.0}})
        # everything config_to_dict emits, plus count and weights, is accepted
        payload = config_to_dict(SynthesisConfig(), count=3, weights=[1.0])
        assert config_from_dict(payload) == (SynthesisConfig(), 3, [1.0])

    def test_dict_defaults(self):
        parsed, count, weights = config_from_dict({})
        assert parsed == SynthesisConfig()
        assert count is None and weights is None
        parsed, _, _ = config_from_dict({"sampler": {"type": "kde"}})
        assert parsed.sampler == "kde" and parsed.kde_bandwidth is None
        parsed, _, _ = config_from_dict({"sampler": {"bandwidth_rule": 2.0}})
        assert parsed.sampler == "direct" and parsed.kde_bandwidth == 2.0

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"buffer": 5}, "unknown buffer strategy 5$"),
            ({"duration_pool": None}, "unknown duration pool None$"),
            ({"sampler": ["kde"]}, r"unknown sampler \['kde'\]$"),
            ({"sampler": {"type": 1}}, "unknown sampler 1$"),
        ],
    )
    def test_dict_choices_are_not_coerced_to_strings(self, payload, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(payload)
