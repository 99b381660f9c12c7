import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import (
    Corpus,
    DataFormatError,
    IntervalSequence,
    StateAlphabet,
    build_report,
    ecdf_curves,
    episode_count_stats,
    episode_durations,
    ks_two_sample,
    sequence_entropy,
    top_states,
    write_report,
)
from seqsynth.core import run_bounds
from seqsynth.evaluate import corpus_entropies

from _groundtruth import activity_ground_truth


def brute_ks_d(x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    best = 0.0
    for t in np.concatenate((x, y)):
        fx = np.count_nonzero(x <= t) / x.size
        fy = np.count_nonzero(y <= t) / y.size
        best = max(best, abs(fx - fy))
    return best


@pytest.fixture
def small_corpus():
    alphabet = StateAlphabet(("a", "b"))
    return Corpus.from_arrays(
        alphabet, [[0, 0, 0, 1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1, 0, 0, 0, 0]]
    )


class TestKs:
    def test_identical_samples(self):
        r = ks_two_sample([1, 2, 2, 3], [1, 2, 2, 3])
        assert r.d == 0.0
        assert r.p == 1.0

    def test_disjoint_supports(self):
        r = ks_two_sample([1, 2], [3, 4])
        assert r.d == 1.0

    def test_interleaved(self):
        r = ks_two_sample([1, 3], [2, 4])
        assert r.d == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError):
            ks_two_sample([], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(50)
        x = rng.normal(0, 1, 80)
        y = rng.normal(0.4, 1.3, 60)
        a = ks_two_sample(x, y)
        b = ks_two_sample(y, x)
        assert a.d == b.d
        assert a.p == b.p

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(51)
        x = rng.uniform(0, 5, 70)
        y = rng.uniform(1, 6, 50)
        base = ks_two_sample(x, y)
        for f in (lambda v: 2 * v + 1, lambda v: v**3, np.exp):
            r = ks_two_sample(f(x), f(y))
            assert r.d == base.d

    def test_matches_brute_force(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            x = rng.integers(0, 20, rng.integers(1, 50)).astype(float)
            y = rng.integers(0, 20, rng.integers(1, 50)).astype(float)
            assert abs(ks_two_sample(x, y).d - brute_ks_d(x, y)) <= 1e-12

    def test_matches_scipy_asymptotic(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(53)
        x = rng.normal(0, 1, 400)
        y = rng.normal(0.15, 1, 350)
        ours = ks_two_sample(x, y)
        theirs = stats.ks_2samp(x, y, method="asymp")
        assert ours.d == pytest.approx(theirs.statistic, abs=1e-12)
        assert ours.p == pytest.approx(theirs.pvalue, rel=0.05, abs=1e-4)

    def test_huge_statistic_underflows_to_zero(self):
        x = np.zeros(5000)
        y = np.ones(5000)
        assert ks_two_sample(x, y).p == 0.0

    def test_several_methods_on_one_grid_give_each_pair_its_d(self):
        # build_report reads every method's D from one shared ECDF grid
        rng = np.random.default_rng(66)
        for _ in range(300):
            x = rng.integers(0, 15, rng.integers(1, 40)).astype(float)
            methods = {
                f"m{i}": rng.integers(0, 15, rng.integers(1, 40)).astype(float)
                for i in range(rng.integers(1, 4))
            }
            curves = ecdf_curves(x, methods)
            for name, y in methods.items():
                d = float(np.abs(curves.differences[name]).max())
                assert d == ks_two_sample(x, y).d == brute_ks_d(x, y)


class TestDurations:
    def test_individual_and_combined(self):
        alphabet = StateAlphabet(("a", "b"))
        corpus = Corpus.from_arrays(alphabet, [[0] * 3 + [1] * 2 + [0] * 5])
        ind = episode_durations(corpus, "a", "individual")
        assert sorted(ind.values.tolist()) == [3, 5]
        comb = episode_durations(corpus, "a", "combined")
        assert comb.values.tolist() == [8]

    def test_absent_state_zero_exclusion(self):
        alphabet = StateAlphabet(("a", "b", "c"))
        corpus = Corpus.from_arrays(alphabet, [[0, 0, 1, 1]])
        sample = episode_durations(corpus, "c", "combined", exclude_zero=True)
        assert sample.values.size == 0

    def test_unknown_state(self):
        alphabet = StateAlphabet(("a",))
        corpus = Corpus.from_arrays(alphabet, [[0]])
        with pytest.raises(DataFormatError):
            episode_durations(corpus, "zz")

    def test_combined_conserves_length(self, small_corpus):
        per_seq = np.zeros(len(small_corpus), dtype=np.int64)
        for label in small_corpus.alphabet.labels:
            per_seq += episode_durations(small_corpus, label, "combined").values
        assert (per_seq == small_corpus.length).all()

    def test_conservation_random(self):
        corpus = activity_ground_truth(25, 300, seed=54)
        total = np.zeros(25, dtype=np.int64)
        for label in corpus.alphabet.labels:
            total += episode_durations(corpus, label, "combined").values
        assert (total == 300).all()


class TestEntropy:
    def test_single_state(self):
        assert sequence_entropy(IntervalSequence([0, 0, 0])) == 0.0

    def test_two_even_states(self):
        h = sequence_entropy(IntervalSequence([0, 1, 0, 1]))
        assert h == pytest.approx(math.log(2))

    @settings(max_examples=150)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
    def test_bounds(self, states):
        h = sequence_entropy(IntervalSequence(states))
        assert 0.0 <= h <= math.log(6) + 1e-12


class TestEpisodeCounts:
    def test_identical_sequences(self):
        alphabet = StateAlphabet(("a", "b"))
        day = [0, 0, 1, 0, 1, 1, 0, 0]  # 5 episodes
        corpus = Corpus.from_arrays(alphabet, [day, day, day])
        stats = episode_count_stats(corpus)
        assert stats["Overall"] == (5.0, 0.0)

    def test_mean_and_sd(self):
        alphabet = StateAlphabet(("a", "b"))
        corpus = Corpus.from_arrays(alphabet, [[0, 1, 0, 1], [0, 0, 1, 1]])
        mean, sd = episode_count_stats(corpus)["Overall"]
        assert mean == 3.0
        assert sd == pytest.approx(math.sqrt(2))

    def test_per_state_counts(self):
        alphabet = StateAlphabet(("a", "b"))
        corpus = Corpus.from_arrays(alphabet, [[0, 1, 0, 1], [1, 1, 1, 1]])
        stats = episode_count_stats(corpus)
        assert stats["a"] == (1.0, pytest.approx(math.sqrt(2)))
        assert stats["b"][0] == 1.5


class TestEcdf:
    def test_identical_gives_zero_difference(self):
        sample = [1, 2, 2, 5]
        curves = ecdf_curves(sample, {"m": sample})
        assert np.allclose(curves.differences["m"], 0.0)

    def test_monotone_zero_to_one(self):
        rng = np.random.default_rng(55)
        curves = ecdf_curves(rng.normal(size=60), {"m": rng.normal(size=40)})
        for values in [curves.original, curves.methods["m"]]:
            assert (np.diff(values) >= 0).all()
            assert values[-1] == 1.0
            assert values[0] >= 0.0

    def test_difference_bounded(self):
        rng = np.random.default_rng(56)
        curves = ecdf_curves(
            rng.uniform(0, 1, 50), {"m": rng.uniform(0.5, 2, 60)}
        )
        assert (np.abs(curves.differences["m"]) <= 1.0).all()


class TestTopStates:
    def test_by_total_time(self):
        alphabet = StateAlphabet(("a", "b", "c"))
        corpus = Corpus.from_arrays(alphabet, [[1, 1, 1, 0, 2, 1]])
        assert top_states(corpus, 2) == ("b", "a")

    def test_limits_to_alphabet(self):
        alphabet = StateAlphabet(("a", "b"))
        corpus = Corpus.from_arrays(alphabet, [[0, 1]])
        assert len(top_states(corpus, 5)) == 2


class TestReport:
    def test_self_comparison_trivial(self):
        corpus = activity_ground_truth(20, 200, seed=57)
        report = build_report(corpus, {"self": corpus})
        for state in report.states:
            cell = report.individual[state]["self"]
            assert cell["d"] == 0.0
            assert cell["p"] == 1.0
        assert report.entropy["self"]["d"] == 0.0

    def test_row_set_is_states_plus_overall(self):
        corpus = activity_ground_truth(10, 150, seed=58)
        report = build_report(corpus, {"m": corpus}, states=("rest", "light"))
        assert set(report.individual) == {"Overall", "rest", "light"}
        assert set(report.episode_counts) == {"Overall", "rest", "light"}

    def test_default_states_top5_by_prevalence(self):
        corpus = activity_ground_truth(15, 300, seed=59)
        report = build_report(corpus, {"m": corpus})
        assert report.states == top_states(corpus, 5)

    def test_alphabet_mismatch_rejected(self):
        a = Corpus.from_arrays(StateAlphabet(("x", "y")), [[0, 1]])
        b = Corpus.from_arrays(StateAlphabet(("x", "z")), [[0, 1]])
        with pytest.raises(DataFormatError, match="alphabet"):
            build_report(a, {"m": b})

    def test_length_mismatch_rejected(self):
        alphabet = StateAlphabet(("x", "y"))
        a = Corpus.from_arrays(alphabet, [[0, 1]])
        b = Corpus.from_arrays(alphabet, [[0, 1, 1]])
        with pytest.raises(DataFormatError, match="length"):
            build_report(a, {"m": b})

    def test_reserved_method_name_rejected(self):
        alphabet = StateAlphabet(("x", "y"))
        a = Corpus.from_arrays(alphabet, [[0, 1]])
        with pytest.raises(DataFormatError, match="reserved"):
            build_report(a, {"original": a})

    def test_per_state_zero_exclusion(self):
        alphabet = StateAlphabet(("a", "b", "c"))
        # second sequence never visits c
        corpus = Corpus.from_arrays(alphabet, [[0, 1, 2, 2], [0, 1, 1, 0]])
        keep = build_report(
            corpus, {"m": corpus}, states=("c",), exclude_zero_combined={"c": False}
        )
        drop = build_report(
            corpus, {"m": corpus}, states=("c",), exclude_zero_combined={"c": True}
        )
        assert keep.combined["c"]["original"]["n"] == 2
        assert drop.combined["c"]["original"]["n"] == 1
        assert keep.metadata["combined_excludes_zero"] == {"c": False}

    def test_multiple_method_blocks(self):
        corpus = activity_ground_truth(12, 120, seed=60)
        other = activity_ground_truth(12, 120, seed=61)
        report = build_report(corpus, {"m1": corpus, "m2": other})
        assert report.methods == ("m1", "m2")
        for state in report.states:
            assert set(report.individual[state]) == {"original", "m1", "m2"}

    def test_duration_range_filter(self):
        corpus = activity_ground_truth(15, 200, seed=62)
        state = top_states(corpus, 1)[0]
        full = build_report(corpus, {"m": corpus}, states=(state,))
        clipped = build_report(
            corpus,
            {"m": corpus},
            states=(state,),
            duration_ranges={state: (0, 10)},
        )
        assert clipped.individual[state]["original"]["n"] <= full.individual[state]["original"]["n"]

    def test_write_report_deterministic(self, tmp_path):
        corpus = activity_ground_truth(10, 100, seed=63)
        method = activity_ground_truth(10, 100, seed=64)
        report = build_report(corpus, {"m": method})
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        write_report(report, out1, config_hash="abc")
        write_report(report, out2, config_hash="abc")
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        assert (out1 / "report.json").exists()
        assert (out1 / "individual_durations.csv").exists()
        assert (out1 / "ecdf").is_dir()

    def test_entropies_vector(self):
        corpus = activity_ground_truth(8, 90, seed=65)
        ents = corpus_entropies(corpus)
        assert ents.shape == (8,)
        assert (ents >= 0).all()


def _runs_corpus(rng, n_states, n_days, length, mean_run, allowed=None):
    """Days of geometric runs over ``allowed`` states (default all)."""
    alphabet = StateAlphabet(tuple(f"s{i}" for i in range(n_states)))
    allowed = np.arange(n_states) if allowed is None else np.asarray(allowed)
    days = []
    for _ in range(n_days):
        day = []
        while len(day) < length:
            day += [int(rng.choice(allowed))] * int(rng.geometric(1 / mean_run))
        days.append(day[:length])
    return Corpus.from_arrays(alphabet, days)


def _direct_stats(values, original=None):
    values = np.asarray(values)
    cell = {
        "n": int(values.size),
        "mean": float(np.mean(values)) if values.size else None,
        "sd": (float(np.std(values, ddof=1)) if values.size > 1 else 0.0) if values.size else None,
    }
    if original is not None:
        ks = ks_two_sample(original, values) if values.size and original.size else None
        cell["d"] = None if ks is None else ks.d
        cell["p"] = None if ks is None else ks.p
    return cell


def _direct_report(original, methods, states, exclude_zero, ranges):
    """build_report's tables from row-by-row and column-by-column computations."""
    corpora = {"original": original, **methods}
    labels = original.alphabet.labels

    def episodes(corpus):
        out = []
        for row in corpus.states_matrix:
            starts, lengths = run_bounds(row)
            out.append((row[starts], lengths))
        return out

    def clip(values, state):
        if state not in ranges:
            return values
        lo, hi = ranges[state]
        return values[(values >= lo) & (values <= hi)]

    table = {name: episodes(c) for name, c in corpora.items()}
    individual, combined, counts = {}, {}, {}
    for state in [None, *states]:
        key = "Overall" if state is None else state
        idx = None if state is None else labels.index(state)
        samples = {}
        for name, rows in table.items():
            picked = [d if idx is None else d[s == idx] for s, d in rows]
            samples[name] = clip(np.concatenate(picked).astype(np.int64), state)
        individual[key] = {"original": _direct_stats(samples["original"])}
        for name in methods:
            individual[key][name] = _direct_stats(samples[name], samples["original"])
        counts[key] = {}
        for name, rows in table.items():
            per_day = [s.size if idx is None else np.count_nonzero(s == idx) for s, _ in rows]
            cell = _direct_stats(per_day)
            counts[key][name] = {"mean": cell["mean"], "sd": cell["sd"]}
        if state is None:
            continue
        samples = {}
        for name, corpus in corpora.items():
            values = (corpus.states_matrix == idx).sum(axis=1)
            if exclude_zero.get(state, True):
                values = values[values > 0]
            samples[name] = clip(values, state)
        combined[key] = {"original": _direct_stats(samples["original"])}
        for name in methods:
            combined[key][name] = _direct_stats(samples[name], samples["original"])
    ents = {
        name: np.array([sequence_entropy(IntervalSequence(row)) for row in c.states_matrix])
        for name, c in corpora.items()
    }
    entropy = {"original": _direct_stats(ents["original"])}
    for name in methods:
        entropy[name] = _direct_stats(ents[name], ents["original"])
    return individual, combined, counts, entropy


class TestReportParity:
    """Every cell of build_report against per-view computations that do not
    share its one summary per corpus; equality is exact."""

    @pytest.mark.parametrize("n_states", [2, 4, 9, 130])
    def test_every_cell_matches_direct_views(self, n_states):
        rng = np.random.default_rng(67 + n_states)
        length = 300 if n_states == 130 else 96
        original = _runs_corpus(rng, n_states, 40, length, 3)
        skipped = 1 if n_states == 2 else 2  # never visits s0 (nor s1 beyond 2 states)
        methods = {
            "near": _runs_corpus(rng, n_states, 25, length, 4),
            "skips": _runs_corpus(rng, n_states, 15, length, 6, range(skipped, n_states)),
        }
        totals = np.bincount(original.states_matrix.ravel(), minlength=n_states)
        order = np.argsort(-totals, kind="stable")
        top5 = tuple(original.alphabet.labels[i] for i in order[:5] if totals[i] > 0)
        named = ("s0", "s1", original.alphabet.labels[-1])[: min(3, n_states)]
        cases = [
            (None, True, None),
            (named, {"s0": False, "s1": True}, {"s0": (2, 9)}),
            # s1's range empties every duration sample; s0 keeps the zero days
            (named, False, {"s1": (0, 0), "s0": (1, 4)}),
        ]
        for states, exclude, ranges in cases:
            report = build_report(
                original, methods, states=states, exclude_zero_combined=exclude,
                duration_ranges=ranges,
            )
            want_states = top5 if states is None else states
            assert report.states == want_states
            mapping = exclude if isinstance(exclude, dict) else {s: exclude for s in want_states}
            individual, combined, counts, entropy = _direct_report(
                original, methods, want_states, mapping, ranges or {}
            )
            assert report.individual == individual
            assert report.combined == combined
            assert report.episode_counts == counts
            assert report.entropy == entropy
        # the skipping method has an empty s0 sample, so no d and no curve
        assert report.individual["s0"]["skips"]["n"] == 0
        assert report.individual["s0"]["skips"]["d"] is None
        assert set(report.curves["individual"]["s0"].methods) == {"near"}
        assert "s1" not in report.curves["individual"]

    def test_corpus_views_match_direct_views(self):
        rng = np.random.default_rng(68)
        for n_states in (2, 4, 9, 130):
            corpus = _runs_corpus(rng, n_states, 30, 200, 3)
            matrix = corpus.states_matrix
            want = [sequence_entropy(IntervalSequence(row)) for row in matrix]
            assert corpus_entropies(corpus).tolist() == want
            totals = np.bincount(matrix.ravel(), minlength=n_states)
            order = np.argsort(-totals, kind="stable")
            assert top_states(corpus, 7) == tuple(
                corpus.alphabet.labels[i] for i in order[:7] if totals[i] > 0
            )
            for idx in (0, n_states - 1):
                label = corpus.alphabet.labels[idx]
                comb = episode_durations(corpus, label, "combined").values
                assert comb.tolist() == (matrix == idx).sum(axis=1).tolist()


class TestReportNames:
    def test_repeated_state_rejected(self):
        corpus = activity_ground_truth(10, 150, seed=69)
        with pytest.raises(DataFormatError, match="repeated state"):
            build_report(corpus, {"m": corpus}, states=("rest", "rest"))

    @pytest.mark.parametrize(
        "labels, methods, clash",
        [
            (("rest", "move"), ("m-1", "M 1"), "'m-1' and 'M 1'"),
            (("rest", "move"), ("Original",), "'original' and 'Original'"),
            (("a b", "a-b"), ("m",), "'a b' and 'a-b'"),
        ],
    )
    def test_colliding_curve_names_rejected_before_writing(self, tmp_path, labels, methods, clash):
        # each pair once wrote one ECDF file, the second overwriting the first
        corpus = Corpus.from_arrays(StateAlphabet(labels), [[0, 0, 1, 1, 0], [1, 0, 0, 1, 1]])
        report = build_report(corpus, {name: corpus for name in methods}, states=labels)
        with pytest.raises(DataFormatError, match=clash):
            write_report(report, tmp_path / "out")
        assert not (tmp_path / "out").exists()
