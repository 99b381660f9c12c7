"""The lockstep paired-mc engine against the one-sequence loop.

``OracleIndex``/``oracle_build_index`` keep the former prev1-keyed
``CandidateIndex`` (one ``_Block`` per preceding state, with order 2
and 3 as masks over the window), and ``SynthesisState`` with
``OracleEngine.generate`` keep the former one-sequence generation loop.
``DurationSampler`` and ``sample_transition`` keep the former per-draw
two-stage sampler, ``OracleFirstEpisodes`` the former scalar opening
draw, and ``verify_realizable`` replays an oracle episode chain against
the index.  Every draw reads one ``rng.random()``: a position in a pool
of n is ``floor(u * n)``, a categorical draw a right-side
search of ``u * total``, and kde noise Box-Muller from two doubles.
``PairedMcEngine.generate_many`` and ``synthesize_batch`` must reproduce
them exactly: the same states and the same per-sequence fallback counts
from the same streams.
"""

import json
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import (
    ClusterWeights,
    ConfigError,
    Corpus,
    DataFormatError,
    PairedMcEngine,
    StateAlphabet,
    SynthesisConfig,
    TvmcModel,
    episode_table,
    extend_with_buffer,
    synthesize_batch,
)
from seqsynth import synth
from seqsynth.core import Episode
from seqsynth.synth import (
    _BUFFER_STREAM,
    _SEQUENCE_STREAM,
    MAX_ORDER,
    SAMPLERS as SAMPLER_KINDS,
    CandidateIndex,
    Candidates,
    _check_bandwidth,
    silverman_bandwidth,
)

from _groundtruth import activity_ground_truth
from _provenance import oracle_provenance_json

FALLBACK_KEYS = ("window_widened", "order_reduced", "tvmc_steps")

_EMPTY_CANDIDATES = Candidates(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
)


@dataclass(frozen=True)
class DurationSampler:
    """Duration draw strategy: the observed value itself, or KDE-smoothed.

    The direct sampler only ever returns observed durations.  The KDE
    sampler adds Gaussian kernel noise to a uniformly chosen observation,
    rounds to the nearest integer interval, and clamps to at least 1.
    """

    kind: str = "direct"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler {self.kind!r}")
        _check_bandwidth(self.bandwidth)

    def draw(self, durations: np.ndarray, rng: np.random.Generator) -> int:
        value = int(durations[position(rng, durations.size)])
        if self.kind == "direct":
            return value
        h = self.bandwidth if self.bandwidth is not None else silverman_bandwidth(durations)
        if h > 0.0:
            u1 = rng.random()
            u2 = rng.random()
            z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
            value = int(np.rint(value + h * z))
        return max(value, 1)


def position(rng: np.random.Generator, n: int) -> int:
    """A uniform position in a pool of ``n`` from one double."""
    return int(rng.random() * n)


class OracleFirstEpisodes:
    """The former ``FirstEpisodeTable``: per-state opening durations."""

    def __init__(self, corpus: Corpus):
        _, starts, states, durations = episode_table(corpus.states_matrix)
        states, durations = states[starts == 0], durations[starts == 0]
        counts = np.bincount(states, minlength=corpus.alphabet.size)
        self.state_cum = counts.cumsum()
        order = np.argsort(states, kind="stable")
        bounds = np.concatenate(([0], self.state_cum))
        self.durations_by_state = [
            durations[order[bounds[s] : bounds[s + 1]]]
            for s in range(corpus.alphabet.size)
        ]

    def draw(self, rng: np.random.Generator) -> tuple[int, int]:
        row = self.state_cum
        state = int(np.searchsorted(row, rng.random() * row[-1], side="right"))
        pool = self.durations_by_state[state]
        return state, int(pool[position(rng, pool.size)])


def sample_transition(
    cands: Candidates,
    sampler: DurationSampler,
    rng: np.random.Generator,
    duration_pools: Mapping[int, np.ndarray] | None = None,
) -> tuple[int, int]:
    """Two-stage draw from a candidate multiset.

    The state is chosen proportional to its multiplicity among the
    candidates; the duration is then drawn from that state's candidate
    durations (or, when ``duration_pools`` is given, from the supplied
    per-state pool instead).
    """
    if cands.size == 0:
        raise ValueError("no candidates")
    uniq, counts = np.unique(cands.states, return_counts=True)
    cum = counts.cumsum()
    state = int(uniq[np.searchsorted(cum, rng.random() * cum[-1], side="right")])
    if duration_pools is not None:
        pool = np.asarray(duration_pools[state])
    else:
        pool = cands.durations[cands.states == state]
    return state, sampler.draw(pool, rng)


def verify_realizable(
    result: "OracleResult", index: CandidateIndex, config: SynthesisConfig
) -> bool:
    """Replay an order-1 direct generation against the index.

    True when every non-initial internal episode matches at least one
    index record with the right preceding state, state, duration, and a
    start within the base window.  Only meaningful for generations with
    zero fallbacks (fallback episodes are legitimately unindexed).
    """
    episodes = result.episodes or ()
    for i in range(1, len(episodes)):
        ep = episodes[i]
        cands = index.candidates(episodes[i - 1].state, (), ep.start, config.delta, 1)
        if not np.any((cands.states == ep.state) & (cands.durations == ep.duration)):
            return False
    return True


class _Block(NamedTuple):
    starts: np.ndarray
    next_states: np.ndarray
    durations: np.ndarray
    prev2: np.ndarray
    prev3: np.ndarray


class OracleIndex:
    """Observed transitions keyed by the immediately preceding state."""

    def __init__(self, blocks: dict[int, _Block], n_states: int, horizon: int, delta: int):
        self._blocks = blocks
        self.n_states = n_states
        self.horizon = horizon
        self.delta = delta

    def candidates(
        self,
        a_c: int,
        context: Sequence[int] = (),
        t_c: int = 0,
        delta: int | None = None,
        order: int = 1,
    ) -> Candidates:
        if not 1 <= order <= MAX_ORDER:
            raise ConfigError(f"order must be in [1, {MAX_ORDER}]")
        if any(int(c) < 0 for c in context):
            # -1 marks "no predecessor" internally and must not be queryable
            raise ConfigError("context states must be non-negative")
        if delta is None:
            delta = self.delta
        block = self._blocks.get(int(a_c))
        if block is None:
            return _EMPTY_CANDIDATES
        lo = int(np.searchsorted(block.starts, t_c - delta, side="left"))
        hi = int(np.searchsorted(block.starts, t_c + delta, side="right"))
        if lo >= hi:
            return _EMPTY_CANDIDATES
        states = block.next_states[lo:hi]
        durations = block.durations[lo:hi]
        if order >= 2 and len(context) >= 1:
            mask = block.prev2[lo:hi] == int(context[0])
            if order >= 3 and len(context) >= 2:
                mask &= block.prev3[lo:hi] == int(context[1])
            states = states[mask]
            durations = durations[mask]
        return Candidates(states, durations)


def oracle_build_index(corpus: Corpus, delta: int) -> OracleIndex:
    if len(corpus) == 0:
        raise DataFormatError("cannot index an empty corpus")
    rows, ep_starts, ep_states, ep_durs = episode_table(corpus.states_matrix)

    def earlier(k: int) -> np.ndarray:
        """State of the episode k before each one in its row, else -1."""
        out = np.full(ep_states.size, -1, dtype=np.int64)
        same_row = rows[k:] == rows[:-k]
        out[k:][same_row] = ep_states[:-k][same_row]
        return out

    # one record per episode that has a predecessor, sorted by (prev1, start);
    # the stable sort keeps ties in row-major order
    prev1 = earlier(1)
    records = np.flatnonzero(ep_starts > 0)
    records = records[np.lexsort((ep_starts[records], prev1[records]))]
    starts, nxt, dur, prev1, prev2, prev3 = (
        a[records]
        for a in (ep_starts, ep_states, ep_durs, prev1, earlier(2), earlier(3))
    )
    blocks: dict[int, _Block] = {}
    for state in np.unique(prev1):
        lo = int(np.searchsorted(prev1, state, side="left"))
        hi = int(np.searchsorted(prev1, state, side="right"))
        blocks[int(state)] = _Block(*(a[lo:hi] for a in (starts, nxt, dur, prev2, prev3)))
    return OracleIndex(blocks, corpus.alphabet.size, corpus.length, delta)


class SynthesisState:
    """Mutable per-generation state of the episode engine."""

    __slots__ = ("states", "durations", "starts", "current_state", "end_time", "context")

    def __init__(self, state: int, duration: int):
        self.states = [state]
        self.durations = [duration]
        self.starts = [0]
        self.current_state = state
        self.end_time = duration
        self.context: list[int] = []

    def advance(self, state: int, duration: int) -> None:
        """Append a new episode and shift the context window."""
        self.context = [self.current_state] + self.context[: MAX_ORDER - 2]
        self.states.append(state)
        self.durations.append(duration)
        self.starts.append(self.end_time)
        self.current_state = state
        self.end_time += duration

    def extend_current(self, amount: int = 1) -> None:
        """Lengthen the episode in progress without a state change."""
        self.durations[-1] += amount
        self.end_time += amount

    def episodes(self) -> tuple[Episode, ...]:
        return tuple(
            Episode(s, d, t)
            for s, d, t in zip(self.states, self.durations, self.starts)
        )


class OracleResult(NamedTuple):
    """One sequence with its internal episode chain before truncation."""

    states: np.ndarray
    episodes: tuple[Episode, ...]
    fallbacks: dict[str, int]

    @property
    def fallback_total(self) -> int:
        return sum(self.fallbacks.values())


def _all_day_durations(corpus: Corpus) -> dict[int, np.ndarray]:
    _, _, states, durs = episode_table(corpus.states_matrix)
    return {int(s): durs[states == s] for s in np.unique(states)}


class OracleEngine:
    """The former ``PairedMcEngine``: build, then one sequence per call."""

    def __init__(self, corpus: Corpus, config: SynthesisConfig, stream_key: int = 0):
        self.config = config
        self.n = corpus.length
        self.tvmc = TvmcModel.fit(corpus)
        self.first = OracleFirstEpisodes(corpus)
        if config.buffer == "tvmc" and config.delta > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, _BUFFER_STREAM, stream_key))
            )
            buffered = extend_with_buffer(corpus, self.tvmc, config.delta, [rng])
            self.stop = self.n + config.delta
        else:
            buffered = corpus
            self.stop = self.n
        self.index = oracle_build_index(buffered, config.delta)
        self.sampler = DurationSampler(config.sampler, config.kde_bandwidth)
        self.duration_pools = (
            _all_day_durations(corpus) if config.duration_pool == "all_day" else None
        )
        self._widen = (1,) if config.delta == 0 else (1, 2, 4)

    def generate(self, rng: np.random.Generator) -> OracleResult:
        cfg = self.config
        index = self.index
        stop = self.stop
        delta = cfg.delta
        fast = cfg.sampler == "direct" and self.duration_pools is None

        run = SynthesisState(*self.first.draw(rng))
        fallbacks = {"window_widened": 0, "order_reduced": 0, "tvmc_steps": 0}

        while run.end_time < stop:
            cands = None
            used_order = cfg.order
            widened = False
            for k in range(cfg.order, 0, -1):
                ctx_k = run.context[: k - 1]
                for w in self._widen:
                    c = index.candidates(
                        run.current_state, ctx_k, run.end_time, delta * w, k
                    )
                    if c.states.size:
                        cands = c
                        used_order = k
                        widened = w > 1
                        break
                if cands is not None:
                    break

            if cands is None:
                # final resort: a single baseline interval, then resume
                step, _ = self.tvmc.walk(
                    [run.current_state], run.end_time, np.array([[rng.random()]])
                )
                nxt = int(step[0, 0])
                fallbacks["tvmc_steps"] += 1
                if nxt == run.current_state:
                    run.extend_current(1)
                else:
                    run.advance(nxt, 1)
                continue

            if used_order < cfg.order:
                fallbacks["order_reduced"] += 1
            elif widened:
                fallbacks["window_widened"] += 1

            if fast:
                i = position(rng, cands.states.size)
                state, dur = int(cands.states[i]), int(cands.durations[i])
            else:
                state, dur = sample_transition(
                    cands, self.sampler, rng, self.duration_pools
                )
            run.advance(state, dur)

        states = np.repeat(
            np.asarray(run.states, dtype=np.int64),
            np.asarray(run.durations, dtype=np.int64),
        )[: self.n]
        return OracleResult(states, run.episodes(), fallbacks)


def sparse_corpus(rng, n_seq, length, n_states):
    """A few short days of short random episodes: most windows are thin.

    The last state only ever closes a day, so it has no recorded
    successor: a sequence that reaches it early must take baseline steps.
    """
    alphabet = StateAlphabet(tuple(f"s{i}" for i in range(n_states)))
    rows = []
    for _ in range(n_seq):
        row = np.full(length, n_states - 1, dtype=np.int64)
        t, cur = 0, int(rng.integers(n_states - 1))
        stop = length - int(rng.integers(0, 8))
        while t < stop:
            d = int(min(rng.integers(1, 8), stop - t))
            row[t : t + d] = cur
            t += d
            cur = int((cur + rng.integers(1, n_states - 1)) % (n_states - 1))
        rows.append(row)
    return Corpus.from_arrays(alphabet, rows)


SAMPLERS = {
    "direct": {},
    "kde-silverman": {"sampler": "kde"},
    "kde-fixed": {"sampler": "kde", "kde_bandwidth": 1.5},
    "all-day": {"duration_pool": "all_day"},
    "kde-all-day": {"sampler": "kde", "duration_pool": "all_day"},
}


def _streams(seed, n):
    return [np.random.default_rng(np.random.SeedSequence((seed, i))) for i in range(n)]


def _compare(corpus, config, n_rows=6):
    """Fallback totals after checking both engine paths against the oracle."""
    engine = PairedMcEngine(corpus, config)
    oracle = OracleEngine(corpus, config)
    oracle_records = sum(b.starts.size for b in oracle.index._blocks.values())
    assert engine.index.n_records == oracle_records
    assert engine.fallback_names == FALLBACK_KEYS
    states, fallbacks = engine.generate_many(_streams(config.seed, n_rows))
    want = [oracle.generate(rng) for rng in _streams(config.seed, n_rows)]
    assert states.shape == (n_rows, corpus.length)
    assert fallbacks.shape == (n_rows, len(FALLBACK_KEYS))
    totals = dict.fromkeys(FALLBACK_KEYS, 0)
    for row, counts, w in zip(states, fallbacks.tolist(), want):
        assert row.dtype == corpus.alphabet.cell_dtype
        assert np.array_equal(row, w.states)
        assert list(zip(FALLBACK_KEYS, counts)) == list(w.fallbacks.items())
        for key in FALLBACK_KEYS:
            totals[key] += w.fallbacks[key]
    # a one-row block draws as a row of a larger one does
    [rng] = _streams(config.seed + 1, 1)
    [oracle_rng] = _streams(config.seed + 1, 1)
    (single, counts), expected = engine.generate_many([rng]), oracle.generate(oracle_rng)
    assert np.array_equal(single[0], expected.states)
    assert dict(zip(FALLBACK_KEYS, counts[0])) == expected.fallbacks
    return totals


@st.composite
def sparse_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    length = draw(st.integers(2, 60))
    corpus = sparse_corpus(
        np.random.default_rng(seed),
        n_seq=draw(st.integers(1, 4)),
        length=length,
        n_states=draw(st.integers(3, 6)),
    )
    config = SynthesisConfig(
        delta=draw(st.integers(0, min(length, 6))),
        order=draw(st.integers(1, MAX_ORDER)),
        target_length=length,
        buffer=draw(st.sampled_from(("tvmc", "none"))),
        seed=seed,
        **SAMPLERS[draw(st.sampled_from(sorted(SAMPLERS)))],
    )
    return corpus, config


class TestEngineOracle:
    @settings(max_examples=150, deadline=None)
    @given(sparse_cases())
    def test_matches_one_sequence_loop(self, case):
        _compare(*case)

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_rung_fires(self, order, sampler):
        totals = dict.fromkeys(FALLBACK_KEYS, 0)
        rng = np.random.default_rng(700 + order)
        for case in range(16):
            corpus = sparse_corpus(rng, n_seq=3, length=48, n_states=4)
            config = SynthesisConfig(
                delta=(0, 2, 3, 5)[case % 4],
                order=order,
                target_length=48,
                buffer=("tvmc", "none")[case // 4 % 2],
                seed=case,
                **SAMPLERS[sampler],
            )
            for key, value in _compare(corpus, config, n_rows=16).items():
                totals[key] += value
        assert totals["window_widened"] > 0
        assert totals["tvmc_steps"] > 0
        assert (totals["order_reduced"] > 0) == (order > 1)

    def test_widened_window_on_hand_built_days(self):
        # day 1: a b c(3) d(3) c(4); day 2: a b c(4) d(6).  A chain that
        # takes day 1's c(3) and then day 2's d(6) (about one in four) is
        # at t = 11 under the order-3 context (b, c, d), whose one record
        # starts at 8: outside the base window (delta 2), inside the first
        # widened one.  Every other chain replays a day.
        alphabet = StateAlphabet(("a", "b", "c", "d"))
        days = [
            np.repeat([0, 1, 2, 3, 2], [1, 1, 3, 3, 4]),
            np.repeat([0, 1, 2, 3], [1, 1, 4, 6]),
        ]
        config = SynthesisConfig(delta=2, order=3, target_length=12, buffer="none", seed=9)
        totals = _compare(Corpus.from_arrays(alphabet, days), config, n_rows=64)
        assert totals["window_widened"] > 0
        assert totals["order_reduced"] == totals["tvmc_steps"] == 0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_full_days(self, order):
        corpus = activity_ground_truth(40, 1440, seed=83)
        _compare(corpus, SynthesisConfig(delta=30, order=order, seed=84), n_rows=8)


def _oracle_batch(corpus, config, count, vec, weights):
    """States and provenance of ``synthesize_batch`` from per-ordinal loops."""
    if vec is None:
        parts = [corpus]
    else:
        parts = [corpus.subset(np.flatnonzero(vec == c)) for c in range(3)]
    engines = [OracleEngine(part, config, stream_key=c) for c, part in enumerate(parts)]
    states = np.empty((count, corpus.length), dtype=np.int64)
    drawn = []
    for ordinal in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, _SEQUENCE_STREAM, ordinal))
        )
        cluster = 0 if vec is None else int(ClusterWeights(weights).choose(rng.random()))
        result = engines[cluster].generate(rng)
        states[ordinal] = result.states
        drawn.append((cluster, result.fallbacks))
    return states, drawn


class TestBatchOracle:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize(
        "settings_",
        [
            {"order": 1},
            {"order": 2, "sampler": "kde"},
            {"order": 3, "duration_pool": "all_day", "buffer": "none"},
        ],
        ids=["o1", "o2-kde", "o3-allday-nobuffer"],
    )
    def test_batch_matches_scalar_generation(
        self, workers, clustered, settings_, monkeypatch
    ):
        # many blocks per chunk, each mixing clusters
        monkeypatch.setattr(synth, "_BLOCK_ROWS", 8)
        corpus = activity_ground_truth(30, 120, seed=85)
        config = SynthesisConfig(delta=15, target_length=120, seed=86, **settings_)
        count = 150
        if clustered:
            # unequal clusters, weighted against their sizes
            vec = np.repeat(np.arange(3), (15, 10, 5))
            labels = {sid: int(c) for sid, c in zip(corpus.ids, vec)}
            weights = [0.1, 0.2, 0.7]
        else:
            vec = labels = weights = None
        out, prov = synthesize_batch(
            corpus, config, count, assignment=labels, weights=weights, workers=workers
        )
        states, drawn = _oracle_batch(corpus, config, count, vec, weights)
        assert np.array_equal(out.states_matrix, states)
        want = oracle_provenance_json("paired-mc", config, count, weights or [1.0], drawn)
        assert json.dumps(prov.to_dict()) == want
        if clustered:
            assert np.bincount([c for c, _ in drawn], minlength=3)[2] > 2 * 8

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("engine", ["paired-mc", "tvmc"])
    def test_empty_batch(self, engine, clustered):
        corpus = activity_ground_truth(30, 120, seed=85)
        config = SynthesisConfig(delta=15, target_length=120, seed=86)
        if clustered:
            labels = {sid: i % 3 for i, sid in enumerate(corpus.ids)}
            weights = [0.7, 0.2, 0.1]
        else:
            labels, weights = None, [1.0]
        out, prov = synthesize_batch(
            corpus, config, 0, engine=engine, assignment=labels,
            weights=weights if clustered else None,
        )
        assert len(out) == 0
        assert prov.fallback_totals() == {}
        assert json.dumps(prov.to_dict()) == oracle_provenance_json(
            engine, config, 0, weights, []
        )

    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("sampler", ["direct", "kde-silverman", "all-day"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_output_is_independent_of_width_and_blocks(
        self, width, sampler, clustered, monkeypatch
    ):
        # row r's k-th draw is the k-th double of its stream, however the
        # doubles are read ahead and however the rows are grouped
        corpus = activity_ground_truth(30, 120, seed=87)
        config = SynthesisConfig(delta=15, target_length=120, seed=88, **SAMPLERS[sampler])
        if clustered:
            labels = {sid: i % 3 for i, sid in enumerate(corpus.ids)}
            weights = [0.5, 0.2, 0.3]
        else:
            labels = weights = None
        want, want_prov = synthesize_batch(
            corpus, config, 60, assignment=labels, weights=weights
        )
        monkeypatch.setattr(synth, "_WIDTH", width)
        monkeypatch.setattr(synth, "_BLOCK_ROWS", 8)
        got, prov = synthesize_batch(corpus, config, 60, assignment=labels, weights=weights)
        assert got.states_matrix.tobytes() == want.states_matrix.tobytes()
        assert prov.to_dict() == want_prov.to_dict()
