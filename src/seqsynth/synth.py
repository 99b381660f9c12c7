"""Sequence generation engines.

Two engines are provided:

* ``paired-mc`` - the paired state/duration engine.  Source sequences
  are run-length encoded into episode chains; generation alternates a
  state draw (from transitions observed within a clock-time window of
  the current end time, conditioned on the preceding one or more
  episode states) with a duration draw for the chosen state.  Source
  sequences are first extended by one window length with per-interval
  baseline steps so the window statistics near the end of the day are
  unbiased; generation runs to the extended horizon and the output is
  truncated back to the target length.

* ``tvmc`` - a time-varying Markov chain baseline that draws each
  interval's state conditioned on the previous interval's state and the
  clock time.

Reproducibility contract: every output sequence is generated from an
independent random stream derived from ``(config.seed, ordinal)``, so a
batch is byte-identical for a given (corpus, config, count) regardless
of how many workers run it.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .clustering import ClusterAssignment, ClusterWeights, sample_cluster
from .core import Corpus, Episode, episode_table
from .errors import ConfigError, DataFormatError

__all__ = [
    "ENGINES",
    "MAX_ORDER",
    "SynthesisConfig",
    "config_from_dict",
    "config_to_dict",
    "TvmcModel",
    "FirstEpisodeTable",
    "Candidates",
    "CandidateIndex",
    "build_index",
    "DurationSampler",
    "silverman_bandwidth",
    "sample_transition",
    "extend_with_buffer",
    "SynthesisState",
    "GenerationResult",
    "PairedMcEngine",
    "TvmcEngine",
    "verify_realizable",
    "SequenceProvenance",
    "BatchProvenance",
    "synthesize_batch",
]

ENGINES = ("paired-mc", "tvmc")
MAX_ORDER = 3
SAMPLERS = ("direct", "kde")
BUFFERS = ("tvmc", "none")
DURATION_POOLS = ("window", "all_day")

_WIDEN_FACTORS = (1, 2, 4)
# stream tags keep buffer imputation and per-sequence generation independent
_BUFFER_STREAM = 0
_SEQUENCE_STREAM = 1


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs for one synthesis run.

    delta          half-width (in intervals) of the candidate time window
    order          number of preceding episode states conditioned on
    target_length  output length in intervals
    sampler        duration sampler: "direct" or "kde"
    kde_bandwidth  fixed Gaussian bandwidth; None selects Silverman's rule
    buffer         "tvmc" extends sources by delta before indexing; "none" skips
    seed           master seed; all randomness derives from it
    duration_pool  "window" draws durations from the windowed candidates,
                   "all_day" from all observed durations of the chosen state
    """

    delta: int = 60
    order: int = 1
    target_length: int = 1440
    sampler: str = "direct"
    kde_bandwidth: float | None = None
    buffer: str = "tvmc"
    seed: int = 0
    duration_pool: str = "window"

    def __post_init__(self):
        for name in ("delta", "order", "target_length", "seed"):
            _require_int(name, getattr(self, name))
        if self.target_length < 1:
            raise ConfigError("target_length must be positive")
        # the buffer holds an (n_sequences, delta) array, so delta is bounded
        if not 0 <= self.delta <= self.target_length:
            raise ConfigError(
                f"delta must be in [0, target_length={self.target_length}], "
                f"got {self.delta}"
            )
        if not 1 <= self.order <= MAX_ORDER:
            raise ConfigError(f"order must be in [1, {MAX_ORDER}]")
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        _check_bandwidth(self.kde_bandwidth)
        if self.buffer not in BUFFERS:
            raise ConfigError(f"unknown buffer strategy {self.buffer!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a non-negative 64-bit integer")
        if self.duration_pool not in DURATION_POOLS:
            raise ConfigError(f"unknown duration pool {self.duration_pool!r}")


def _require_int(name: str, value) -> None:
    """Reject anything but a true ``int``: no bools, floats or strings."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_bandwidth(value) -> None:
    """None (Silverman's rule) or a finite positive number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if value is not None and not (number and math.isfinite(value) and value > 0):
        raise ConfigError(f"kde bandwidth must be a finite positive number, got {value!r}")


def _reject_unknown_keys(data: Mapping, known: Mapping, prefix: str = "") -> None:
    unknown = sorted(prefix + str(k) for k in data if k not in known)
    if unknown:
        raise ConfigError(f"unknown synthesis config key(s): {', '.join(unknown)}")


def config_from_dict(data: Mapping) -> tuple[SynthesisConfig, int | None, list | None]:
    """Parse the JSON config mapping; returns (config, count, weights).

    The accepted keys are exactly those :func:`config_to_dict` emits.
    """
    known = config_to_dict(SynthesisConfig(), count=0, weights=())
    _reject_unknown_keys(data, known)
    sampler = data.get("sampler", "direct")
    bandwidth = None
    if isinstance(sampler, Mapping):
        _reject_unknown_keys(sampler, known["sampler"], "sampler.")
        rule = sampler.get("bandwidth_rule", "silverman")
        if rule not in (None, "silverman"):
            _check_bandwidth(rule)
            bandwidth = float(rule)
        sampler = sampler.get("type", "direct")
    cfg = SynthesisConfig(
        delta=data.get("delta", 60),
        order=data.get("order", 1),
        target_length=data.get("target_length", 1440),
        sampler=str(sampler),
        kde_bandwidth=bandwidth,
        buffer=str(data.get("buffer", "tvmc")),
        seed=data.get("seed", 0),
        duration_pool=str(data.get("duration_pool", "window")),
    )
    count = data.get("count")
    if count is not None:
        _require_int("count", count)
    return cfg, count, data.get("weights")


def config_to_dict(
    config: SynthesisConfig, count: int | None = None, weights=None
) -> dict:
    """Canonical JSON-ready form of a config (inverse of config_from_dict)."""
    rule = "silverman" if config.kde_bandwidth is None else config.kde_bandwidth
    out: dict = {
        "delta": config.delta,
        "order": config.order,
        "target_length": config.target_length,
        "sampler": {"type": config.sampler, "bandwidth_rule": rule},
        "buffer": config.buffer,
        "seed": config.seed,
        "duration_pool": config.duration_pool,
    }
    if count is not None:
        out["count"] = int(count)
    if weights is not None:
        out["weights"] = [float(w) for w in weights]
    return out


class TvmcModel:
    """Empirical per-interval transition counts with daily wrap-around.

    ``walk(start_states, t0, uniforms)`` advances every row in lockstep:
    row i starts from ``start_states[i]`` at interval ``t0 - 1`` and
    column k of ``uniforms`` draws its state at interval ``t0 + k``
    given the state before it.  Times at or past the sequence length
    reuse the statistics of ``t mod length``; the transition into
    interval 0 is estimated from the day wrap (last interval -> first
    interval).  When no transition was ever observed from a state at
    that time, the draw falls back to the marginal distribution of
    states observed at that interval, and the fallbacks are counted per
    row.
    """

    def __init__(self, trans_cum, first_cum, marginal_cum, length, n_states):
        self.trans_cum = trans_cum
        self.first_cum = first_cum
        self.marginal_cum = marginal_cum
        self.length = length
        self.n_states = n_states

    @classmethod
    def fit(cls, corpus: Corpus) -> "TvmcModel":
        mat = corpus.states_matrix
        n_seq, length = mat.shape
        n_states = corpus.alphabet.size
        # flat cell index t*S*S + prev*S + cur, built in place in int64;
        # prev[:, 0] wraps to the last interval
        flat = np.roll(mat.astype(np.int64, copy=False), 1, axis=1)
        flat *= n_states
        flat += mat
        flat += np.arange(length) * (n_states * n_states)
        counts = np.bincount(
            flat.ravel(), minlength=length * n_states * n_states
        ).reshape(length, n_states, n_states)
        marginal = counts.sum(axis=1)  # distribution of states at interval t
        first = np.bincount(mat[:, 0], minlength=n_states)
        return cls(
            counts.cumsum(axis=2),
            first.cumsum(),
            marginal.cumsum(axis=1),
            length,
            n_states,
        )

    def walk(
        self, start_states: np.ndarray, t0: int, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """States at ``t0 .. t0 + n_steps - 1`` and per-row fallback counts."""
        n_rows, n_steps = uniforms.shape
        states = np.empty((n_rows, n_steps), dtype=np.int64)
        fallbacks = np.zeros(n_rows, dtype=np.int64)
        cur = np.asarray(start_states, dtype=np.int64)
        for k in range(n_steps):
            t = (t0 + k) % self.length
            rows = self.trans_cum[t, cur]  # fancy indexing copies
            totals = rows[:, -1]
            missing = totals == 0
            if missing.any():
                rows[missing] = self.marginal_cum[t]
                totals = rows[:, -1]
                fallbacks += missing
            # count of cumulative cells <= u*total == searchsorted(..., 'right')
            cur = (rows <= (uniforms[:, k] * totals)[:, None]).sum(axis=1)
            states[:, k] = cur
        return states, fallbacks


class FirstEpisodeTable:
    """Empirical (state, duration) distribution of sequence-opening episodes."""

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
        return state, int(pool[rng.integers(pool.size)])


class Candidates(NamedTuple):
    """Multiset of windowed (state, duration) transition candidates."""

    states: np.ndarray
    durations: np.ndarray

    @property
    def size(self) -> int:
        return int(self.states.size)


_EMPTY_CANDIDATES = Candidates(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
)


class _Block(NamedTuple):
    starts: np.ndarray
    next_states: np.ndarray
    durations: np.ndarray
    prev2: np.ndarray
    prev3: np.ndarray


class CandidateIndex:
    """Observed transitions keyed by the immediately preceding state.

    One record exists per episode that has a predecessor: its state,
    duration, start time, and up to two further preceding states (-1 when
    the episode is too close to the start of its sequence).  Records are
    sorted by start time within each preceding-state block so a window
    query is two binary searches.
    """

    def __init__(self, blocks: dict[int, _Block], n_states: int, horizon: int, delta: int):
        self._blocks = blocks
        self.n_states = n_states
        self.horizon = horizon
        self.delta = delta

    @property
    def n_records(self) -> int:
        return sum(b.starts.size for b in self._blocks.values())

    def candidates(
        self,
        a_c: int,
        context: Sequence[int] = (),
        t_c: int = 0,
        delta: int | None = None,
        order: int = 1,
    ) -> Candidates:
        """All records with |start - t_c| <= delta whose predecessors match.

        ``context`` lists the states before the current one, most recent
        first; order k uses up to k-1 of them.  Records that do not have
        enough predecessors to check a requested context entry are
        excluded.
        """
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


def build_index(corpus: Corpus, delta: int) -> CandidateIndex:
    """Index every transition in the corpus for windowed lookup."""
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
    return CandidateIndex(blocks, corpus.alphabet.size, corpus.length, delta)


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb Gaussian bandwidth: 0.9 * min(sd, IQR/1.34) * m^(-1/5)."""
    values = np.asarray(values, dtype=np.float64)
    m = values.size
    if m < 2:
        return 0.0
    sd = float(np.std(values, ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34)
    if spread <= 0.0:
        spread = max(sd, iqr / 1.34)
    return 0.9 * spread * m ** (-0.2)


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
        if self.kind not in SAMPLERS:
            raise ConfigError(f"unknown sampler {self.kind!r}")
        _check_bandwidth(self.bandwidth)

    def draw(self, durations: np.ndarray, rng: np.random.Generator) -> int:
        value = int(durations[rng.integers(durations.size)])
        if self.kind == "direct":
            return value
        h = self.bandwidth if self.bandwidth is not None else silverman_bandwidth(durations)
        if h > 0.0:
            value = int(np.rint(value + h * rng.standard_normal()))
        return max(value, 1)


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


def extend_with_buffer(
    corpus: Corpus, model: TvmcModel, delta: int, rng: np.random.Generator
) -> Corpus:
    """Continue every sequence for ``delta`` intervals with baseline steps.

    ``model`` is the baseline fitted to ``corpus``.  Transition
    statistics for times past the end of the day wrap around (interval
    ``t`` reuses the statistics of ``t mod length``).  The original
    prefix of each sequence is unchanged; sequence i walks on the i-th
    row of one uniform draw.
    """
    if delta == 0:
        return corpus
    mat = corpus.states_matrix
    ext, _ = model.walk(mat[:, -1], corpus.length, rng.random((len(corpus), delta)))
    return replace(corpus, states_matrix=np.hstack((mat, ext.astype(mat.dtype))))


class SynthesisState:
    """Mutable per-generation state of the episode engine.

    Tracks the emitted episodes, the current state, the current end time
    (always the sum of emitted durations), and the most recent preceding
    states (newest first, capped at the maximum supported context).
    Local to one generation; never shared across threads.
    """

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


@dataclass(frozen=True)
class GenerationResult:
    """One generated sequence plus its internal episode chain.

    ``states`` has exactly the target length.  ``episodes`` (engines
    that work in episodes only) is the internal chain before truncation:
    durations are as sampled, so the final episode may overrun the
    horizon.  ``fallbacks`` counts how often each recovery rule fired.
    """

    states: np.ndarray
    episodes: tuple[Episode, ...] | None
    fallbacks: dict[str, int]

    @property
    def fallback_total(self) -> int:
        return sum(self.fallbacks.values())


def _check_engine_inputs(corpus: Corpus, config: SynthesisConfig) -> None:
    if len(corpus) == 0:
        raise DataFormatError("cannot synthesize from an empty corpus")
    if corpus.length != config.target_length:
        raise DataFormatError(
            f"target_length {config.target_length} does not match corpus "
            f"length {corpus.length}"
        )


class PairedMcEngine:
    """Windowed episode-resampling generator built from one corpus.

    Building the engine performs the buffer imputation (when enabled),
    fits the per-interval baseline used by the fallback ladder, and
    indexes every observed transition.  ``generate`` may then be called
    any number of times with independent random streams.
    """

    name = "paired-mc"

    def __init__(self, corpus: Corpus, config: SynthesisConfig, stream_key: int = 0):
        _check_engine_inputs(corpus, config)
        self.config = config
        self.n = corpus.length
        self.tvmc = TvmcModel.fit(corpus)
        self.first = FirstEpisodeTable(corpus)
        if config.buffer == "tvmc" and config.delta > 0:
            buffered = extend_with_buffer(
                corpus,
                self.tvmc,
                config.delta,
                _stream(config.seed, _BUFFER_STREAM, stream_key),
            )
            self.stop = self.n + config.delta
        else:
            buffered = corpus
            self.stop = self.n
        self.index = build_index(buffered, config.delta)
        self.sampler = DurationSampler(config.sampler, config.kde_bandwidth)
        self.duration_pools = (
            _all_day_durations(corpus) if config.duration_pool == "all_day" else None
        )
        # every widened window is tried before dropping an order
        self._widen = (1,) if config.delta == 0 else _WIDEN_FACTORS

    def generate(self, rng: np.random.Generator) -> GenerationResult:
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
                # uniform record draw == state-by-multiplicity then
                # duration-within-state when both use the windowed set
                i = int(rng.integers(cands.states.size))
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
        return GenerationResult(states, run.episodes(), fallbacks)

    def generate_many(self, rngs: Sequence[np.random.Generator]) -> list[GenerationResult]:
        """One :meth:`generate` per stream, in order."""
        return [self.generate(rng) for rng in rngs]


def _all_day_durations(corpus: Corpus) -> dict[int, np.ndarray]:
    """Durations of every episode in the corpus, grouped by state."""
    _, _, states, durs = episode_table(corpus.states_matrix)
    return {
        int(s): durs[states == s] for s in np.unique(states)
    }


class TvmcEngine:
    """Per-interval baseline generator (time-varying Markov chain).

    A batch of streams is walked in lockstep: each stream supplies one
    uniform row, whose first value draws the opening state and the rest
    the following intervals.
    """

    name = "tvmc"

    def __init__(self, corpus: Corpus, config: SynthesisConfig, stream_key: int = 0):
        _check_engine_inputs(corpus, config)
        self.config = config
        self.n = corpus.length
        self.model = TvmcModel.fit(corpus)

    def generate_many(self, rngs: Sequence[np.random.Generator]) -> list[GenerationResult]:
        """One sequence per stream, in order."""
        u = np.empty((len(rngs), self.n))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        first = self.model.first_cum
        states = np.empty_like(u, dtype=np.int64)
        states[:, 0] = np.searchsorted(first, u[:, 0] * first[-1], side="right")
        states[:, 1:], fallbacks = self.model.walk(states[:, 0], 1, u[:, 1:])
        return [
            GenerationResult(row, None, {"marginal": int(fb)})
            for row, fb in zip(states, fallbacks)
        ]


_ENGINE_CLASSES = {"paired-mc": PairedMcEngine, "tvmc": TvmcEngine}


def verify_realizable(
    result: GenerationResult, index: CandidateIndex, config: SynthesisConfig
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


@dataclass(frozen=True)
class SequenceProvenance:
    id: str
    ordinal: int
    cluster: int
    fallbacks: Mapping[str, int]


@dataclass(frozen=True)
class BatchProvenance:
    """What produced a synthesized corpus, per sequence and in total."""

    engine: str
    config: SynthesisConfig
    count: int
    weights: tuple[float, ...]
    sequences: tuple[SequenceProvenance, ...]

    def fallback_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for sp in self.sequences:
            for key, value in sp.fallbacks.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "config": config_to_dict(self.config),
            "count": self.count,
            "weights": list(self.weights),
            "fallback_totals": self.fallback_totals(),
            "sequences": [
                {
                    "id": sp.id,
                    "ordinal": sp.ordinal,
                    "cluster": sp.cluster,
                    "fallbacks": dict(sp.fallbacks),
                }
                for sp in self.sequences
            ],
        }


def _resolve_assignment(
    corpus: Corpus, assignment
) -> np.ndarray | None:
    """Per-sequence cluster vector aligned to corpus order, or None."""
    if assignment is None:
        return None
    if isinstance(assignment, ClusterAssignment):
        if assignment.n != len(corpus):
            raise DataFormatError("assignment size does not match corpus")
        return assignment.labels
    labels = dict(assignment)
    missing = [i for i in corpus.ids if i not in labels]
    if missing:
        raise DataFormatError(f"assignment missing ids: {missing[:5]}")
    vec = np.array([int(labels[i]) for i in corpus.ids], dtype=np.int64)
    return ClusterAssignment.from_labels(vec).labels


# worker state lives at module level so forked workers inherit it without
# re-pickling; the spawn fallback rebuilds it in the initializer
_WORKER: dict = {}


def _engine_for(cluster: int) -> object:
    engines = _WORKER["engines"]
    if cluster not in engines:
        cls = _ENGINE_CLASSES[_WORKER["engine_name"]]
        engines[cluster] = cls(
            _WORKER["clusters"][cluster], _WORKER["config"], stream_key=cluster
        )
    return engines[cluster]


# caps a tvmc block's pre-drawn uniforms at about 3 MB for 1440-interval days
_BLOCK_ROWS = 256

# ordinals whose streams are alive at once; several blocks per window keep
# the per-cluster blocks of a clustered run full
_WINDOW_ROWS = 4 * _BLOCK_ROWS

# one stacked matrix per chunk keeps inter-process transfer cheap
_ChunkResult = tuple[list[int], np.ndarray, list[dict]]


def _worker_chunk(ordinals: Sequence[int]) -> _ChunkResult:
    """(cluster, states row, fallbacks) of each ordinal, in the given order."""
    config = _WORKER["config"]
    dtype = _WORKER["clusters"][0].alphabet.cell_dtype
    ords = list(ordinals)
    clusters: list[int] = []
    states = np.empty((len(ords), config.target_length), dtype=dtype)
    fallbacks: list = [None] * len(ords)
    for start in range(0, len(ords), _WINDOW_ROWS):
        rngs = [
            _stream(config.seed, _SEQUENCE_STREAM, o)
            for o in ords[start : start + _WINDOW_ROWS]
        ]
        if _WORKER["draw_cluster"]:
            drawn = [sample_cluster(_WORKER["weights"], rng) for rng in rngs]
        else:
            drawn = [0] * len(rngs)
        clusters.extend(drawn)
        rows_by_cluster: dict[int, list[int]] = {}
        for row, cluster in enumerate(drawn):
            rows_by_cluster.setdefault(cluster, []).append(row)
        for cluster, rows in rows_by_cluster.items():
            engine = _engine_for(cluster)
            for lo in range(0, len(rows), _BLOCK_ROWS):
                block = rows[lo : lo + _BLOCK_ROWS]
                results = engine.generate_many([rngs[r] for r in block])
                for row, result in zip(block, results):
                    states[start + row] = result.states
                    fallbacks[start + row] = result.fallbacks
    return clusters, states, fallbacks


def _worker_init(clusters, config, engine_name, weights, draw_cluster) -> None:
    _WORKER.clear()
    _WORKER.update(
        clusters=clusters,
        config=config,
        engine_name=engine_name,
        weights=weights,
        draw_cluster=draw_cluster,
        engines={},
    )


def synthesize_batch(
    corpus: Corpus,
    config: SynthesisConfig,
    count: int,
    engine: str = "paired-mc",
    assignment=None,
    weights=None,
    workers: int = 1,
    id_prefix: str = "synth",
) -> tuple[Corpus, BatchProvenance]:
    """Generate ``count`` sequences, optionally spread over clusters.

    With an assignment, each output first draws a cluster (weights
    default to cluster sizes) and then synthesizes from that cluster's
    sub-corpus.  Output ``i`` depends only on (corpus, config, i), so
    results are byte-identical for any ``workers`` value.
    """
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}")
    if count < 0:
        raise ConfigError("count must be non-negative")
    _check_engine_inputs(corpus, config)

    labels_vec = _resolve_assignment(corpus, assignment)
    if labels_vec is None:
        clusters = [corpus]
        cluster_weights = ClusterWeights(np.ones(1))
        draw_cluster = False
    else:
        k = int(labels_vec.max()) + 1
        clusters = [
            corpus.subset(np.flatnonzero(labels_vec == c)) for c in range(k)
        ]
        if weights is None:
            cluster_weights = ClusterWeights(
                np.bincount(labels_vec, minlength=k).astype(np.float64)
            )
        elif isinstance(weights, ClusterWeights):
            cluster_weights = weights
        else:
            cluster_weights = ClusterWeights(np.asarray(weights, dtype=np.float64))
        if cluster_weights.k != k:
            raise ConfigError(
                f"{cluster_weights.k} weights given for {k} clusters"
            )
        draw_cluster = True

    _worker_init(clusters, config, engine, cluster_weights, draw_cluster)
    if workers <= 1 or count == 0:
        chunk_results = [_worker_chunk(range(count))]
    else:
        # build every engine before the pool starts so forked workers
        # inherit them instead of rebuilding per process
        for c in range(len(clusters)):
            _engine_for(c)
        chunk_size = max(1, math.ceil(count / (workers * 4)))
        chunks = [
            range(lo, min(lo + chunk_size, count))
            for lo in range(0, count, chunk_size)
        ]
        try:
            ctx = multiprocessing.get_context("fork")
            init, initargs = None, ()
        except ValueError:
            ctx = multiprocessing.get_context("spawn")
            init = _worker_init
            initargs = (clusters, config, engine, cluster_weights, draw_cluster)
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=init, initargs=initargs
        ) as pool:
            chunk_results = list(pool.map(_worker_chunk, chunks))
    _WORKER.clear()

    # pool.map keeps chunk order, so the rows arrive in ordinal order
    ids = tuple(f"{id_prefix}-{ordinal:06d}" for ordinal in range(count))
    states = np.concatenate([chunk[1] for chunk in chunk_results])
    drawn = (c for chunk in chunk_results for c in chunk[0])
    fallbacks = (fb for chunk in chunk_results for fb in chunk[2])
    provenance = [
        SequenceProvenance(sid, ordinal, cluster, dict(fb))
        for ordinal, (sid, cluster, fb) in enumerate(zip(ids, drawn, fallbacks))
    ]
    out_corpus = Corpus(corpus.alphabet, states, ids, corpus.interval_minutes)
    batch = BatchProvenance(
        engine,
        config,
        count,
        tuple(float(w) for w in cluster_weights.weights),
        tuple(provenance),
    )
    return out_corpus, batch
