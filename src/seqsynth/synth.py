"""Sequence generation engines.

Two engines are provided:

* ``paired-mc`` - the paired state/duration engine.  Source sequences
  are run-length encoded into episode chains.  A day opens with a state
  drawn as the baseline draws its first interval and one of that
  state's observed opening durations; generation then alternates a
  state draw (from transitions observed within a clock-time window of
  the current end time, conditioned on the preceding one or more
  episode states) with a duration draw for the chosen state.  Source
  sequences are first extended by one window length with per-interval
  baseline steps so the window statistics near the end of the day are
  unbiased; generation runs to the extended horizon and the output is
  truncated back to the target length.  The :class:`CandidateIndex`
  sorts the transitions by full context and start time, so one windowed
  lookup serves a whole block of sequences, which advance in lockstep.

* ``tvmc`` - a time-varying Markov chain baseline that draws each
  interval's state conditioned on the previous interval's state and the
  clock time; a block of sequences is walked in lockstep too.

A clustered batch draws each sequence from one cluster's days.  The
cluster is one more key of the source model: the baseline counts
(opening states included), the opening and all_day duration pools and
the index records all carry it, so one engine serves every cluster, and
a block of consecutive ordinals advances in lockstep whatever its
clusters, each row reading only its own cluster's statistics.

Reproducibility contract: every output sequence is generated from an
independent random stream derived from ``(config.seed, ordinal)``, so a
batch is byte-identical for a given (corpus, config, count) regardless
of how many workers run it or how its sequences are grouped into blocks.
Every draw reads doubles of that stream in order (a clustered run spends
the first on the cluster): a position in a pool of n is
``floor(u * n)``, every categorical draw (a baseline interval, an
opening state, a two-stage state) is ``searchsorted(cum, u * total,
"right")`` over its cumulative counts, and Gaussian kde noise is
Box-Muller from two doubles, ``sqrt(-2 ln(1 - u1)) cos(2 pi u2)``.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .clustering import ClusterAssignment, ClusterWeights
from .core import Corpus, _finite, episode_table
from .errors import ConfigError, DataFormatError

__all__ = [
    "ENGINES",
    "MAX_ORDER",
    "SynthesisConfig",
    "config_from_dict",
    "config_to_dict",
    "TvmcModel",
    "Candidates",
    "CandidateIndex",
    "build_index",
    "silverman_bandwidth",
    "extend_with_buffer",
    "PairedMcEngine",
    "TvmcEngine",
    "BatchProvenance",
    "synthesize_batch",
]

ENGINES = ("paired-mc", "tvmc")
MAX_ORDER = 3
SAMPLERS = ("direct", "kde")
BUFFERS = ("tvmc", "none")
DURATION_POOLS = ("window", "all_day")

_WIDEN_FACTORS = (1, 2, 4)
# per-sequence fallback counts, in provenance order
_FALLBACKS = ("window_widened", "order_reduced", "tvmc_steps")
_WIDENED, _REDUCED, _TVMC_STEP = range(len(_FALLBACKS))
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
    if value is not None and not (_finite(value) and value > 0):
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
    # the other known keys are fields: the dataclass supplies the defaults
    # of those absent and rejects every bad value
    fields = {key: value for key, value in data.items() if key not in ("count", "weights")}
    sampler = fields.get("sampler")
    if isinstance(sampler, Mapping):
        _reject_unknown_keys(sampler, known["sampler"], "sampler.")
        rule = sampler.get("bandwidth_rule", "silverman")
        if rule not in (None, "silverman"):
            _check_bandwidth(rule)
            fields["kde_bandwidth"] = float(rule)
        del fields["sampler"]
        if "type" in sampler:
            fields["sampler"] = sampler["type"]
    cfg = SynthesisConfig(**fields)
    count = data.get("count")
    if count is not None:  # its sign is checked with the batch size
        _require_int("count", count)
    weights = data.get("weights")
    if weights is not None:
        ClusterWeights(weights)
    return cfg, count, weights


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

    ``fit(corpus, labels)`` counts each cluster's days apart: every array
    has a leading cluster axis, of size 1 without labels (every day in
    cluster 0).
    ``walk(start_states, t0, uniforms, cluster)`` advances every row in
    lockstep on its cluster's counts: row i starts from
    ``start_states[i]`` at interval ``t0 - 1`` and column k of
    ``uniforms`` draws its state at interval ``t0 + k`` given the state
    before it; ``t0`` and ``cluster`` are one value or one per row.
    Times at or past the sequence length reuse the statistics of ``t mod
    length``; the transition into interval 0 is estimated from the day
    wrap (last interval -> first interval).  When no transition was ever
    observed from a state at that time, the draw falls back to the
    marginal distribution of states observed at that interval, and the
    fallbacks are counted per row.  States come back in the corpus cell
    dtype.
    """

    def __init__(self, trans_cum, first_cum, marginal_cum, dtype):
        self.trans_cum = trans_cum  # (k, length, S, S)
        self.first_cum = first_cum  # (k, S)
        self.marginal_cum = marginal_cum  # (k, length, S)
        self.n_clusters, self.length, self.n_states = marginal_cum.shape
        self.dtype = dtype
        # one row per (cluster, interval, previous state) and per (cluster, interval)
        self._trans_rows = trans_cum.reshape(-1, self.n_states)
        self._marginal_rows = marginal_cum.reshape(-1, self.n_states)

    @classmethod
    def fit(cls, corpus: Corpus, labels: np.ndarray | None = None) -> "TvmcModel":
        mat = corpus.states_matrix
        length = corpus.length
        n_states = corpus.alphabet.size
        labels = _labels(corpus, labels)
        k = _cluster_count(labels)
        # flat cell index ((c*L + t)*S + prev)*S + cur, built in place in
        # one int64 matrix; prev[:, 0] wraps to the last interval
        flat = np.roll(mat, 1, axis=1).astype(np.int64)
        flat *= n_states
        flat += mat
        flat += np.arange(length) * (n_states * n_states)
        flat += (labels * (length * n_states * n_states))[:, None]
        first = labels * n_states + mat[:, 0]
        counts = np.bincount(
            flat.ravel(), minlength=k * length * n_states * n_states
        ).reshape(k, length, n_states, n_states)
        del flat
        marginal = counts.sum(axis=2)  # distribution of states at interval t
        # the cumulative sums overwrite the counts: one table at the peak
        np.cumsum(counts, axis=3, out=counts)
        np.cumsum(marginal, axis=2, out=marginal)
        first = np.bincount(first, minlength=k * n_states).reshape(k, n_states)
        return cls(counts, first.cumsum(axis=1), marginal, corpus.alphabet.cell_dtype)

    def walk(
        self, start_states: np.ndarray, t0, uniforms: np.ndarray, cluster=0
    ) -> tuple[np.ndarray, np.ndarray]:
        """States at ``t0 .. t0 + n_steps - 1`` and per-row fallback counts."""
        n_rows, n_steps = uniforms.shape
        states = np.empty((n_rows, n_steps), dtype=self.dtype)
        fallbacks = np.zeros(n_rows, dtype=np.int64)
        cur = np.asarray(start_states, dtype=np.int64)
        base = np.asarray(cluster, dtype=np.int64) * self.length
        for k in range(n_steps):
            at = base + (t0 + k) % self.length  # c*L + t
            rows = self._trans_rows[at * self.n_states + cur]  # fancy indexing copies
            missing = rows[:, -1] == 0
            if missing.any():
                marginal = np.broadcast_to(self._marginal_rows[at], rows.shape)
                rows[missing] = marginal[missing]
                fallbacks += missing
            cur = _categorical(rows, uniforms[:, k])
            states[:, k] = cur
        return states, fallbacks


def _labels(corpus: Corpus, labels: np.ndarray | None) -> np.ndarray:
    """``labels``, or every day of ``corpus`` in cluster 0 when None."""
    return np.zeros(len(corpus), dtype=np.int64) if labels is None else labels


def _cluster_count(labels: np.ndarray) -> int:
    """Clusters ``0 .. labels.max()`` of a label vector (one when it is empty)."""
    return int(labels.max(initial=0)) + 1


def _categorical(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each row of cumulative counts ``cum``, drawn by its uniform in ``u``.

    Counting the cumulative counts at most ``u * total`` is the right-side
    ``searchsorted``, so a category with no count never wins.  For integer
    counts, ``b <= u * total`` exactly when ``b <= floor(u * total)``.
    """
    return (cum <= (u * cum[:, -1])[:, None]).sum(axis=1)


def _pick(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Position ``floor(u * n)`` of each uniform in a pool of ``n >= 1``.

    ``u < 1`` keeps the position below ``n``: ``u * n`` rounds below ``n``
    for every pool of at most 2**53.
    """
    return (u * n).astype(np.int64)


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


def _context_key(n_states: int, horizon: int, n_clusters: int, a_c, context, m, cluster=0):
    """``key * horizon`` of each order-``m`` context (a_c, context[:m-1]) in ``cluster``.

    ``context`` rows list the preceding states, most recent first; entries
    past ``m - 1`` are ignored.  Keys run order first, then cluster, then
    context, so the keys of one order fill one range and never collide
    with another order's or another cluster's.
    """
    m = np.asarray(m)
    sizes = n_states ** np.arange(1, MAX_ORDER + 1)  # contexts of each order
    firsts = n_clusters * np.concatenate(([0], np.cumsum(sizes[:-1])))
    key = firsts[m - 1] + cluster * sizes[m - 1] + a_c
    weight = n_states
    for j in range(context.shape[1]):
        key = key + np.where(m > j + 1, context[:, j] * weight, 0)
        weight *= n_states
    return key * horizon


class CandidateIndex:
    """Observed transitions keyed by their cluster and full preceding context.

    One record exists per episode that has a predecessor: its state and
    duration.  For each order m up to ``order``, every record with at
    least m predecessors is listed under the key (cluster, prev1, ...,
    prevm), sorted by (key, start) with ties in row-major order; the
    cluster is the record's row's, 0 without labels.  All orders share
    one sorted int64 array of ``key * horizon + start``, in which each
    order's keys are one run, so the windows of any number of queries are
    two vectorized binary searches, each giving a contiguous range
    ``[lo, hi)`` of ``records``.

    The by-state pools of the two-stage draws, ``by_state`` and
    ``window_pool``, are built on first use and live as long as the index.
    """

    def __init__(
        self, keys, records, states, durations, n_states, horizon, delta, order, n_clusters=1
    ):
        self.keys = keys
        self.records = records
        self.states = states
        self.durations = durations
        self.n_states = n_states
        self.horizon = horizon
        self.delta = delta
        self.order = order
        self.n_clusters = n_clusters

    @property
    def n_records(self) -> int:
        return int(self.states.size)

    @cached_property
    def by_state(self) -> np.ndarray:
        """Index positions grouped by record state, ``state * span + position``.

        A state's records in a window ``[lo, hi)`` are one contiguous run of it.
        """
        span = self.records.size
        return np.sort(self.states[self.records] * span + np.arange(span))

    @cached_property
    def window_pool(self) -> _Pool:
        """Record durations in ``by_state`` order."""
        return _Pool(self.durations[self.records[self.by_state % self.records.size]])

    def context_key(self, a_c, context, m, cluster=0) -> np.ndarray:
        return _context_key(
            self.n_states, self.horizon, self.n_clusters, a_c, context, m, cluster
        )

    def window(self, key, t, half_width) -> tuple[np.ndarray, np.ndarray]:
        """``[lo, hi)`` of the records under ``key`` with |start - t| <= half_width.

        Both ends are clipped to ``[0, horizon]``: starts lie in
        ``[1, horizon)``, so a window never spills into a neighbouring key.
        ``hi <= lo`` means no candidate.
        """
        first, last = np.clip((t - half_width, t + half_width), 0, self.horizon)
        return (
            np.searchsorted(self.keys, key + first, side="left"),
            np.searchsorted(self.keys, key + last, side="right"),
        )

    def candidates(
        self,
        a_c: int,
        context: Sequence[int] = (),
        t_c: int = 0,
        delta: int | None = None,
        order: int = 1,
        cluster: int = 0,
    ) -> Candidates:
        """All records of ``cluster`` with |start - t_c| <= delta whose predecessors match.

        ``context`` lists the states before the current one, most recent
        first; order k uses up to k-1 of them.  Records that do not have
        enough predecessors to check a requested context entry are
        excluded.
        """
        if not 1 <= order <= MAX_ORDER:
            raise ConfigError(f"order must be in [1, {MAX_ORDER}]")
        if any(int(c) < 0 for c in context):
            raise ConfigError("context states must be non-negative")
        if not 0 <= cluster < self.n_clusters:
            raise ConfigError(f"cluster must be in [0, {self.n_clusters}), got {cluster}")
        m = min(order, 1 + len(context))
        if m > self.order:
            raise ConfigError(f"index holds contexts up to order {self.order}")
        ctx = [int(c) for c in context[: m - 1]]
        # a state outside the alphabet has no records (and would alias a key)
        if not all(0 <= s < self.n_states for s in [int(a_c)] + ctx):
            return _EMPTY_CANDIDATES
        key = self.context_key(np.array([a_c]), np.array([ctx], dtype=np.int64), m, cluster)
        lo, hi = self.window(key, t_c, self.delta if delta is None else delta)
        recs = self.records[lo[0] : hi[0]]
        return Candidates(self.states[recs], self.durations[recs])


def build_index(
    corpus: Corpus,
    delta: int,
    order: int = MAX_ORDER,
    labels: np.ndarray | None = None,
    base: CandidateIndex | None = None,
) -> CandidateIndex:
    """Index every transition in the corpus for windowed lookup up to ``order``.

    Each record is keyed by its row's cluster too (cluster 0 for every row
    without ``labels``), so a query sees its own cluster's records only.
    ``base``, an index of the same corpus and labels at a lower order,
    keeps its runs: only the runs of the orders above it are built and
    appended.
    """
    if len(corpus) == 0:
        raise DataFormatError("cannot index an empty corpus")
    n_states, horizon = corpus.alphabet.size, corpus.length
    labels = _labels(corpus, labels)
    k = _cluster_count(labels)
    if k * sum(n_states**m for m in range(1, order + 1)) * horizon >= 2**63:
        raise DataFormatError(
            f"{n_states} states in {k} cluster(s) are too many to index at order {order}"
        )
    rows, ep_starts, ep_states, ep_durs = episode_table(corpus.states_matrix)

    def earlier(j: int) -> np.ndarray:
        """State of the episode j before each one in its row, else -1."""
        out = np.full(ep_states.size, -1, dtype=np.int64)
        same_row = rows[j:] == rows[:-j]
        out[j:][same_row] = ep_states[:-j][same_row]
        return out

    # one record per episode that has a predecessor, in row-major order
    records = np.flatnonzero(ep_starts > 0)
    prev = np.stack([earlier(j)[records] for j in range(1, order + 1)], axis=1)
    starts = ep_starts[records]
    cluster = labels[rows[records]]
    keys, perms = ([], []) if base is None else ([base.keys], [base.records])
    for m in range(1 if base is None else base.order + 1, order + 1):
        has = np.flatnonzero(prev[:, m - 1] >= 0)
        key = _context_key(
            n_states, horizon, k, prev[has, 0], prev[has, 1:], m, cluster[has]
        ) + starts[has]
        # the stable sort keeps ties in row-major order
        by_key = np.argsort(key, kind="stable")
        keys.append(key[by_key])
        perms.append(has[by_key])
    return CandidateIndex(
        np.concatenate(keys),
        np.concatenate(perms),
        ep_states[records],
        ep_durs[records],
        n_states,
        horizon,
        delta,
        order,
        k,
    )


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


def extend_with_buffer(
    corpus: Corpus, model: TvmcModel, delta: int, streams, labels: np.ndarray | None = None
) -> Corpus:
    """Continue every sequence for ``delta`` intervals with baseline steps.

    ``model`` is the baseline fitted to ``corpus`` and ``labels`` (every
    day in cluster 0 when None).  Transition statistics for times past the
    end of the day wrap around (interval ``t`` reuses the statistics of
    ``t mod length``).  The original prefix of each sequence is unchanged.
    ``streams`` holds one stream per cluster (one without labels), and the
    sequences of cluster c, in corpus order, walk on the rows of one
    uniform draw of ``streams[c]``.
    """
    if delta == 0:
        return corpus
    mat = corpus.states_matrix
    labels = _labels(corpus, labels)
    uniforms = np.empty((len(corpus), delta))
    sizes = np.bincount(labels, minlength=len(streams)).tolist()
    uniforms[np.argsort(labels, kind="stable")] = np.concatenate(
        [stream.random((size, delta)) for stream, size in zip(streams, sizes)]
    )
    ext, _ = model.walk(mat[:, -1], corpus.length, uniforms, labels)
    return replace(corpus, states_matrix=np.hstack((mat, ext)))


class _Pool:
    """Durations laid out so that every duration pool is one slice of ``values``.

    With ``bounds``, the pool of state s in cluster c (its opening or its
    all_day durations) is ``values[bounds[g]:bounds[g + 1]]`` with
    ``g = c * n_states + s``; without, a state's window pool is its slice
    of the index durations in by-state order.  Silverman's bandwidth of a
    slice is a function of the slice alone, so it is computed once per
    ``(start, size)``; the memo gains at most one entry per kde draw.
    """

    def __init__(self, values: np.ndarray, bounds: np.ndarray | None = None):
        self.values = values
        self.bounds = bounds
        self._silverman: dict[tuple[int, int], float] = {}

    def group(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(start, size)`` of the slice of each group in ``g``."""
        start = self.bounds[g]
        return start, self.bounds[g + 1] - start

    def silverman(self, start: np.ndarray, size: np.ndarray) -> np.ndarray:
        """Silverman's bandwidth of each slice ``values[start:start + size]``."""
        memo = self._silverman
        pools = list(zip(start.tolist(), size.tolist()))
        for lo, n in set(pools).difference(memo):
            memo[lo, n] = silverman_bandwidth(self.values[lo : lo + n])
        return np.array([memo[p] for p in pools], dtype=np.float64)


class _Slot(NamedTuple):
    """A buffered corpus and its index; ``buffered`` is None for the source itself."""

    key: tuple
    buffered: Corpus | None
    index: CandidateIndex


class _Source:
    """The source-side model of one corpus and one label vector.

    :func:`_source` keeps one per corpus object, for the labels of the
    latest engine built over it.  The labels are fixed when the source is
    made; an unclustered corpus is one cluster, every day in cluster 0.
    Every part is built the first time an engine asks for it, and keys
    its counts, episodes and records by cluster; an engine is only a view
    of these parts:

    * the fitted :class:`TvmcModel`, whose opening-state counts pick a
      day's opening state;
    * two duration pools grouped by cluster and state: ``first``, the
      durations of each day's opening episode, and ``all_day``, those of
      every episode;
    * one slot: the buffered corpus of one ``(delta, seed)`` (``delta``
      alone without a buffer) and its :class:`CandidateIndex`, built at
      the highest order asked for so far.  Each order's keys are their
      own sorted run, so a lower order finds the same ``[lo, hi)`` and
      records in a higher-order index, and a higher order appends its
      runs to the index over the same buffered corpus.  Another key
      replaces the slot.  The index keeps its own by-state pools, so they
      go with it.

    Other labels make a new source, which replaces this one with all its
    parts.  Sharing is sound because a ``Corpus`` is frozen and owns a
    read-only matrix.  The source holds only a weak reference to its
    corpus, which holds the source, so the two are freed together.
    Memory: the model and pools live as long as the corpus and its
    labels.  The slot outlives the batch that built it, so between
    batches memory holds at most one buffered corpus and index per corpus
    beyond what a fresh build holds, whatever the number of clusters.  A
    replaced slot is released before its successor is built, and an
    extended index holds only the lower orders' runs that its successor
    copies, so a build's peak does not grow.
    """

    def __init__(self, corpus: Corpus, labels: np.ndarray):
        self._corpus = weakref.ref(corpus)
        self.labels = labels
        self.n_clusters = _cluster_count(labels)
        self._slot: _Slot | None = None

    @cached_property
    def tvmc(self) -> TvmcModel:
        return TvmcModel.fit(self._corpus(), self.labels)

    @cached_property
    def first(self) -> _Pool:
        return self._durations(opening=True)

    @cached_property
    def all_day(self) -> _Pool:
        return self._durations(opening=False)

    def _durations(self, opening: bool) -> _Pool:
        """Episode durations grouped by ``cluster * n_states + state``, in row order.

        ``opening`` keeps only each day's first episode.
        """
        corpus = self._corpus()
        n_states = corpus.alphabet.size
        rows, starts, states, durations = episode_table(corpus.states_matrix)
        if opening:
            first = starts == 0  # one per row
            rows, states, durations = rows[first], states[first], durations[first]
        groups = self.labels[rows] * n_states + states
        counts = np.bincount(groups, minlength=self.n_clusters * n_states)
        bounds = np.concatenate(([0], counts.cumsum()))
        return _Pool(durations[np.argsort(groups, kind="stable")], bounds)

    def slot(self, config: SynthesisConfig) -> _Slot:
        """The slot for ``config``'s buffer, indexed up to at least its order."""
        buffered = config.buffer == "tvmc" and config.delta > 0
        key = (config.delta, config.seed) if buffered else (config.delta,)
        slot, self._slot = self._slot, None
        ext = base = None
        if slot is not None and slot.key == key:
            if slot.index.order >= config.order:
                self._slot = slot
                return slot
            ext, base = slot.buffered, slot.index
        del slot  # a replaced index goes before the new one is built
        corpus = self._corpus()
        if buffered and ext is None:
            streams = [_stream(config.seed, _BUFFER_STREAM, c) for c in range(self.n_clusters)]
            ext = extend_with_buffer(corpus, self.tvmc, config.delta, streams, self.labels)
        index = build_index(
            corpus if ext is None else ext, config.delta, config.order, self.labels, base
        )
        self._slot = _Slot(key, ext, index)
        return self._slot


def _source(corpus: Corpus, labels=None) -> _Source:
    """The shared source model of ``corpus`` for ``labels`` (None: every day in cluster 0).

    The corpus keeps one source, returned when its labels are equal and
    otherwise replaced by a new source for these labels.
    """
    if labels is not None:
        if len(labels) != len(corpus):
            raise DataFormatError("cluster labels do not match the corpus size")
        labels = ClusterAssignment(labels).labels
    labels = _labels(corpus, labels)
    source = corpus.__dict__.get("_synth_source")
    if source is None or not np.array_equal(source.labels, labels):
        source = _Source(corpus, labels)
        object.__setattr__(corpus, "_synth_source", source)
    return source


# doubles read ahead per row of a paired-mc block; any width gives the same output
_WIDTH = 64


class _Uniforms:
    """One row per stream: row r's k-th ``take`` is the k-th double of ``rngs[r]``.

    A row reads its stream ``_WIDTH`` doubles at a time into one block
    buffer, and refills alone when its cursor reaches the end.
    """

    def __init__(self, rngs: Sequence[np.random.Generator]):
        self.rngs = rngs
        self.n_rows = len(rngs)
        self.buffer = np.empty((self.n_rows, _WIDTH))
        self.cursor = np.full(self.n_rows, _WIDTH, dtype=np.int64)
        # each stream's state before its latest refill, for release
        self.saved: list = [None] * self.n_rows

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next double of each of the distinct ``rows``."""
        cursor = self.cursor[rows]
        spent = cursor == self.buffer.shape[1]
        for r in rows[spent].tolist():
            rng = self.rngs[r]
            self.saved[r] = rng.bit_generator.state
            rng.random(out=self.buffer[r])
        cursor[spent] = 0
        self.cursor[rows] = cursor + 1
        return self.buffer[rows, cursor]

    def release(self) -> None:
        """Rewind each stream to just past the doubles its row took."""
        for rng, state, used in zip(self.rngs, self.saved, self.cursor.tolist()):
            if state is not None:
                rng.bit_generator.state = state
                rng.random(used)


def _check_engine_inputs(corpus: Corpus, config: SynthesisConfig) -> None:
    if len(corpus) == 0:
        raise DataFormatError("cannot synthesize from an empty corpus")
    if corpus.length != config.target_length:
        raise DataFormatError(
            f"target_length {config.target_length} does not match corpus "
            f"length {corpus.length}"
        )


def _row_clusters(n_rows: int, clusters, n_clusters: int) -> np.ndarray:
    """The cluster of each of ``n_rows`` rows; None puts every row in cluster 0."""
    if clusters is None:
        return np.zeros(n_rows, dtype=np.int64)
    clusters = np.asarray(clusters, dtype=np.int64)
    if clusters.shape != (n_rows,) or not (
        n_rows == 0 or 0 <= clusters.min() <= clusters.max() < n_clusters
    ):
        raise ConfigError(f"clusters must give one cluster in [0, {n_clusters}) per stream")
    return clusters


class PairedMcEngine:
    """Windowed episode-resampling generator built from one corpus.

    The engine is a view of the corpus's shared source model
    (:class:`_Source`) for ``labels`` (one cluster without): the
    per-interval baseline used by the buffer and the fallback ladder, whose
    opening-state counts also open every day, the opening durations, and
    the index of every observed transition of the buffered corpus up to
    (at least) the configured order, each keyed by cluster.

    ``generate_many`` advances the sequences of a batch of independent
    random streams in lockstep, whatever their clusters.  Each step runs
    one pass of the fallback ladder (order k down to 1, each order
    through the widened windows) over the unfinished sequences, then
    draws for all of them in one array step: a uniform record of its
    candidate range (direct sampler, windowed durations), a state by its
    multiplicity and then a duration for it otherwise, or one baseline
    interval when no rung has a candidate.  A sequence reads only its own
    cluster's statistics, and its k-th draw reads the k-th double of its
    own stream, so its output depends only on that stream and cluster,
    never on the rest of the batch, the block size or the buffer width.
    """

    fallback_names = _FALLBACKS

    def __init__(self, corpus: Corpus, config: SynthesisConfig, labels=None):
        _check_engine_inputs(corpus, config)
        self.config = config
        self.n = corpus.length
        source = _source(corpus, labels)
        self.tvmc = source.tvmc
        self.first = source.first
        self.index = source.slot(config).index
        self.stop = self.index.horizon  # the day length, plus delta when buffered
        # every widened window is tried before dropping an order
        self._widen = (1,) if config.delta == 0 else _WIDEN_FACTORS
        self._by_state = None
        if config.sampler != "direct" or config.duration_pool == "all_day":
            self._by_state = self.index.by_state
            all_day = config.duration_pool == "all_day"
            self._pool = source.all_day if all_day else self.index.window_pool

    def generate_many(
        self, rngs: Sequence[np.random.Generator], clusters=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One sequence per stream, in order: ``(states, fallbacks)``.

        Row i is drawn from cluster ``clusters[i]`` (0 for every row when
        None).  ``states`` is ``(len(rngs), target_length)`` in the corpus
        cell dtype; ``fallbacks`` counts each row's fallbacks in the
        columns named by ``fallback_names``.  Each stream is left just
        past the doubles its sequence used.
        """
        index = self.index
        uniforms = _Uniforms(rngs)
        n_rows = uniforms.n_rows
        cluster = _row_clusters(n_rows, clusters, self.tvmc.n_clusters)
        every = np.arange(n_rows)
        cur, end = self._opening(uniforms.take(every), uniforms.take(every), cluster)
        episodes = [(every, cur.copy(), np.zeros(n_rows, dtype=np.int64))]
        # preceding states, most recent first; depth counts the episodes before
        context = np.zeros((n_rows, MAX_ORDER - 1), dtype=np.int64)
        depth = np.zeros(n_rows, dtype=np.int64)
        fallbacks = np.zeros((n_rows, len(_FALLBACKS)), dtype=np.int64)

        live = np.flatnonzero(end < self.stop)
        while live.size:
            lo, hi, rung = self._ladder(
                cur[live], context[live], depth[live], end[live], cluster[live]
            )
            counted = rung >= 0
            fallbacks[live[counted], rung[counted]] += 1
            found = hi > lo
            nxt = np.empty(live.size, dtype=np.int64)
            dur = np.ones(live.size, dtype=np.int64)
            hits = np.flatnonzero(found)
            if self._by_state is None:
                # uniform record draw == state-by-multiplicity then
                # duration-within-state when both use the windowed set
                pos = _pick(uniforms.take(live[hits]), (hi - lo)[hits])
                recs = index.records[lo[hits] + pos]
                nxt[hits], dur[hits] = index.states[recs], index.durations[recs]
            else:
                nxt[hits], dur[hits] = self._two_stage(
                    uniforms, live[hits], lo[hits], hi[hits], cluster[live[hits]]
                )
            miss = np.flatnonzero(~found)
            if miss.size:
                # final resort: a single baseline interval, then resume
                rows = live[miss]
                u = uniforms.take(rows)[:, None]
                nxt[miss] = self.tvmc.walk(cur[rows], end[rows], u, cluster[rows])[0][:, 0]

            # a baseline step that keeps the state lengthens the episode
            grow = live[~found & (nxt == cur[live])]
            end[grow] += 1
            moved = found | (nxt != cur[live])
            rows = live[moved]
            episodes.append((rows, nxt[moved], end[rows]))
            context[rows, 1:] = context[rows, :-1]
            context[rows, 0] = cur[rows]
            depth[rows] += 1
            cur[rows] = nxt[moved]
            end[rows] += dur[moved]
            live = live[end[live] < self.stop]
        uniforms.release()

        # each step recorded the (rows, states, starts) of the episodes it began
        rows, states, starts = (np.concatenate(part) for part in zip(*episodes))
        # steps run in time order, so a stable sort by row keeps each row's
        # episodes in start order; an episode past the day gets no interval
        by_row = np.argsort(rows, kind="stable")
        flat = rows[by_row] * self.n + np.minimum(starts[by_row], self.n)
        durations = np.diff(flat, append=n_rows * self.n)
        states = states[by_row].astype(self.tvmc.dtype)
        return np.repeat(states, durations).reshape(n_rows, self.n), fallbacks

    def _opening(self, u_state, u_pos, cluster) -> tuple[np.ndarray, np.ndarray]:
        """Opening states by their count in each row's cluster, then a duration of each.

        Row i reads ``u_state[i]`` for its state, as the baseline draws its
        first interval, and ``u_pos[i]`` for a position among that state's
        opening durations in cluster ``cluster[i]``.
        """
        state = _categorical(self.tvmc.first_cum[cluster], u_state)
        start, size = self.first.group(cluster * self.index.n_states + state)
        return state, self.first.values[start + _pick(u_pos, size)]

    def _two_stage(self, uniforms, rows, lo, hi, cluster) -> tuple[np.ndarray, np.ndarray]:
        """A state by its multiplicity in each ``[lo, hi)``, then its duration.

        Row i draws from the next doubles of ``rows[i]``: one for the state,
        one for a position in that state's duration pool, then two for the
        kde noise when the bandwidth is positive.  A window pool is the
        state's records in ``[lo, hi)`` in index order; the all_day pool is
        every episode of the state in the row's cluster.
        """
        n_states = self.index.n_states
        span = self.index.records.size
        base = np.arange(n_states) * span
        first = np.searchsorted(self._by_state, base + lo[:, None])
        counts = np.searchsorted(self._by_state, base + hi[:, None]) - first
        state = _categorical(counts.cumsum(axis=1), uniforms.take(rows))
        pool = self._pool
        if pool.bounds is None:
            row = np.arange(state.size)
            start, size = first[row, state], counts[row, state]
        else:
            start, size = pool.group(cluster * n_states + state)
        dur = pool.values[start + _pick(uniforms.take(rows), size)]
        if self.config.sampler == "kde":
            if self.config.kde_bandwidth is None:
                h = pool.silverman(start, size)
            else:
                h = np.full(dur.size, float(self.config.kde_bandwidth))
            noisy = np.flatnonzero(h > 0.0)
            u1 = uniforms.take(rows[noisy])
            u2 = uniforms.take(rows[noisy])
            z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
            dur[noisy] = np.rint(dur[noisy] + h[noisy] * z)
            dur = np.maximum(dur, 1)
        return state, dur

    def _ladder(self, cur, context, depth, t, cluster):
        """Candidate range ``[lo, hi)`` of each query from its first rung that has one.

        Rungs run from the configured order down to 1, each order through
        the widened windows; every query reads its own cluster's records.
        ``rung`` is the fallback column the hit counts under (-1 for the
        first rung); ``hi == lo`` leaves the query to the baseline step,
        counted as ``tvmc_steps``.
        """
        order, delta = self.config.order, self.config.delta
        lo = np.zeros(cur.size, dtype=np.int64)
        hi = np.zeros(cur.size, dtype=np.int64)
        rung = np.full(cur.size, _TVMC_STEP, dtype=np.int64)
        todo = np.arange(cur.size)
        for k in range(order, 0, -1):
            if not todo.size:
                break
            # a context shorter than k - 1 states is matched at its own order
            m = np.minimum(k, depth[todo] + 1)
            key = self.index.context_key(cur[todo], context[todo], m, cluster[todo])
            for w in self._widen:
                first, last = self.index.window(key, t[todo], delta * w)
                hit = last > first
                done = todo[hit]
                lo[done], hi[done] = first[hit], last[hit]
                rung[done] = _REDUCED if k < order else (_WIDENED if w > 1 else -1)
                todo, key = todo[~hit], key[~hit]
                if not todo.size:
                    break
        return lo, hi, rung


class TvmcEngine:
    """Per-interval baseline generator (time-varying Markov chain).

    A batch of streams is walked in lockstep, each on its cluster's
    counts: each stream supplies one uniform row, whose first value draws
    the opening state and the rest the following intervals.
    """

    fallback_names = ("marginal",)

    def __init__(self, corpus: Corpus, config: SynthesisConfig, labels=None):
        _check_engine_inputs(corpus, config)
        self.config = config
        self.n = corpus.length
        self.tvmc = _source(corpus, labels).tvmc

    def generate_many(
        self, rngs: Sequence[np.random.Generator], clusters=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One sequence per stream, in order: ``(states, fallbacks)``, as for paired-mc."""
        cluster = _row_clusters(len(rngs), clusters, self.tvmc.n_clusters)
        u = np.empty((len(rngs), self.n))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        states = np.empty(u.shape, dtype=self.tvmc.dtype)
        states[:, 0] = _categorical(self.tvmc.first_cum[cluster], u[:, 0])
        states[:, 1:], fallbacks = self.tvmc.walk(states[:, 0], 1, u[:, 1:], cluster)
        return states, fallbacks[:, None]


_ENGINE_CLASSES = {"paired-mc": PairedMcEngine, "tvmc": TvmcEngine}


@dataclass(frozen=True)
class BatchProvenance:
    """What produced a synthesized corpus, per sequence and in total.

    Sequence ``i`` has ordinal ``i``, id ``ids[i]``, cluster ``clusters[i]``
    and the fallback counts ``fallbacks[i]``, one column per name in
    ``fallback_names``.
    """

    engine: str
    config: SynthesisConfig
    count: int
    weights: tuple[float, ...]
    ids: tuple[str, ...]
    clusters: np.ndarray
    fallback_names: tuple[str, ...]
    fallbacks: np.ndarray

    def fallback_totals(self) -> dict[str, int]:
        if not self.count:
            return {}
        return dict(zip(self.fallback_names, self.fallbacks.sum(axis=0).tolist()))

    def to_dict(self) -> dict:
        names = self.fallback_names
        return {
            "engine": self.engine,
            "config": config_to_dict(self.config),
            "count": self.count,
            "weights": list(self.weights),
            "fallback_totals": self.fallback_totals(),
            "sequences": [
                {
                    "id": sid,
                    "ordinal": ordinal,
                    "cluster": cluster,
                    "fallbacks": dict(zip(names, row)),
                }
                for ordinal, (sid, cluster, row) in enumerate(
                    zip(self.ids, self.clusters.tolist(), self.fallbacks.tolist())
                )
            ],
        }


def _resolve_assignment(corpus: Corpus, assignment) -> ClusterAssignment | None:
    """``assignment`` in corpus order, or None; an id -> label mapping is renumbered 0..k-1."""
    if assignment is None:
        return None
    if not isinstance(assignment, ClusterAssignment):
        labels = dict(assignment)
        missing = [i for i in corpus.ids if i not in labels]
        if missing:
            raise DataFormatError(f"assignment missing ids: {missing[:5]}")
        assignment = ClusterAssignment.from_labels([labels[i] for i in corpus.ids])
    if assignment.n != len(corpus):
        raise DataFormatError("assignment size does not match corpus")
    return assignment


# the batch's engine and cluster weights; the pool's initializer sets them in
# each worker, from its own memory under fork and unpickled under spawn
_WORKER: dict = {}


# rows generated in lockstep, consecutive ordinals whatever their clusters;
# only one block's streams are alive at once, and a tvmc block's pre-drawn
# uniforms take about 3 MB for 1440-interval days
_BLOCK_ROWS = 256

# the most cells (count x target_length) one batch may hold; its matrix
# takes one byte a cell for up to 128 states, so about 1 GiB, and each
# sequence adds under 1 KB of id and provenance
_MAX_BATCH_CELLS = 2**30

# the pool starts all its workers at once, one forked process each, so a
# worker count far beyond any host's cores would only exhaust processes
_MAX_WORKERS = 64


def _check_workers(name: str, workers) -> None:
    """Reject a worker count that is not an integer in ``[1, _MAX_WORKERS]``."""
    _require_int(name, workers)
    if workers < 1:
        raise ConfigError(f"{name} must be at least 1, got {workers!r}")
    if workers > _MAX_WORKERS:
        raise ConfigError(f"{name} must be at most {_MAX_WORKERS}, got {workers!r}")


def _check_batch_size(count: int, target_length: int) -> None:
    """Reject a negative count, or a batch above ``_MAX_BATCH_CELLS`` cells."""
    if count < 0:
        raise ConfigError("count must be non-negative")
    if count * target_length > _MAX_BATCH_CELLS:
        raise ConfigError(
            f"count {count} x target_length {target_length} is more than "
            f"{_MAX_BATCH_CELLS} cells in one batch"
        )


def _worker_chunk(ordinals: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(clusters, states, fallbacks) of the ordinals, one row each, in order."""
    engine, weights = _WORKER["engine"], _WORKER["weights"]
    seed = engine.config.seed
    ords = list(ordinals)
    clusters = np.zeros(len(ords), dtype=np.int64)
    states = np.empty((len(ords), engine.n), dtype=engine.tvmc.dtype)
    fallbacks = np.empty((len(ords), len(engine.fallback_names)), dtype=np.int64)
    # blocks of consecutive ordinals, whatever their clusters
    for lo in range(0, len(ords), _BLOCK_ROWS):
        rngs = [_stream(seed, _SEQUENCE_STREAM, o) for o in ords[lo : lo + _BLOCK_ROWS]]
        at = slice(lo, lo + len(rngs))
        if weights is not None:
            clusters[at] = weights.choose(np.array([rng.random() for rng in rngs]))
        states[at], fallbacks[at] = engine.generate_many(rngs, clusters[at])
    return clusters, states, fallbacks


def _worker_init(engine, weights) -> None:
    """``weights`` is None for a batch without a cluster assignment."""
    _WORKER.update(engine=engine, weights=weights)


def _run_chunks(engine, weights, count: int, workers: int):
    """(clusters, states, fallbacks) of ordinals ``0..count-1`` from one built engine."""
    initargs = (engine, weights)
    _worker_init(*initargs)
    try:
        if workers == 1:
            chunk_results = [_worker_chunk(range(count))]
        else:
            chunk_size = max(1, math.ceil(count / (workers * 4)))
            chunks = [
                range(lo, min(lo + chunk_size, count))
                for lo in range(0, count, chunk_size)
            ]
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = multiprocessing.get_context("spawn")
            # a worker's full collection would otherwise visit, and so copy,
            # every object it inherits; a caller's own freeze is left alone
            thaw = gc.get_freeze_count() == 0
            if thaw:
                gc.freeze()
            try:
                # every worker starts at once, so none is started without a chunk
                with ProcessPoolExecutor(
                    min(workers, len(chunks)), mp_context=ctx, initializer=_worker_init,
                    initargs=initargs,
                ) as pool:
                    chunk_results = list(pool.map(_worker_chunk, chunks))
            finally:
                if thaw:
                    gc.unfreeze()
    finally:  # a failed batch must not pin the corpus until the next one
        _WORKER.clear()
    # pool.map keeps chunk order, so the rows arrive in ordinal order
    return tuple(np.concatenate(part) for part in zip(*chunk_results))


def synthesize_batch(
    corpus: Corpus,
    config: SynthesisConfig,
    count: int,
    engine: str = "paired-mc",
    assignment=None,
    weights=None,
    workers: int = 1,
) -> tuple[Corpus, BatchProvenance]:
    """Generate ``count`` sequences, optionally spread over clusters.

    With an assignment, each output first draws a cluster (weights
    default to cluster sizes; without an assignment, weights are an
    error) and then synthesizes from that cluster's days.  Output
    ``i`` depends only on (corpus, config, i), so results are
    byte-identical for any ``workers`` value from 1 to 64.
    """
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}")
    _check_workers("workers", workers)
    _check_batch_size(count, config.target_length)
    _check_engine_inputs(corpus, config)

    assignment = _resolve_assignment(corpus, assignment)
    labels = None
    if assignment is None:
        if weights is not None:
            raise ConfigError("weights need a cluster assignment")
    else:
        labels, k = assignment.labels, assignment.k
        if weights is None:
            weights = ClusterWeights.from_assignment(assignment)
        elif not isinstance(weights, ClusterWeights):
            weights = ClusterWeights(weights)
        if weights.k != k:
            raise ConfigError(f"{weights.k} weights given for {k} clusters")

    cls = _ENGINE_CLASSES[engine]
    if count == 0:  # an empty batch builds no engine
        drawn, states = np.zeros(0, dtype=np.int64), np.zeros((0, 0))
        fallbacks = np.zeros((0, len(cls.fallback_names)), dtype=np.int64)
    else:
        drawn, states, fallbacks = _run_chunks(
            cls(corpus, config, labels), weights, count, workers
        )
    ids = tuple(f"synth-{ordinal:06d}" for ordinal in range(count))
    out_corpus = Corpus(corpus.alphabet, states, ids, corpus.interval_minutes)
    batch = BatchProvenance(
        engine,
        config,
        count,
        (1.0,) if weights is None else tuple(float(w) for w in weights.weights),
        ids,
        drawn,
        cls.fallback_names,
        fallbacks,
    )
    return out_corpus, batch
