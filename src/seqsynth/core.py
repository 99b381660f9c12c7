"""Categorical sequence types, run-length coding, and preprocessing.

A sequence is a fixed-length vector of alphabet indices, one entry per
sampling interval (e.g. 1440 one-minute slots for a day).  The episode
view chains (state, duration) pairs; both views round-trip losslessly
through :func:`rle_encode` / :func:`rle_decode`.  Continuous series
(e.g. accelerometer counts per minute) become interval sequences via
rolling-mean smoothing and threshold discretization.

A :class:`Corpus` stores its sequences as one read-only (n_sequences,
length) matrix of small integers (``StateAlphabet.cell_dtype``) plus
one id per row; :func:`episode_table` lists the episodes of every row
at once.  The single-sequence types (:class:`IntervalSequence`,
:class:`EpisodeSequence`) serve callers that handle one day at a time.

All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError

__all__ = [
    "StateAlphabet",
    "IntervalSequence",
    "Episode",
    "EpisodeSequence",
    "Corpus",
    "ContinuousSeries",
    "rle_encode",
    "rle_decode",
    "run_bounds",
    "episode_table",
    "smooth_rolling",
    "discretize",
    "discretize_corpus",
    "threshold_alphabet",
]


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateAlphabet:
    """Ordered collection of distinct state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise DataFormatError("alphabet must contain at least one label")
        if any(not lab for lab in labels):
            raise DataFormatError("state labels must be non-empty strings")
        if len(set(labels)) != len(labels):
            raise DataFormatError("state labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def cell_dtype(self) -> np.dtype:
        """Smallest signed integer type that holds every state index."""
        # a signed type holds size - 1 exactly when it holds -size
        return np.min_scalar_type(-self.size)

    @cached_property
    def _lookup(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._lookup[label]
        except KeyError:
            raise DataFormatError(f"unknown state label {label!r}") from None

    def label(self, index: int) -> str:
        return self.labels[index]

    def __contains__(self, label: str) -> bool:
        return label in self._lookup

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class IntervalSequence:
    """Fixed-length vector of alphabet indices, one per sampling interval."""

    states: np.ndarray
    interval_minutes: int = 1
    id: str | None = None

    def __post_init__(self):
        arr = _frozen_array(self.states, np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise DataFormatError("interval sequence must be a non-empty 1-D vector")
        if arr.min() < 0:
            raise DataFormatError("state indices must be non-negative")
        if self.interval_minutes < 1:
            raise DataFormatError("interval_minutes must be positive")
        object.__setattr__(self, "states", arr)

    def __len__(self) -> int:
        return int(self.states.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSequence):
            return NotImplemented
        return (
            self.interval_minutes == other.interval_minutes
            and self.id == other.id
            and np.array_equal(self.states, other.states)
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Episode:
    """A maximal run of one state: (state, duration, start offset)."""

    state: int
    duration: int
    start: int

    def __post_init__(self):
        if self.state < 0:
            raise DataFormatError("episode state must be non-negative")
        if self.duration < 1:
            raise DataFormatError("episode duration must be at least 1")
        if self.start < 0:
            raise DataFormatError("episode start must be non-negative")


@dataclass(frozen=True)
class EpisodeSequence:
    """Run-length encoded chain of episodes covering a whole sequence."""

    episodes: tuple[Episode, ...]
    total_length: int
    interval_minutes: int = 1
    id: str | None = None

    def __post_init__(self):
        eps = tuple(self.episodes)
        object.__setattr__(self, "episodes", eps)
        if not eps:
            raise DataFormatError("episode sequence must contain at least one episode")
        t = 0
        prev_state = None
        for ep in eps:
            if ep.state == prev_state:
                raise DataFormatError("adjacent episodes must have different states")
            if ep.start != t:
                raise DataFormatError(
                    f"episode start {ep.start} inconsistent with running total {t}"
                )
            t += ep.duration
            prev_state = ep.state
        if t != self.total_length:
            raise DataFormatError(
                f"episode durations sum to {t}, expected total_length {self.total_length}"
            )

    def __len__(self) -> int:
        return len(self.episodes)


@dataclass(frozen=True, eq=False)
class ContinuousSeries:
    """Non-negative real-valued series (e.g. activity counts per minute)."""

    values: np.ndarray
    id: str | None = None

    def __post_init__(self):
        arr = _frozen_array(self.values, np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DataFormatError("continuous series must be a non-empty 1-D vector")
        if not np.isfinite(arr).all():
            raise DataFormatError("continuous series contains missing or non-finite values")
        if arr.min() < 0:
            raise DataFormatError("continuous series contains negative values")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContinuousSeries):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.values, other.values)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Aligned sequences sharing one alphabet, stored as one matrix.

    ``states_matrix`` is a read-only (n_sequences, length) array of
    alphabet indices in ``alphabet.cell_dtype``, validated once, here;
    row i is the sequence whose id is ``ids[i]``.  Ids are unique
    strings, one per row, and all sequences share ``interval_minutes``.
    An empty corpus has shape (0, 0), so its ``length`` is 0.

    Synthesis keeps the models it fits to a corpus in the private
    attribute ``_synth_source`` (see ``synth._Source``).  It is not a
    field: equality ignores it, ``replace`` and ``subset`` do not copy
    it, and pickling drops it.
    """

    alphabet: StateAlphabet
    states_matrix: np.ndarray
    ids: tuple[str, ...]
    interval_minutes: int = 1

    def __post_init__(self):
        raw = np.asarray(self.states_matrix)
        if raw.ndim != 2:
            raise DataFormatError("corpus states must be a 2-D (sequence, interval) matrix")
        if raw.shape[0] == 0:
            raw = raw.reshape(0, 0)
        elif raw.shape[1] == 0:
            raise DataFormatError("corpus sequences must be non-empty")
        ids = tuple(self.ids)
        if len(ids) != raw.shape[0]:
            raise DataFormatError(f"{len(ids)} ids given for {raw.shape[0]} sequences")
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
            raise DataFormatError(f"duplicate sequence ids: {dupes[:5]}")
        if self.interval_minutes < 1:
            raise DataFormatError("interval_minutes must be positive")
        size = self.alphabet.size
        if raw.size and not (raw.min() >= 0 and raw.max() < size):
            bad = int(((raw < 0) | (raw >= size)).any(axis=1).argmax())
            raise DataFormatError(f"sequence {ids[bad]!r} uses a state outside the alphabet")
        mat = np.array(raw, dtype=self.alphabet.cell_dtype)
        mat.setflags(write=False)
        object.__setattr__(self, "states_matrix", mat)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return self.states_matrix.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        same = (self.alphabet, self.ids, self.interval_minutes) == (
            other.alphabet, other.ids, other.interval_minutes
        )
        return same and np.array_equal(self.states_matrix, other.states_matrix)

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_synth_source"}

    @property
    def length(self) -> int:
        """Number of intervals per sequence (0 for an empty corpus)."""
        return self.states_matrix.shape[1]

    def subset(self, indices: Sequence[int]) -> "Corpus":
        """Sub-corpus of the given sequence positions, in the given order."""
        idx = np.asarray(indices, dtype=np.intp).reshape(-1)
        ids = tuple(self.ids[i] for i in idx)
        return replace(self, states_matrix=self.states_matrix[idx], ids=ids)

    @classmethod
    def from_arrays(
        cls,
        alphabet: StateAlphabet,
        arrays: Iterable[Sequence[int]],
        ids: Sequence[str] | None = None,
        interval_minutes: int = 1,
    ) -> "Corpus":
        arrays = list(arrays)
        if ids is None:
            ids = [f"seq-{i:05d}" for i in range(len(arrays))]
        elif len(ids) != len(arrays):
            raise DataFormatError(f"{len(ids)} ids given for {len(arrays)} sequences")
        ids = tuple(str(i) for i in ids)
        return cls(alphabet, _stack_rows(arrays, ids), ids, interval_minutes)


def _stack_rows(rows: list, ids: Sequence[str]) -> np.ndarray:
    """Equal-length 1-D rows, one per id, as one matrix; (0, 0) when there are none."""
    rows = [np.asarray(r) for r in rows]
    if not rows:
        return np.empty((0, 0), dtype=np.int64)
    n = rows[0].size
    for sid, row in zip(ids, rows):
        if row.shape != (n,):
            raise DataFormatError(f"sequence {sid!r} has length {row.size}, expected {n}")
    return np.stack(rows)


def episode_table(matrix: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, start, state, duration) of every episode of a state matrix.

    An episode is a maximal constant run within one row.  Episodes are
    listed in row-major order (by row, then by start) as four int64
    arrays; row i's episodes are exactly ``run_bounds(matrix[i])``.
    """
    mat = np.asarray(matrix)
    n_rows, length = mat.shape
    begins = np.empty(mat.shape, dtype=bool)
    begins[:, :1] = True
    np.not_equal(mat[:, 1:], mat[:, :-1], out=begins[:, 1:])
    row, start = np.nonzero(begins)
    # the next episode starts where this one ends, counted across rows
    flat = row * length + start
    duration = np.diff(flat, append=n_rows * length)
    return row, start, mat[row, start].astype(np.int64), duration


def run_bounds(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of the maximal constant runs of a vector."""
    states = np.asarray(states)
    change = np.flatnonzero(states[1:] != states[:-1]) + 1
    starts = np.concatenate(([0], change))
    lengths = np.concatenate((change, [states.size])) - starts
    return starts, lengths


def rle_encode(seq: IntervalSequence) -> EpisodeSequence:
    """Run-length encode an interval sequence into its episode chain."""
    starts, lengths = run_bounds(seq.states)
    episodes = tuple(
        Episode(int(seq.states[s]), int(d), int(s)) for s, d in zip(starts, lengths)
    )
    return EpisodeSequence(episodes, len(seq), seq.interval_minutes, seq.id)


def rle_decode(eseq: EpisodeSequence) -> IntervalSequence:
    """Expand an episode chain back into its interval sequence (exact inverse)."""
    states = np.repeat(
        np.fromiter((e.state for e in eseq.episodes), np.int64, len(eseq.episodes)),
        np.fromiter((e.duration for e in eseq.episodes), np.int64, len(eseq.episodes)),
    )
    return IntervalSequence(states, eseq.interval_minutes, eseq.id)


def smooth_rolling(series: ContinuousSeries, window: int) -> ContinuousSeries:
    """Rolling arithmetic mean over full windows only.

    The output has length ``len(series) - window + 1``; entry ``i`` is the
    mean of ``values[i .. i+window-1]``.  No padding is applied, so a
    1440-entry series smoothed with window 5 yields 1436 entries.
    """
    if window < 1:
        raise DataFormatError("window must be at least 1")
    v = series.values
    if window > v.size:
        raise DataFormatError(
            f"window exceeds series: window={window}, length={v.size}"
        )
    csum = np.concatenate(([0.0], np.cumsum(v, dtype=np.float64)))
    out = (csum[window:] - csum[:-window]) / window
    # rounding can leave a mean a hair outside [min, max]; clip to be safe
    out = np.clip(out, v.min(), v.max())
    return ContinuousSeries(out, series.id)


def _finite(value) -> bool:
    """A JSON number, not a bool, that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _finite_list(value) -> list | None:
    """The items of a non-empty list, tuple or 1-D array of finite numbers, else None."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        value = value.tolist()  # Python numbers, so a bool array holds bools
    if isinstance(value, (list, tuple)) and value and all(map(_finite, value)):
        return list(value)
    return None


def threshold_alphabet(thresholds: Sequence[float], name: str = "thresholds") -> StateAlphabet:
    """Labels "1" .. "k+1" of a threshold list; a bad list is a ConfigError naming ``name``."""
    items = _finite_list(thresholds)
    if items is None or not (np.diff(np.array(items, dtype=np.float64)) > 0).all():
        raise ConfigError(
            f"{name} must be a non-empty, strictly ascending list of finite numbers, "
            f"got {thresholds!r}"
        )
    return StateAlphabet(tuple(str(i + 1) for i in range(len(items) + 1)))


def discretize(
    series: ContinuousSeries, thresholds: Sequence[float]
) -> IntervalSequence:
    """Map a continuous series onto threshold-bounded categories.

    Categories are left-open/right-closed above each threshold: with
    thresholds ``[0, 760, 2020]`` a value of 0 maps to state "1",
    values in (0, 760] to "2", (760, 2020] to "3" and anything above
    2020 to "4".  The mapping is monotone in the input value.
    """
    states = discretize_corpus([series], thresholds).states_matrix[0]
    return IntervalSequence(states, 1, series.id)


def discretize_corpus(
    series_list: Iterable[ContinuousSeries],
    thresholds: Sequence[float],
    interval_minutes: int = 1,
) -> Corpus:
    """Discretize a batch of equal-length continuous series into one corpus."""
    alphabet = threshold_alphabet(thresholds)
    th = np.asarray(thresholds, dtype=np.float64)
    series_list = list(series_list)
    ids = tuple(
        s.id if s.id is not None else f"seq-{i:05d}" for i, s in enumerate(series_list)
    )
    values = _stack_rows([s.values for s in series_list], ids)
    return Corpus(
        alphabet,
        np.searchsorted(th, values, side="left"),
        ids,
        interval_minutes,
    )
