"""Statistical comparison of synthesized corpora against a source corpus.

Each corpus is summarized once, from its episode table, and four views
are slices of that summary: per-sequence episode counts (overall and per
state), per-episode state durations, per-sequence combined state
durations, and per-sequence entropies.  Each duration row and the
entropies are compared through one set of ECDF curves on the pooled grid
of observed values; a method's two-sample Kolmogorov-Smirnov D is its
largest ECDF gap to the original there.  The curves are also written for
plotting, named after the rows and samples, so those names must differ.

Entropy here is the Shannon entropy (natural log) of the within-sequence
state time-share distribution, so it ranges from 0 (single state) to
ln(alphabet size).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import Corpus, IntervalSequence, episode_table
from .errors import DataFormatError
from .io import write_csv, write_json

__all__ = [
    "KsResult",
    "ks_two_sample",
    "ks_asymptotic_pvalue",
    "DurationSample",
    "episode_durations",
    "sequence_entropy",
    "corpus_entropies",
    "episode_count_stats",
    "EcdfCurves",
    "ecdf_curves",
    "top_states",
    "EvaluationReport",
    "build_report",
    "write_report",
]

REPORT_SCHEMA = "seqsynth-report/1"
OVERALL = "Overall"


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS statistic and asymptotic p-value."""

    d: float
    p: float
    n1: int
    n2: int


def _sorted_sample(x) -> np.ndarray:
    arr = np.sort(np.asarray(x, dtype=np.float64))
    if arr.size == 0:
        raise DataFormatError("empty sample")
    if not np.isfinite(arr[-1]) or not np.isfinite(arr[0]):
        raise DataFormatError("sample contains non-finite values")
    return arr


def ks_asymptotic_pvalue(d: float, n1: int, n2: int) -> float:
    """Asymptotic two-sided p-value with the small-sample correction.

    p = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2) with
    lam = (sqrt(ne) + 0.12 + 0.11 / sqrt(ne)) * D and ne = n1*n2/(n1+n2);
    the series is truncated once terms drop below 1e-12 and the result
    is clamped to [0, 1].
    """
    ne = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam < 1e-9:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 100_001):
        term = math.exp(-2.0 * (j * lam) ** 2)
        if term < 1e-12:
            break
        total += sign * term
        sign = -sign
    return min(max(2.0 * total, 0.0), 1.0)


def _ks(difference: np.ndarray, n1: int, n2: int) -> tuple[float, float]:
    """KS d and p from two ECDFs' difference on a grid holding both samples
    (between grid points both ECDFs are constant)."""
    d = float(np.abs(difference).max())
    return d, ks_asymptotic_pvalue(d, n1, n2)


def ks_two_sample(x, y) -> KsResult:
    """Two-sample KS test: sup-norm distance between empirical CDFs."""
    n1, n2 = np.size(x), np.size(y)
    return KsResult(*_ks(ecdf_curves(x, {"y": y}).differences["y"], n1, n2), n1, n2)


@dataclass(frozen=True, eq=False)
class DurationSample:
    """Durations of one state, per-episode or combined per sequence."""

    state: str
    mode: str
    values: np.ndarray

    def __post_init__(self):
        if self.mode not in ("individual", "combined"):
            raise DataFormatError(f"unknown duration mode {self.mode!r}")
        arr = np.array(self.values, dtype=np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


class _Summary(NamedTuple):
    """One corpus read once: its episodes and two (day, state) count tables."""

    states: np.ndarray  # state of each episode, in episode-table order
    durations: np.ndarray  # length of each episode
    time: np.ndarray  # (n_days, S): intervals each day spends in each state
    episodes: np.ndarray  # (n_days, S): episodes each day has of each state


def _summarize(corpus: Corpus) -> _Summary:
    rows, _, states, durations = episode_table(corpus.states_matrix)
    n, size = len(corpus), corpus.alphabet.size
    cells = rows * size + states
    # float weights sum integer durations exactly (each total is at most the length)
    time = np.bincount(cells, weights=durations, minlength=n * size).astype(np.int64)
    episodes = np.bincount(cells, minlength=n * size)
    return _Summary(states, durations, time.reshape(n, size), episodes.reshape(n, size))


def _durations(summary: _Summary, mode: str, idx: int | None, exclude_zero: bool) -> np.ndarray:
    """State ``idx``'s durations per episode (``individual``; every state's
    when ``idx`` is None) or per day (``combined``)."""
    if mode == "individual":
        return summary.durations if idx is None else summary.durations[summary.states == idx]
    values = summary.time[:, idx]
    return values[values > 0] if exclude_zero else values


def episode_durations(
    corpus: Corpus, state: str, mode: str = "individual", exclude_zero: bool = False
) -> DurationSample:
    """Durations of one state across the corpus.

    ``individual`` collects every episode's duration; ``combined`` sums
    each sequence's total time in the state (optionally dropping
    sequences that never visit it).
    """
    idx = corpus.alphabet.index(state)
    # DurationSample rejects an unknown mode
    return DurationSample(state, mode, _durations(_summarize(corpus), mode, idx, exclude_zero))


def sequence_entropy(seq: IntervalSequence) -> float:
    """Shannon entropy (nats) of the sequence's state time shares."""
    counts = np.bincount(seq.states)
    shares = counts[counts > 0] / seq.states.size
    return float(-(shares * np.log(shares)).sum())


def _entropies(summary: _Summary) -> np.ndarray:
    """:func:`sequence_entropy` of every day, from the summary's time table.

    Days that visit the same number of states are done as one matrix, so
    each day's nonzero shares are summed in state order by the same
    pairwise sum as a lone day's, bit for bit.
    """
    visited = summary.time > 0
    width = visited.sum(axis=1)
    out = np.empty(width.size)
    for k in np.unique(width):
        days = width == k
        counts = summary.time[days][visited[days]].reshape(-1, k)
        shares = counts / counts.sum(axis=1, keepdims=True)  # each day's total is its length
        out[days] = -(shares * np.log(shares)).sum(axis=1)
    return out


def corpus_entropies(corpus: Corpus) -> np.ndarray:
    """:func:`sequence_entropy` of every row of the corpus matrix."""
    return _entropies(_summarize(corpus))


def _mean_sd(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values)) if values.size else math.nan
    sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return mean, sd


def _count_stats(summary: _Summary, idx: int | None) -> tuple[float, float]:
    """Mean and SD of each day's episodes of state ``idx`` (of all states if None)."""
    counts = summary.episodes
    return _mean_sd(counts.sum(axis=1) if idx is None else counts[:, idx])


def episode_count_stats(
    corpus: Corpus, per_state: bool = True
) -> dict[str, tuple[float, float]]:
    """Sample mean and SD (n-1) of per-sequence episode counts.

    Keys are ``Overall`` plus, when requested, each alphabet label.
    """
    summary = _summarize(corpus)
    labels = corpus.alphabet.labels if per_state else ()
    out = {OVERALL: _count_stats(summary, None)}
    out.update((label, _count_stats(summary, idx)) for idx, label in enumerate(labels))
    return out


@dataclass(frozen=True, eq=False)
class EcdfCurves:
    """ECDFs of several samples on a shared grid, plus difference series."""

    grid: np.ndarray
    original: np.ndarray
    methods: dict[str, np.ndarray]
    differences: dict[str, np.ndarray]


def ecdf_curves(original, methods: Mapping[str, Sequence]) -> EcdfCurves:
    """Evaluate every sample's ECDF on the pooled grid of observed values.

    The difference series is original minus method at each grid point
    (a percentile-difference curve); no smoothing is applied.  Its
    largest absolute value is the method's two-sample KS D.
    """
    if not methods:
        raise DataFormatError("need at least one method sample")
    orig = _sorted_sample(original)
    samples = {name: _sorted_sample(v) for name, v in methods.items()}
    grid = np.unique(np.concatenate([orig, *samples.values()]))
    orig_cdf = np.searchsorted(orig, grid, side="right") / orig.size
    cdfs = {name: np.searchsorted(v, grid, side="right") / v.size for name, v in samples.items()}
    return EcdfCurves(grid, orig_cdf, cdfs, {name: orig_cdf - c for name, c in cdfs.items()})


def _top_states(summary: _Summary, alphabet, k: int) -> tuple[str, ...]:
    totals = summary.time.sum(axis=0)
    order = np.argsort(-totals, kind="stable")  # stable: ties keep label order
    return tuple(alphabet.label(int(i)) for i in order[:k] if totals[i] > 0)


def top_states(corpus: Corpus, k: int = 5) -> tuple[str, ...]:
    """The k most prevalent states by total time, most prevalent first."""
    return _top_states(_summarize(corpus), corpus.alphabet, k)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """All comparison tables for one original corpus and named methods.

    ``individual`` and ``combined`` map state -> column -> stats, where
    the column is "original" or a method name and stats carry mean, sd,
    n, and (for methods) the KS d and p against the original.
    """

    states: tuple[str, ...]
    methods: tuple[str, ...]
    individual: dict
    combined: dict
    episode_counts: dict
    entropy: dict
    curves: dict[str, dict[str, EcdfCurves]]
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "states": list(self.states),
            "methods": list(self.methods),
            "individual_durations": self.individual,
            "combined_durations": self.combined,
            "episode_counts": self.episode_counts,
            "entropy": self.entropy,
            "metadata": self.metadata,
        }


def _column_stats(values: np.ndarray) -> dict:
    mean, sd = _mean_sd(values) if values.size else (None, None)  # None keeps JSON strict
    return {"n": int(values.size), "mean": mean, "sd": sd}


def _apply_range(values: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return values
    lo, hi = bounds
    return values[(values >= lo) & (values <= hi)]


def build_report(
    original: Corpus,
    methods: Mapping[str, Corpus],
    states: Sequence[str] | None = None,
    exclude_zero_combined: bool | Mapping[str, bool] = True,
    duration_ranges: Mapping[str, tuple[float, float]] | None = None,
) -> EvaluationReport:
    """Compare method corpora against the original on all four metrics.

    ``states`` defaults to the five most prevalent states by total time;
    a state named twice is rejected.
    ``exclude_zero_combined`` drops days that never visit a state from
    that state's combined-duration sample; pass a per-state mapping to
    control individual states (unlisted states default to excluded).
    ``duration_ranges`` optionally restricts a state's duration samples
    to a closed interval before testing (report-level configuration).
    """
    if not methods:
        raise DataFormatError("need at least one method corpus")
    if "original" in methods:
        raise DataFormatError('method name "original" is reserved')
    for name, corpus in methods.items():
        if not len(corpus):
            raise DataFormatError(f"method {name!r} has no sequences")
        if corpus.alphabet != original.alphabet:
            raise DataFormatError(f"method {name!r} alphabet differs from original")
        if corpus.length != original.length:
            raise DataFormatError(f"method {name!r} length differs from original")
    summaries = {"original": _summarize(original)}
    summaries.update((name, _summarize(c)) for name, c in methods.items())
    if states is None:
        states = _top_states(summaries["original"], original.alphabet, 5)
    states = tuple(states)
    rows = {None: None, **{s: original.alphabet.index(s) for s in states}}
    if len(rows) != len(states) + 1:
        raise DataFormatError(f"repeated state label in {list(states)!r}")
    ranges = dict(duration_ranges or {})
    if isinstance(exclude_zero_combined, Mapping):
        zero_note: object = dict(exclude_zero_combined)
        drop_zero = {s: bool(zero_note.get(s, True)) for s in states}
    else:
        zero_note = bool(exclude_zero_combined)
        drop_zero = dict.fromkeys(states, zero_note)

    def sample(summary: _Summary, view: str, state: str | None) -> np.ndarray:
        if view == "entropy":
            return _entropies(summary)
        drop = view == "combined" and drop_zero[state]
        return _apply_range(_durations(summary, view, rows[state], drop), ranges.get(state))

    # combined over all states is the constant sequence length, so it has no Overall row
    views = [("individual", None)] + [("individual", s) for s in states]
    views += [("combined", s) for s in states] + [("entropy", None)]
    tables: dict = {"individual": {}, "combined": {}, "entropy": {}}
    curves: dict[str, dict[str, EcdfCurves]] = {view: {} for view in tables}
    for view, state in views:
        key = OVERALL if state is None else state
        samples = {name: sample(s, view, state) for name, s in summaries.items()}
        orig = samples.pop("original")
        present = {name: v for name, v in samples.items() if v.size}
        gaps = {}
        if orig.size and present:
            curves[view][key] = ecdf_curves(orig, present)
            gaps = curves[view][key].differences
        columns = tables[view][key] = {"original": _column_stats(orig)}
        for name, values in samples.items():
            d, p = _ks(gaps[name], orig.size, values.size) if name in gaps else (None, None)
            columns[name] = {**_column_stats(values), "d": d, "p": p}

    counts = {
        OVERALL if state is None else state: {
            name: dict(zip(("mean", "sd"), _count_stats(summary, idx)))
            for name, summary in summaries.items()
        }
        for state, idx in rows.items()
    }
    metadata = {
        "entropy_definition": "shannon entropy (natural log) of state time shares",
        "combined_excludes_zero": zero_note,
        "duration_ranges": {k: list(v) for k, v in ranges.items()},
        "n_original": len(original),
        "n_methods": {name: len(c) for name, c in methods.items()},
    }
    return EvaluationReport(
        states, tuple(methods), tables["individual"], tables["combined"], counts,
        tables["entropy"][OVERALL], curves, metadata,
    )


def _slug(text: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower()
    return slug or "state"


def _check_slugs(names: Sequence[str]) -> None:
    """Reject two names of one slug; ECDF files are ``<kind>_<row>_<sample>``
    of slugs, which hold no ``_``, so no other names can collide."""
    seen: dict[str, str] = {}
    for name in names:
        slug = _slug(name)
        if (other := seen.setdefault(slug, name)) != name:
            raise DataFormatError(f"{other!r} and {name!r} share the ECDF file name {slug!r}")


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _write_table(path: Path, table: dict, fields: dict) -> None:
    """One row per state of ``table``, with the ``fields[sample]`` of each sample."""
    rows = [["state"] + [f"{n}_{f}" for n, keys in fields.items() for f in keys]]
    for state, cells in table.items():
        rows.append([state] + [_fmt(cells[n][f]) for n, keys in fields.items() for f in keys])
    write_csv(rows, path)


def write_report(report: EvaluationReport, outdir, config_hash: str | None = None) -> None:
    """Write report JSON, tables, and ECDF curve CSVs under ``outdir``.

    ECDF files are ``ecdf/<kind>_<state>_<method>.csv`` with columns
    ``grid,value`` plus a ``_diff`` companion holding original-minus-
    method percentile differences.  All output is deterministic.  Two
    rows or two samples of one slug are rejected before anything is written.
    """
    _check_slugs((OVERALL, *report.states))
    _check_slugs(("original", *report.methods))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    if config_hash is not None:
        payload["config_hash"] = config_hash
    write_json(payload, outdir / "report.json")

    tested = dict.fromkeys(("original", *report.methods), ("mean", "sd", "d", "p"))
    tested["original"] = ("mean", "sd")
    _write_table(outdir / "individual_durations.csv", report.individual, tested)
    _write_table(outdir / "combined_durations.csv", report.combined, tested)
    counts = dict.fromkeys(("original", *report.methods), ("mean", "sd"))
    _write_table(outdir / "episode_counts.csv", report.episode_counts, counts)

    rows = [["corpus", "mean", "sd", "d", "p"]]
    for name, cell in report.entropy.items():
        d = _fmt(cell["d"]) if "d" in cell else ""
        p = _fmt(cell["p"]) if "p" in cell else ""
        rows.append([name, _fmt(cell["mean"]), _fmt(cell["sd"]), d, p])
    write_csv(rows, outdir / "entropy.csv")

    ecdf_dir = outdir / "ecdf"
    ecdf_dir.mkdir(exist_ok=True)
    for kind, by_state in report.curves.items():
        for state, curves in by_state.items():
            base = f"{kind}_{_slug(state)}"
            _write_curve(ecdf_dir / f"{base}_original.csv", curves.grid, curves.original)
            for name, cdf in curves.methods.items():
                stem = f"{base}_{_slug(name)}"
                _write_curve(ecdf_dir / f"{stem}.csv", curves.grid, cdf)
                _write_curve(ecdf_dir / f"{stem}_diff.csv", curves.grid, curves.differences[name])


def _write_curve(path: Path, grid: np.ndarray, values: np.ndarray) -> None:
    lines = [f"{g!r},{v!r}\n" for g, v in zip(grid.tolist(), values.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("grid,value\n")
        fh.writelines(lines)
