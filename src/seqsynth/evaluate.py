"""Statistical comparison of synthesized corpora against a source corpus.

Four summary views of a corpus are compared: per-sequence episode counts
(overall and per state), per-episode state durations, per-sequence
combined state durations, and per-sequence entropies.  Distribution
similarity is quantified with the two-sample Kolmogorov-Smirnov test,
and ECDF curves plus percentile differences are emitted for plotting.

Entropy here is the Shannon entropy (natural log) of the within-sequence
state time-share distribution, so it ranges from 0 (single state) to
ln(alphabet size).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import Corpus, IntervalSequence, episode_table
from .errors import DataFormatError
from .io import write_json

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


def ks_two_sample(x, y) -> KsResult:
    """Two-sample KS test: sup-norm distance between empirical CDFs."""
    xs = _sorted_sample(x)
    ys = _sorted_sample(y)
    pooled = np.concatenate((xs, ys))
    cdf_x = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_y = np.searchsorted(ys, pooled, side="right") / ys.size
    d = float(np.abs(cdf_x - cdf_y).max())
    return KsResult(d, ks_asymptotic_pvalue(d, xs.size, ys.size), xs.size, ys.size)


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


def episode_durations(
    corpus: Corpus, state: str, mode: str = "individual", exclude_zero: bool = False
) -> DurationSample:
    """Durations of one state across the corpus.

    ``individual`` collects every episode's duration; ``combined`` sums
    each sequence's total time in the state (optionally dropping
    sequences that never visit it).
    """
    idx = corpus.alphabet.index(state)
    if mode == "individual":
        _, _, ep_states, ep_durs = episode_table(corpus.states_matrix)
        values = ep_durs[ep_states == idx]
    elif mode == "combined":
        values = (corpus.states_matrix == idx).sum(axis=1)
        if exclude_zero:
            values = values[values > 0]
    else:
        raise DataFormatError(f"unknown duration mode {mode!r}")
    return DurationSample(state, mode, values)


def _entropy(states: np.ndarray) -> float:
    counts = np.bincount(states)
    shares = counts[counts > 0] / states.size
    return float(-(shares * np.log(shares)).sum())


def sequence_entropy(seq: IntervalSequence) -> float:
    """Shannon entropy (nats) of the sequence's state time shares."""
    return _entropy(seq.states)


def corpus_entropies(corpus: Corpus) -> np.ndarray:
    """:func:`sequence_entropy` of every row of the corpus matrix."""
    return np.array([_entropy(row) for row in corpus.states_matrix])


def _mean_sd(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values)) if values.size else math.nan
    sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return mean, sd


def episode_count_stats(
    corpus: Corpus, per_state: bool = True
) -> dict[str, tuple[float, float]]:
    """Sample mean and SD (n-1) of per-sequence episode counts.

    Keys are ``Overall`` plus, when requested, each alphabet label.
    """
    rows, _, states, _ = episode_table(corpus.states_matrix)
    labels = corpus.alphabet.labels if per_state else ()
    return _episode_counts(rows, states, len(corpus), labels)


def _episode_counts(rows, states, n_rows, labels) -> dict[str, tuple[float, float]]:
    """``episode_count_stats`` from an episode table's rows and states."""
    out = {OVERALL: _mean_sd(np.bincount(rows, minlength=n_rows))}
    for idx, label in enumerate(labels):
        out[label] = _mean_sd(np.bincount(rows[states == idx], minlength=n_rows))
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
    (a percentile-difference curve); no smoothing is applied.
    """
    if not methods:
        raise DataFormatError("need at least one method sample")
    orig = _sorted_sample(original)
    sorted_methods = {name: _sorted_sample(v) for name, v in methods.items()}
    grid = np.unique(np.concatenate([orig] + list(sorted_methods.values())))
    orig_cdf = np.searchsorted(orig, grid, side="right") / orig.size
    method_cdfs = {}
    diffs = {}
    for name, sample in sorted_methods.items():
        cdf = np.searchsorted(sample, grid, side="right") / sample.size
        method_cdfs[name] = cdf
        diffs[name] = orig_cdf - cdf
    return EcdfCurves(grid, orig_cdf, method_cdfs, diffs)


def top_states(corpus: Corpus, k: int = 5) -> tuple[str, ...]:
    """The k most prevalent states by total time, most prevalent first."""
    totals = np.bincount(
        corpus.states_matrix.ravel(), minlength=corpus.alphabet.size
    )
    order = np.argsort(-totals, kind="stable")  # stable: ties keep label order
    picked = [int(i) for i in order[: min(k, corpus.alphabet.size)] if totals[i] > 0]
    return tuple(corpus.alphabet.label(i) for i in picked)


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


def _column_stats(values: np.ndarray, original: np.ndarray | None) -> dict:
    out: dict = {"n": int(values.size)}
    if values.size:
        mean, sd = _mean_sd(values)
        out["mean"] = mean
        out["sd"] = sd
    else:
        out["mean"] = None  # undefined on an empty sample; None keeps JSON strict
        out["sd"] = None
    if original is not None:
        if values.size and original.size:
            ks = ks_two_sample(original, values)
            out["d"] = ks.d
            out["p"] = ks.p
        else:
            out["d"] = None
            out["p"] = None
    return out


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

    ``states`` defaults to the five most prevalent states by total time.
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
    if states is None:
        states = top_states(original)
    else:
        states = tuple(states)
        for s in states:
            original.alphabet.index(s)
    method_names = tuple(methods)
    ranges = dict(duration_ranges or {})
    if isinstance(exclude_zero_combined, Mapping):
        zero_note: object = dict(exclude_zero_combined)
    else:
        zero_note = bool(exclude_zero_combined)

    def excludes_zero(state: str) -> bool:
        if isinstance(zero_note, dict):
            return bool(zero_note.get(state, True))
        return zero_note

    corpora = {"original": original, **methods}
    tables = {name: episode_table(c.states_matrix) for name, c in corpora.items()}

    def individual_values(name: str, state: str | None) -> np.ndarray:
        _, _, ep_states, ep_durs = tables[name]
        if state is None:
            values = ep_durs
        else:
            values = ep_durs[ep_states == original.alphabet.index(state)]
        return _apply_range(values, ranges.get(state))

    def combined_values(name: str, state: str) -> np.ndarray:
        idx = original.alphabet.index(state)
        values = (corpora[name].states_matrix == idx).sum(axis=1)
        if excludes_zero(state):
            values = values[values > 0]
        return _apply_range(values, ranges.get(state))

    individual: dict = {}
    combined: dict = {}
    curves: dict[str, dict[str, EcdfCurves]] = {"individual": {}, "combined": {}}
    rows: list[str | None] = [None] + list(states)
    for row in rows:
        key = OVERALL if row is None else row
        orig_ind = individual_values("original", row)
        individual[key] = {"original": _column_stats(orig_ind, None)}
        method_ind = {}
        for name in method_names:
            values = individual_values(name, row)
            individual[key][name] = _column_stats(values, orig_ind)
            if values.size:
                method_ind[name] = values
        if orig_ind.size and method_ind:
            curves["individual"][key] = ecdf_curves(orig_ind, method_ind)
        if row is None:
            continue  # combined over all states is the constant sequence length
        orig_comb = combined_values("original", row)
        combined[key] = {"original": _column_stats(orig_comb, None)}
        method_comb = {}
        for name in method_names:
            values = combined_values(name, row)
            combined[key][name] = _column_stats(values, orig_comb)
            if values.size:
                method_comb[name] = values
        if orig_comb.size and method_comb:
            curves["combined"][key] = ecdf_curves(orig_comb, method_comb)

    counts: dict = {}
    count_tables = {
        name: _episode_counts(table[0], table[2], len(corpora[name]), original.alphabet.labels)
        for name, table in tables.items()
    }
    for key in [OVERALL] + list(states):
        counts[key] = {
            name: {"mean": table[key][0], "sd": table[key][1]}
            for name, table in count_tables.items()
        }

    entropies = {name: corpus_entropies(c) for name, c in corpora.items()}
    entropy: dict = {"original": _column_stats(entropies["original"], None)}
    for name in method_names:
        entropy[name] = _column_stats(entropies[name], entropies["original"])
    curves["entropy"] = {
        OVERALL: ecdf_curves(
            entropies["original"], {n: entropies[n] for n in method_names}
        )
    }

    metadata = {
        "entropy_definition": "shannon entropy (natural log) of state time shares",
        "combined_excludes_zero": zero_note,
        "duration_ranges": {k: list(v) for k, v in ranges.items()},
        "n_original": len(original),
        "n_methods": {name: len(c) for name, c in methods.items()},
    }
    return EvaluationReport(
        tuple(states),
        method_names,
        individual,
        combined,
        counts,
        entropy,
        curves,
        metadata,
    )


def _slug(text: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower()
    return slug or "state"


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _write_table(path: Path, report: EvaluationReport, table: dict) -> None:
    header = ["state", "original_mean", "original_sd"]
    for name in report.methods:
        header += [f"{name}_mean", f"{name}_sd", f"{name}_d", f"{name}_p"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for state, columns in table.items():
            row = [state, _fmt(columns["original"]["mean"]), _fmt(columns["original"]["sd"])]
            for name in report.methods:
                cell = columns[name]
                row += [_fmt(cell["mean"]), _fmt(cell["sd"]), _fmt(cell["d"]), _fmt(cell["p"])]
            w.writerow(row)


def write_report(report: EvaluationReport, outdir, config_hash: str | None = None) -> None:
    """Write report JSON, tables, and ECDF curve CSVs under ``outdir``.

    ECDF files are ``ecdf/<kind>_<state>_<method>.csv`` with columns
    ``grid,value`` plus a ``_diff`` companion holding original-minus-
    method percentile differences.  All output is deterministic.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    if config_hash is not None:
        payload["config_hash"] = config_hash
    write_json(payload, outdir / "report.json")

    _write_table(outdir / "individual_durations.csv", report, report.individual)
    _write_table(outdir / "combined_durations.csv", report, report.combined)

    with open(outdir / "episode_counts.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        names = ["original"] + list(report.methods)
        w.writerow(["state"] + [f"{n}_{col}" for n in names for col in ("mean", "sd")])
        for state, columns in report.episode_counts.items():
            row = [state]
            for n in names:
                row += [_fmt(columns[n]["mean"]), _fmt(columns[n]["sd"])]
            w.writerow(row)

    with open(outdir / "entropy.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["corpus", "mean", "sd", "d", "p"])
        for name, cell in report.entropy.items():
            d = _fmt(cell["d"]) if "d" in cell else ""
            p = _fmt(cell["p"]) if "p" in cell else ""
            w.writerow([name, _fmt(cell["mean"]), _fmt(cell["sd"]), d, p])

    ecdf_dir = outdir / "ecdf"
    ecdf_dir.mkdir(exist_ok=True)
    for kind, by_state in report.curves.items():
        for state, curves in by_state.items():
            base = f"{kind}_{_slug(state)}"
            _write_curve(ecdf_dir / f"{base}_original.csv", curves.grid, curves.original)
            for name in curves.methods:
                slug = _slug(name)
                _write_curve(
                    ecdf_dir / f"{base}_{slug}.csv", curves.grid, curves.methods[name]
                )
                _write_curve(
                    ecdf_dir / f"{base}_{slug}_diff.csv",
                    curves.grid,
                    curves.differences[name],
                )


def _write_curve(path: Path, grid: np.ndarray, values: np.ndarray) -> None:
    lines = [f"{g!r},{v!r}\n" for g, v in zip(grid.tolist(), values.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("grid,value\n")
        fh.writelines(lines)
