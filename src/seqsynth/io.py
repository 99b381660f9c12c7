"""CSV readers and writers for corpora, continuous series, and cluster labels.

All writers emit UTF-8 with LF line endings and a deterministic column
order, so identical inputs always produce byte-identical files.

Formats:

* interval CSV:  header ``id,s1,...,sN``; one row per sequence; cells are
  state labels.
* episode CSV:   header ``id,state,duration``; rows grouped by id in
  episode order; durations counted in intervals.
* continuous CSV: header ``id,v1,...,vN``; cells are non-negative reals.
* cluster CSV:   header ``id,cluster``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import ContinuousSeries, Corpus, StateAlphabet, episode_table
from .errors import ConfigError, DataFormatError

INTERVAL = "interval"
EPISODE = "episode"
CONTINUOUS = "continuous"
CORPUS_FORMATS = (INTERVAL, EPISODE)


def _read_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _check_new_ids(seen: set, sid: str, row_no: int) -> None:
    if not sid:
        raise DataFormatError(f"row {row_no}: empty sequence id")
    if sid in seen:
        raise DataFormatError(f"row {row_no}: duplicate sequence id {sid!r}")
    seen.add(sid)


def load_corpus(
    path,
    format: str = INTERVAL,
    *,
    alphabet: StateAlphabet | None = None,
    extend_alphabet: bool = True,
    interval_minutes: int = 1,
) -> Corpus:
    """Read a corpus from an interval or episode CSV.

    When ``alphabet`` is given with ``extend_alphabet=False``, any label
    outside it is an error; otherwise newly observed labels are appended
    in sorted order (or the whole alphabet is the sorted union when none
    is given).
    """
    if format == INTERVAL:
        ids, label_rows = _parse_interval(path)
    elif format == EPISODE:
        ids, label_rows = _parse_episode(path)
    else:
        raise ConfigError(f"unknown corpus format {format!r}")
    if not ids:
        raise DataFormatError(f"{path}: no sequences found")

    observed = sorted(set().union(*label_rows))
    if alphabet is None:
        alphabet = StateAlphabet(tuple(observed))
    else:
        unknown = [lab for lab in observed if lab not in alphabet]
        if unknown and not extend_alphabet:
            raise DataFormatError(
                f"unknown state labels {unknown[:5]} (alphabet extension disabled)"
            )
        if unknown:
            alphabet = StateAlphabet(alphabet.labels + tuple(unknown))

    lookup = {lab: i for i, lab in enumerate(alphabet.labels)}.__getitem__
    width = len(label_rows[0])
    mat = np.empty((len(ids), width), dtype=alphabet.cell_dtype)
    for i, (sid, row) in enumerate(zip(ids, label_rows)):
        if len(row) != width:
            raise DataFormatError(
                f"sequence {sid!r} has length {len(row)}, expected {width}"
            )
        mat[i] = list(map(lookup, row))
    return Corpus(alphabet, mat, tuple(ids), interval_minutes)


def _parse_interval(path) -> tuple[list[str], list[list[str]]]:
    rows = _read_rows(path)
    if not rows or not rows[0] or rows[0][0] != "id":
        raise DataFormatError(f"{path}: expected interval CSV header 'id,s1,...'")
    width = len(rows[0]) - 1
    if width < 1:
        raise DataFormatError(f"{path}: header declares no interval columns")
    ids: list[str] = []
    out: list[list[str]] = []
    seen: set[str] = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) - 1 != width:
            raise DataFormatError(
                f"row {row_no}: has {len(row) - 1} cells, expected {width}"
            )
        _check_new_ids(seen, row[0], row_no)
        ids.append(row[0])
        out.append(row[1:])
    return ids, out


def _parse_episode(path) -> tuple[list[str], list[list[str]]]:
    rows = _read_rows(path)
    if not rows or rows[0] != ["id", "state", "duration"]:
        raise DataFormatError(f"{path}: expected episode CSV header 'id,state,duration'")
    ids: list[str] = []
    out: list[list[str]] = []
    seen: set[str] = set()
    current: str | None = None
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"row {row_no}: expected 3 cells, got {len(row)}")
        sid, state, dur_text = row
        if sid != current:
            _check_new_ids(seen, sid, row_no)
            current = sid
            ids.append(sid)
            out.append([])
        try:
            dur = int(dur_text)
        except ValueError:
            raise DataFormatError(f"row {row_no}: duration {dur_text!r} is not an integer")
        if dur < 1:
            raise DataFormatError(f"row {row_no}: duration must be at least 1")
        out[-1].extend([state] * dur)
    return ids, out


def save_corpus(corpus: Corpus, path, format: str = INTERVAL) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = np.array(corpus.alphabet.labels, dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        if format == INTERVAL:
            w.writerow(["id"] + [f"s{i + 1}" for i in range(corpus.length)])
            for sid, row in zip(corpus.ids, corpus.states_matrix):
                w.writerow([sid] + labels[row].tolist())
        elif format == EPISODE:
            w.writerow(["id", "state", "duration"])
            rows, _, states, durations = episode_table(corpus.states_matrix)
            ids = [corpus.ids[r] for r in rows.tolist()]
            w.writerows(zip(ids, labels[states].tolist(), durations.tolist()))
        else:
            raise ConfigError(f"unknown corpus format {format!r}")


def load_continuous(path, on_missing: str = "error") -> list[ContinuousSeries]:
    """Read continuous series; missing cells either raise or drop the row."""
    if on_missing not in ("error", "drop"):
        raise ConfigError("on_missing must be 'error' or 'drop'")
    rows = _read_rows(path)
    if not rows or not rows[0] or rows[0][0] != "id":
        raise DataFormatError(f"{path}: expected continuous CSV header 'id,v1,...'")
    width = len(rows[0]) - 1
    out: list[ContinuousSeries] = []
    seen: set[str] = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) - 1 != width:
            raise DataFormatError(
                f"row {row_no}: has {len(row) - 1} cells, expected {width}"
            )
        _check_new_ids(seen, row[0], row_no)
        values = np.empty(width, np.float64)
        missing = False
        for col, cell in enumerate(row[1:], start=2):
            text = cell.strip()
            v = math.nan
            if text:
                try:
                    v = float(text)
                except ValueError:
                    raise DataFormatError(
                        f"row {row_no}, column {col}: cannot parse {cell!r}"
                    )
            if math.isnan(v):
                if on_missing == "error":
                    raise DataFormatError(f"row {row_no}, column {col}: missing value")
                missing = True
                break
            if v < 0:
                raise DataFormatError(f"row {row_no}, column {col}: negative value")
            values[col - 2] = v
        if not missing:
            out.append(ContinuousSeries(values, row[0]))
    if not out:
        raise DataFormatError(f"{path}: no usable series found")
    return out


def save_continuous(series_list: Iterable[ContinuousSeries], path) -> None:
    series_list = list(series_list)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        n = len(series_list[0]) if series_list else 0
        w.writerow(["id"] + [f"v{i + 1}" for i in range(n)])
        for s in series_list:
            w.writerow([s.id] + [repr(float(v)) for v in s.values])


def load_cluster_labels(path) -> dict[str, int]:
    rows = _read_rows(path)
    if not rows or rows[0] != ["id", "cluster"]:
        raise DataFormatError(f"{path}: expected cluster CSV header 'id,cluster'")
    labels: dict[str, int] = {}
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataFormatError(f"row {row_no}: expected 2 cells, got {len(row)}")
        sid, cluster = row
        if sid in labels:
            raise DataFormatError(f"row {row_no}: duplicate id {sid!r}")
        try:
            labels[sid] = int(cluster)
        except ValueError:
            raise DataFormatError(f"row {row_no}: cluster {cluster!r} is not an integer")
    if not labels:
        raise DataFormatError(f"{path}: no labels found")
    return labels


def save_cluster_labels(labels: Mapping[str, int], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        w.writerow(["id", "cluster"])
        for sid, cluster in labels.items():
            w.writerow([sid, int(cluster)])


def save_alphabet(alphabet: StateAlphabet, path, **extra) -> None:
    """Write the alphabet manifest as deterministic JSON."""
    payload = {"labels": list(alphabet.labels)}
    payload.update(extra)
    write_json(payload, path)


def load_alphabet(path) -> StateAlphabet:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        return StateAlphabet(tuple(payload["labels"]))
    except (KeyError, TypeError):
        raise DataFormatError(f"{path}: not an alphabet manifest")


def write_json(payload, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
