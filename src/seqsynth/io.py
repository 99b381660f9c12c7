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
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping

import numpy as np

from .core import ContinuousSeries, Corpus, StateAlphabet, episode_table
from .errors import ConfigError, DataFormatError

INTERVAL = "interval"
EPISODE = "episode"
CONTINUOUS = "continuous"
CORPUS_FORMATS = (INTERVAL, EPISODE)

# the longest episode-CSV day, checked before the matrix is allocated; a
# year of one-minute intervals (525,600) fits
_MAX_DAY = 2**20


def _rows(fh) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row_no, cells)`` for each CSV row of ``fh``, numbered from 1.

    Rows stream through ``csv.reader``, so quoted fields may hold commas,
    quotes and line breaks.  Bytes that are not UTF-8 and malformed CSV
    raise :class:`DataFormatError` naming the file.
    """
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            yield row_no, row
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.start + 1]
        raise DataFormatError(
            f"{fh.name}: byte {bad!r} is not UTF-8 ({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise DataFormatError(f"{fh.name}: row {row_no + 1}: {exc}") from None


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _quoted(fields: Iterable[str]) -> list[str]:
    """Each field as ``csv.writer`` writes it within a row of several.

    A field with a CR is always quoted: ``csv.writer`` quotes only the
    characters of its LF line terminator, and a bare CR would split the row
    when read back.
    """
    lines: list[str] = []
    _writer(SimpleNamespace(write=lines.append)).writerows((f, "") for f in fields)
    fields = [line[:-2] for line in lines]  # drop the empty field's "," and "\n"
    # an unquoted field holds no quote character, so it needs no escaping
    return [f'"{f}"' if "\r" in f and not f.startswith('"') else f for f in fields]


def _check_new_ids(seen: set, sid: str, row_no: int) -> None:
    if not sid:
        raise DataFormatError(f"row {row_no}: empty sequence id")
    if sid in seen:
        raise DataFormatError(f"row {row_no}: duplicate sequence id {sid!r}")
    seen.add(sid)


def _codes(labels: list[str], codes: dict[str, int]) -> np.ndarray:
    """Provisional codes of ``labels``; a label new to ``codes`` gets the next code."""
    try:
        return np.fromiter(map(codes.__getitem__, labels), np.int32, len(labels))
    except KeyError:
        for label in dict.fromkeys(labels):
            codes.setdefault(label, len(codes))
        return np.fromiter(map(codes.__getitem__, labels), np.int32, len(labels))


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
    is given).  With an ``alphabet``, a file holding only its header (what
    saving an empty corpus writes) loads as the empty corpus.

    Rows stream from the file: each is checked and mapped to provisional
    codes as it is read, and one permutation gives the final codes, so
    memory holds the codes and one row of text rather than the whole file.
    """
    if format not in CORPUS_FORMATS:
        raise ConfigError(f"unknown corpus format {format!r}")
    given = () if alphabet is None else alphabet.labels
    codes = {label: i for i, label in enumerate(given)}
    read = _read_interval if format == INTERVAL else _read_episode
    with open(path, "r", encoding="utf-8", newline="") as fh:
        ids, to_matrix = read(_rows(fh), path, codes)
    if not ids:
        if alphabet is None:
            raise DataFormatError(f"{path}: no sequences found")
        return Corpus(alphabet, np.empty((0, 0), alphabet.cell_dtype), (), interval_minutes)

    unknown = sorted(list(codes)[len(given):])
    if unknown and alphabet is not None and not extend_alphabet:
        raise DataFormatError(
            f"unknown state labels {unknown[:5]} (alphabet extension disabled)"
        )
    if unknown:
        alphabet = StateAlphabet(given + tuple(unknown))
    final = {label: i for i, label in enumerate(alphabet.labels)}
    perm = np.array([final[label] for label in codes], dtype=alphabet.cell_dtype)
    return Corpus(alphabet, to_matrix(perm), tuple(ids), interval_minutes)


def _read_interval(rows, path, codes: dict[str, int]):
    """Ids and a map from the code permutation to the matrix, row by row."""
    _, header = next(rows, (1, []))
    if not header or header[0] != "id":
        raise DataFormatError(f"{path}: expected interval CSV header 'id,s1,...'")
    width = len(header) - 1
    if width < 1:
        # only an empty corpus saves without columns
        if any(row for _, row in rows):
            raise DataFormatError(f"{path}: header declares no interval columns")
        return [], None
    ids: list[str] = []
    cells: list[np.ndarray] = []
    seen: set[str] = set()
    for row_no, row in rows:
        if not row:
            continue
        if len(row) - 1 != width:
            raise DataFormatError(
                f"row {row_no}: has {len(row) - 1} cells, expected {width}"
            )
        sid = row.pop(0)
        _check_new_ids(seen, sid, row_no)
        ids.append(sid)
        cells.append(_codes(row, codes))

    def to_matrix(perm: np.ndarray) -> np.ndarray:
        mat = np.empty((len(cells), width), perm.dtype)
        for i, row_codes in enumerate(cells):
            mat[i] = perm[row_codes]
        return mat

    return ids, to_matrix


def _read_episode(rows, path, codes: dict[str, int]):
    """Ids and a map from the code permutation to the matrix, one day per id."""
    _, header = next(rows, (1, []))
    if header != ["id", "state", "duration"]:
        raise DataFormatError(f"{path}: expected episode CSV header 'id,state,duration'")
    ids: list[str] = []
    lengths: list[int] = []  # exact Python ints, so a huge day cannot wrap
    states: list[int] = []
    durations: list[int] = []
    seen: set[str] = set()
    current: str | None = None
    for row_no, row in rows:
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"row {row_no}: expected 3 cells, got {len(row)}")
        sid, state, dur_text = row
        if sid != current:
            _check_new_ids(seen, sid, row_no)
            current = sid
            ids.append(sid)
            lengths.append(0)
        try:
            dur = int(dur_text)
        except ValueError:
            raise DataFormatError(f"row {row_no}: duration {dur_text!r} is not an integer")
        if dur < 1:
            raise DataFormatError(f"row {row_no}: duration must be at least 1")
        states.append(codes.setdefault(state, len(codes)))
        durations.append(dur)
        lengths[-1] += dur

    def to_matrix(perm: np.ndarray) -> np.ndarray:
        for sid, length in zip(ids, lengths):
            if length > _MAX_DAY:
                raise DataFormatError(
                    f"sequence {sid!r} has length {length}, more than {_MAX_DAY} intervals"
                )
            if length != lengths[0]:
                raise DataFormatError(
                    f"sequence {sid!r} has length {length}, expected {lengths[0]}"
                )
        return np.repeat(perm[states], durations).reshape(len(ids), lengths[0])

    return ids, to_matrix


def save_corpus(corpus: Corpus, path, format: str = INTERVAL) -> None:
    if format not in CORPUS_FORMATS:
        raise ConfigError(f"unknown corpus format {format!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        if format == INTERVAL:
            w.writerow(["id"] + [f"s{i + 1}" for i in range(corpus.length)])
            cells = np.array(_quoted(corpus.alphabet.labels), dtype=object)
            for sid, row in zip(_quoted(corpus.ids), corpus.states_matrix):
                fh.write(f"{sid},{','.join(cells[row].tolist())}\n")
        else:
            w.writerow(["id", "state", "duration"])
            ids = _quoted(corpus.ids)
            labels = np.array(_quoted(corpus.alphabet.labels), dtype=object)
            rows, _, states, durations = episode_table(corpus.states_matrix)
            cells = zip(rows.tolist(), labels[states].tolist(), durations.tolist())
            fh.writelines(f"{ids[row]},{label},{dur}\n" for row, label, dur in cells)


def load_continuous(path, on_missing: str = "error") -> list[ContinuousSeries]:
    """Read continuous series; missing cells either raise or drop the row."""
    if on_missing not in ("error", "drop"):
        raise ConfigError("on_missing must be 'error' or 'drop'")
    out: list[ContinuousSeries] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _rows(fh)
        _, header = next(rows, (1, []))
        if not header or header[0] != "id":
            raise DataFormatError(f"{path}: expected continuous CSV header 'id,v1,...'")
        width = len(header) - 1
        for row_no, row in rows:
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
    labels: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _rows(fh)
        if next(rows, (1, []))[1] != ["id", "cluster"]:
            raise DataFormatError(f"{path}: expected cluster CSV header 'id,cluster'")
        for row_no, row in rows:
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
