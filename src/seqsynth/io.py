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
from itertools import chain
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

# characters of plain interval lines decoded together; a block's array
# temporaries are a few times this size
_BLOCK_CHARS = 1 << 18
# NUL padding after a block, so a 64-bit word read at any field start fits
_PAD = "\0" * 8
# _MASKS[n] keeps the low n bytes of a little-endian 64-bit word
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
# an odd multiplier, so each step of the field hash is a bijection
_PRIME = np.uint64(0x9E3779B97F4A7C15)


def _rows(lines, name, row_no: int = 0) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(row_no, cells)`` for each CSV row of ``lines``, numbered on from ``row_no``.

    Rows stream through ``csv.reader``, so quoted fields may hold commas,
    quotes and line breaks.  Bytes that are not UTF-8 and malformed CSV
    raise :class:`DataFormatError` naming the file ``name``.
    """
    try:
        for row_no, row in enumerate(csv.reader(lines), start=row_no + 1):
            yield row_no, row
    except UnicodeDecodeError as exc:
        raise _not_utf8(name, exc) from None
    except csv.Error as exc:
        raise DataFormatError(f"{name}: row {row_no + 1}: {exc}") from None


def _not_utf8(name, exc: UnicodeDecodeError) -> DataFormatError:
    bad = exc.object[exc.start:exc.start + 1]
    return DataFormatError(f"{name}: byte {bad!r} is not UTF-8 ({exc.reason})")


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_csv(rows: Iterable[Iterable], path) -> None:
    """Write ``rows`` as CSV, making the parent directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _writer(fh).writerows(rows)


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


def _integer(text: str, what: str, row_no: int) -> int:
    """ASCII digits after an optional ``-``: ``int`` would also read "1_0" and " 5"."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise DataFormatError(f"row {row_no}: {what} {text!r} is not an integer")


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

    Rows stream from the file: each is checked as it is read and mapped
    to provisional codes (interval lines a block at a time), and one
    permutation gives the final codes, so memory holds the codes and one
    block of text rather than the whole file.
    """
    if format not in CORPUS_FORMATS:
        raise ConfigError(f"unknown corpus format {format!r}")
    given = () if alphabet is None else alphabet.labels
    codes = {label: i for i, label in enumerate(given)}
    read = _read_interval if format == INTERVAL else _read_episode
    with open(path, "r", encoding="utf-8", newline="") as fh:
        ids, to_matrix = read(fh, path, codes)
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


def _read_interval(fh, path, codes: dict[str, int]):
    """Ids and a map from the code permutation to the matrix.

    Each line is checked as it is read (width, id), and plain lines are
    decoded to codes a block at a time (:class:`_BlockDecoder`); a CRLF line
    end counts as plain.  From the first line holding a quote, NUL or any
    other CR, the rest of the file streams through ``csv.reader`` instead,
    a row at a time.
    """
    lines = iter(fh)
    _, header = next(_rows(lines, fh.name), (1, []))
    if not header or header[0] != "id":
        raise DataFormatError(f"{path}: expected interval CSV header 'id,s1,...'")
    width = len(header) - 1
    if width < 1:
        # only an empty corpus saves without columns
        if any(row for _, row in _rows(lines, fh.name, 1)):
            raise DataFormatError(f"{path}: header declares no interval columns")
        return [], None
    ids: list[str] = []
    seen: set[str] = set()

    def add(row_no: int, n_cells: int, sid: str) -> None:
        if n_cells != width:
            raise DataFormatError(f"row {row_no}: has {n_cells} cells, expected {width}")
        _check_new_ids(seen, sid, row_no)
        ids.append(sid)

    decoder = _BlockDecoder(codes, width)
    chunks: list[np.ndarray] = []  # (rows, width) provisional codes
    block: list[str] = []
    size = 0
    rest = ()
    limit = csv.field_size_limit()
    try:
        for row_no, line in enumerate(lines, start=2):
            # a CRLF line end reads as LF; any other CR is for csv.reader
            plain = line[:-2] + "\n" if line.endswith("\r\n") else line
            if '"' in plain or "\r" in plain or "\0" in plain:
                rest = _rows(chain([line], lines), fh.name, row_no - 1)
                break
            line = plain
            if line == "\n":
                continue
            if len(line) > limit:
                for _ in _rows([line], fh.name, row_no - 1):  # csv's field-size error
                    pass
            add(row_no, line.count(","), line[:line.find(",")])
            block.append(line)
            size += len(line)
            if size >= _BLOCK_CHARS:
                chunks.append(decoder.decode(block))
                block, size = [], 0
    except UnicodeDecodeError as exc:
        raise _not_utf8(fh.name, exc) from None
    if block:
        chunks.append(decoder.decode(block))
    for row_no, row in rest:
        if row:
            add(row_no, len(row) - 1, row[0])
            chunks.append(_codes(row[1:], codes)[None])

    def to_matrix(perm: np.ndarray) -> np.ndarray:
        mat = np.empty((len(ids), width), perm.dtype)
        end = 0
        for chunk in chunks:
            end += len(chunk)
            np.take(perm, chunk, out=mat[end - len(chunk):end])
        return mat

    return ids, to_matrix


class _BlockDecoder:
    """Provisional codes of plain interval lines, decoded as arrays.

    A plain line holds no quote, CR or NUL, so its fields are the text
    between commas and the final newline.  Each field is keyed by a hash of
    its length and its bytes, read as masked 64-bit words, and looked up in
    the labels of ``codes`` sorted by the same key; a match counts only when
    its length and every word agree, so a hash collision costs speed, never
    a wrong code.  The bytes of an unmatched key are decoded once and added
    to ``codes``.
    """

    def __init__(self, codes: dict[str, int], width: int):
        self.codes = codes
        self.width = width
        self._build()

    def decode(self, lines: list[str]) -> np.ndarray:
        """The ``(len(lines), width)`` codes, in the smallest unsigned dtype."""
        # the last line of a file may lack its newline
        tail = _PAD if lines[-1].endswith("\n") else "\n" + _PAD
        buf = "".join([*lines, tail]).encode("utf-8")
        text = np.frombuffer(buf, np.uint8)
        sep = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
        sep = sep.reshape(-1, self.width + 1)
        starts = sep[:, :-1] + 1
        lengths = (sep[:, 1:] - starts).ravel()
        starts = starts.ravel()
        key, words = _field_keys(buf, starts, lengths)
        out, hit = self._find(key, lengths, words)
        if not hit.all():
            miss = np.flatnonzero(~hit)
            _, first = np.unique(key[miss], return_index=True)

            def label(i: int) -> str:
                return buf[starts[i]:starts[i] + lengths[i]].decode("utf-8")

            for i in miss[first]:
                self.codes.setdefault(label(i), len(self.codes))
            out, hit = self._find(key, lengths, words)
            miss = np.flatnonzero(~hit)
            if miss.size:  # labels whose keys collide: one field at a time
                found = [self.codes.setdefault(label(i), len(self.codes)) for i in miss]
                out = out.astype(_code_dtype(len(self.codes)))
                out[miss] = found
        return out.reshape(-1, self.width)

    def _find(self, key, lengths, words):
        """Each field's code, and whether the field is exactly that label."""
        if self.size != len(self.codes):
            self._build()
        if not self.size:
            return np.zeros(len(key), np.uint8), np.zeros(len(key), bool)
        pos = np.searchsorted(self.keys, key)
        np.minimum(pos, self.size - 1, out=pos)
        hit = (self.keys[pos] == key) & (self.lengths[pos] == lengths)
        for k, (rows, w) in enumerate(words):
            if k == self.words.shape[1]:
                hit[rows] = False  # longer than every label
                break
            hit[rows] &= self.words[pos[rows], k] == w
        return self.code[pos], hit

    def _build(self) -> None:
        """Sort the labels of ``codes`` by key; ``size`` is how many there were."""
        raw = [label.encode("utf-8") for label in self.codes]
        self.size = len(raw)
        lengths = np.fromiter(map(len, raw), np.int64, self.size)
        starts = np.cumsum(lengths) - lengths
        key, words = _field_keys(b"".join(raw) + _PAD.encode(), starts, lengths)
        order = np.argsort(key, kind="stable")
        self.keys = key[order]
        self.lengths = lengths[order]
        code = np.fromiter(self.codes.values(), np.int64, self.size)
        self.code = code[order].astype(_code_dtype(self.size))
        table = np.zeros((self.size, len(words)), np.uint64)
        for k, (rows, w) in enumerate(words):
            table[rows, k] = w
        self.words = table[order]


def _field_keys(buf: bytes, starts: np.ndarray, lengths: np.ndarray):
    """Each field's key, and per word index k the fields longer than 8k bytes with their word k.

    ``buf`` ends in 8 NUL bytes, so a 64-bit word read at any field start
    stays inside it.  Word k enters a field's key only when the field is
    longer than 8k bytes (k = 0 always), so the key depends on the field alone.
    """
    view = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))
    w = view[starts] & _MASKS[np.minimum(lengths, 8)]
    key = lengths.astype(np.uint64) * _PRIME + w
    words = [(slice(None), w)]
    for k in range(8, int(lengths.max(initial=0)), 8):
        rows = np.flatnonzero(lengths > k)
        w = view[starts[rows] + k] & _MASKS[np.minimum(lengths[rows] - k, 8)]
        key[rows] = key[rows] * _PRIME + w
        words.append((rows, w))
    return key, words


def _code_dtype(n_codes: int) -> np.dtype:
    """Smallest unsigned integer type that holds codes ``0..n_codes - 1``."""
    return np.min_scalar_type(max(n_codes - 1, 0))


def _read_episode(fh, path, codes: dict[str, int]):
    """Ids and a map from the code permutation to the matrix, one day per id."""
    rows = _rows(fh, fh.name)
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
        dur = _integer(dur_text, "duration", row_no)
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
        rows = _rows(fh, fh.name)
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
            try:
                values = np.fromiter(map(float, row[1:]), np.float64, width)
            except ValueError:  # an empty or unparsable cell: find the first fault
                values = _parse_cells(row, row_no)
            bad = np.flatnonzero(np.isnan(values) | (values < 0))
            if bad.size:
                col = int(bad[0])
                if not np.isnan(values[col]):
                    raise DataFormatError(f"row {row_no}, column {col + 2}: negative value")
                if on_missing == "error":
                    raise DataFormatError(f"row {row_no}, column {col + 2}: missing value")
                continue
            out.append(ContinuousSeries(values, row[0]))
    if not out:
        raise DataFormatError(f"{path}: no usable series found")
    return out


def _parse_cells(row: list[str], row_no: int) -> np.ndarray:
    """The values of ``row[1:]``, NaN for a blank cell, read up to a cell that does not parse.

    That cell raises, unless an earlier value is missing or negative: the
    first such column decides the row, as in a loop that stops at it.
    """
    values = np.full(len(row) - 1, math.nan)
    for col, cell in enumerate(row[1:]):
        text = cell.strip()
        try:
            values[col] = float(text) if text else math.nan
        except ValueError:
            if (np.isnan(values[:col]) | (values[:col] < 0)).any():
                return values
            raise DataFormatError(
                f"row {row_no}, column {col + 2}: cannot parse {cell!r}"
            ) from None
    return values


def save_continuous(series_list: Iterable[ContinuousSeries], path) -> None:
    series_list = list(series_list)
    n = len(series_list[0]) if series_list else 0
    rows = ([s.id] + [repr(float(v)) for v in s.values] for s in series_list)
    write_csv(chain([["id"] + [f"v{i + 1}" for i in range(n)]], rows), path)


def load_cluster_labels(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = _rows(fh, fh.name)
        if next(rows, (1, []))[1] != ["id", "cluster"]:
            raise DataFormatError(f"{path}: expected cluster CSV header 'id,cluster'")
        for row_no, row in rows:
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"row {row_no}: expected 2 cells, got {len(row)}")
            sid, cluster = row
            _check_new_ids(seen, sid, row_no)
            labels[sid] = _integer(cluster, "cluster", row_no)
    if not labels:
        raise DataFormatError(f"{path}: no labels found")
    return labels


def save_cluster_labels(labels: Mapping[str, int], path) -> None:
    rows = ([sid, int(cluster)] for sid, cluster in labels.items())
    write_csv(chain([["id", "cluster"]], rows), path)


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
