"""The streaming CSV reader and writers against the whole-file parser they replaced.

The reference below is the former ``io.load_corpus``/``io.save_corpus``
(``csv.reader`` over the whole file into string lists, then a label lookup
per row).  The streaming versions must write the same bytes, load the same
``Corpus`` and raise the same errors, on files with quoted commas, quotes
and line breaks, unicode, CRLF endings, blank lines and no final newline.
The deliberate differences: a file holding only its header now loads as
the empty corpus when an alphabet is given, and where the oracle let a
``csv.Error`` escape the streaming load raises a ``DataFormatError``.
"""

from __future__ import annotations

import csv
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import Corpus, DataFormatError, StateAlphabet
from seqsynth import io as seqio
from seqsynth.core import episode_table
from seqsynth.errors import ConfigError

# ---------------------------------------------------------------------------
# reference: the whole-file parser


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


def oracle_load_corpus(
    path, format="interval", *, alphabet=None, extend_alphabet=True, interval_minutes=1
) -> Corpus:
    if format == "interval":
        ids, label_rows = _parse_interval(path)
    elif format == "episode":
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


def _parse_interval(path):
    rows = _read_rows(path)
    if not rows or not rows[0] or rows[0][0] != "id":
        raise DataFormatError(f"{path}: expected interval CSV header 'id,s1,...'")
    width = len(rows[0]) - 1
    if width < 1:
        raise DataFormatError(f"{path}: header declares no interval columns")
    ids, out, seen = [], [], set()
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


def _parse_episode(path):
    rows = _read_rows(path)
    if not rows or rows[0] != ["id", "state", "duration"]:
        raise DataFormatError(f"{path}: expected episode CSV header 'id,state,duration'")
    ids, out, seen = [], [], set()
    current = None
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


def oracle_save_corpus(corpus: Corpus, path, format="interval") -> None:
    labels = np.array(corpus.alphabet.labels, dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        if format == "interval":
            w.writerow(["id"] + [f"s{i + 1}" for i in range(corpus.length)])
            for sid, row in zip(corpus.ids, corpus.states_matrix):
                w.writerow([sid] + labels[row].tolist())
        else:
            w.writerow(["id", "state", "duration"])
            rows, _, states, durations = episode_table(corpus.states_matrix)
            ids = [corpus.ids[r] for r in rows.tolist()]
            w.writerows(zip(ids, labels[states].tolist(), durations.tolist()))


# ---------------------------------------------------------------------------
# inputs

# characters that CSV must quote or that end a line, plus unicode (a line
# separator that files do not split on, among them) and surrounding spaces
TRICKY = st.sampled_from(
    [",", '"', "\n", "\r", "\r\n", " ", "\u00a0", "é", "中", "\u2028", "\x00"]
)
PLAIN = st.sampled_from(["home", "work", "a", "b", "x y", "café", "3"])
FIELD = st.lists(st.one_of(PLAIN, PLAIN, TRICKY), min_size=1, max_size=4).map("".join)


def _unique_fields(min_size, max_size):
    return st.lists(FIELD, min_size=min_size, max_size=max_size, unique=True)


@st.composite
def corpora(draw) -> Corpus:
    labels = draw(_unique_fields(1, 5))
    n = _mostly(draw, st.integers(1, 5), st.just(0))
    length = draw(st.integers(1, 6)) if n else 0
    ids = draw(_unique_fields(n, n))
    cells = draw(
        st.lists(
            st.lists(st.integers(0, len(labels) - 1), min_size=length, max_size=length),
            min_size=n,
            max_size=n,
        )
    )
    mat = np.array(cells, dtype=np.int64).reshape(n, length)
    return Corpus(StateAlphabet(tuple(labels)), mat, tuple(ids))


def _csv_line(cells, ending):
    """One row as csv.writer writes it."""
    out = io.StringIO()
    csv.writer(out, lineterminator=ending).writerow(cells)
    return out.getvalue()


def _mostly(draw, good, bad, odds=8):
    """``good`` most of the time, else ``bad``: malformed input stays rare."""
    return draw(bad) if draw(st.integers(0, odds)) == 0 else draw(good)


def _ending(draw) -> str:
    return draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))


@st.composite
def interval_texts(draw) -> str:
    width = _mostly(draw, st.integers(1, 3), st.just(0))
    header = _mostly(draw, st.just("id"), st.sampled_from(["ID", "", " id"]))
    lines = [_csv_line([header] + [f"s{i + 1}" for i in range(width)], _ending(draw))]
    labels = draw(_unique_fields(1, 4))
    ids = _mostly(draw, _unique_fields(1, 5), st.just([]))
    for sid in ids:
        sid = _mostly(draw, st.just(sid), st.sampled_from(["", ids[0]]), odds=20)
        cells = draw(st.lists(st.sampled_from(labels), min_size=width, max_size=width))
        cells = _mostly(draw, st.just(cells), st.lists(FIELD, max_size=width + 2), odds=20)
        lines.append(_csv_line([sid] + cells, _ending(draw)))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["\n", "\r\n"])))  # blank line
    return _finish(draw, lines)


@st.composite
def episode_texts(draw) -> str:
    header = _mostly(
        draw, st.just("id,state,duration"), st.sampled_from(["id,state", "id,s1"])
    )
    lines = [header + _ending(draw)]
    labels = draw(_unique_fields(1, 4))
    for sid in _mostly(draw, _unique_fields(1, 4), st.just([])):
        for _ in range(draw(st.integers(1, 3))):
            dur = _mostly(
                draw,
                st.integers(1, 3).map(str),
                st.sampled_from(["0", "-1", "x", " 2", "2.0", ""]),
                odds=20,
            )
            cells = [sid, draw(st.sampled_from(labels)), dur]
            cells = _mostly(draw, st.just(cells), st.lists(FIELD, max_size=4), odds=20)
            lines.append(_csv_line(cells, _ending(draw)))
    return _finish(draw, lines)


def _finish(draw, lines) -> str:
    text = "".join(lines)
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]  # no final newline
    return text


ALPHABETS = st.sampled_from(
    [
        None,
        StateAlphabet(("home",)),
        StateAlphabet(("work", "home", "a")),
        StateAlphabet(("b", "café", ",", '"')),
    ]
)


# ---------------------------------------------------------------------------
# comparison


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


def _outcome(load, path, **kw):
    try:
        return load(path, **kw)
    except (DataFormatError, ConfigError, csv.Error) as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, csv.Error):
        # the oracle let csv errors escape (NUL before Python 3.11) before
        # checking any row; the streaming load wraps one with the file and
        # row, or first meets a fault in an earlier row
        assert isinstance(got, DataFormatError), (got, want)
        return
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
        return
    assert isinstance(got, Corpus), got
    assert got.alphabet == want.alphabet
    assert got.ids == want.ids
    assert got.interval_minutes == want.interval_minutes
    assert got.states_matrix.dtype == want.states_matrix.dtype
    assert np.array_equal(got.states_matrix, want.states_matrix)


def _data_rows(text: str) -> list[list[str]] | None:
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error:  # NUL before Python 3.11
        return None
    return [row for row in rows[1:] if row]


def _check_load(path, text, fmt, alphabet, extend):
    kw = {"alphabet": alphabet, "extend_alphabet": extend, "interval_minutes": 5}
    want = _outcome(oracle_load_corpus, path, format=fmt, **kw)
    got = _outcome(seqio.load_corpus, path, format=fmt, **kw)
    header_only = _data_rows(text) == []
    if header_only and not (
        isinstance(want, DataFormatError) and "expected" in str(want)
    ):
        # the one change: a header-only file is an empty corpus, given labels
        if alphabet is None:
            assert isinstance(got, DataFormatError)
        else:
            assert got == Corpus(alphabet, np.empty((0, 0)), (), 5)
        return
    _assert_same(got, want)


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), fmt=st.sampled_from(["interval", "episode"]))
def test_save_bytes_and_round_trip_match_oracle(scratch, corpus, fmt):
    mine, ref = scratch / f"mine-{fmt}.csv", scratch / f"ref-{fmt}.csv"
    seqio.save_corpus(corpus, mine, fmt)
    oracle_save_corpus(corpus, ref, fmt)
    if any(re.search("\r(?!\n)", f) for f in corpus.alphabet.labels + corpus.ids):
        # the oracle leaves a bare CR unquoted, so its file splits that row;
        # the quoted one must load back as the corpus saved
        got = seqio.load_corpus(mine, fmt, alphabet=corpus.alphabet, extend_alphabet=False)
        assert got == corpus
    else:
        assert mine.read_bytes() == ref.read_bytes()
    text = mine.read_bytes().decode("utf-8")
    for alphabet, extend in (
        (None, True),
        (corpus.alphabet, False),
        (StateAlphabet(corpus.alphabet.labels[:1]), True),
        (StateAlphabet(corpus.alphabet.labels[:1]), False),
    ):
        _check_load(mine, text, fmt, alphabet, extend)


@settings(max_examples=300, deadline=None)
@given(
    fmt_text=st.one_of(
        interval_texts().map(lambda text: ("interval", text)),
        episode_texts().map(lambda text: ("episode", text)),
    ),
    alphabet=ALPHABETS,
    extend=st.booleans(),
)
def test_load_matches_oracle_on_written_text(scratch, fmt_text, alphabet, extend):
    fmt, text = fmt_text
    path = scratch / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    _check_load(path, text, fmt, alphabet, extend)
