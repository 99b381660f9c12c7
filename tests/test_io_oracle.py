"""The streaming CSV reader and writers against the whole-file parser they replaced.

The reference below is the former ``io.load_corpus``/``io.save_corpus``
(``csv.reader`` over the whole file into string lists, then a label lookup
per row).  The streaming versions must write the same bytes, load the same
``Corpus`` and raise the same errors, on files with quoted commas, quotes
and line breaks, unicode, CRLF endings, blank lines and no final newline.
The deliberate differences: a file holding only its header now loads as
the empty corpus when an alphabet is given, and where the oracle let a
``csv.Error`` escape the streaming load raises a ``DataFormatError``.

The streaming load decodes plain interval lines (no quote, CR or NUL) in
blocks of bytes and hands the rest of the file to ``csv.reader`` from the
first line that is not plain, so the cases below also cover files of many
blocks, labels longer than one 64-bit word, labels sharing a prefix, a
switch to ``csv.reader`` part-way, csv's field-size limit and forced
collisions of the field hash.
"""

from __future__ import annotations

import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsynth import ContinuousSeries, Corpus, DataFormatError, StateAlphabet
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
        # a duration is ASCII digits, signed or not: int() alone takes " 2"
        if not (dur_text.isascii() and dur_text.removeprefix("-").isdigit()):
            raise DataFormatError(f"row {row_no}: duration {dur_text!r} is not an integer")
        dur = int(dur_text)
        if dur < 1:
            raise DataFormatError(f"row {row_no}: duration must be at least 1")
        out[-1].extend([state] * dur)
    return ids, out


def oracle_load_continuous(path, on_missing="error"):
    """The former per-cell loop: strip, float, NaN and sign checks, left to right."""
    rows = _read_rows(path)
    if not rows or not rows[0] or rows[0][0] != "id":
        raise DataFormatError(f"{path}: expected continuous CSV header 'id,v1,...'")
    width = len(rows[0]) - 1
    out, seen = [], set()
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) - 1 != width:
            raise DataFormatError(f"row {row_no}: has {len(row) - 1} cells, expected {width}")
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
                    raise DataFormatError(f"row {row_no}, column {col}: cannot parse {cell!r}")
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
# labels csv.writer leaves unquoted: longer than 8 bytes, sharing their
# first 8 bytes, prefixes of one another, and non-ASCII
PLAIN_LABELS = [
    "rest", "restless", "moderate", "moderately", "vigorous", "x" * 16,
    "x" * 17, "café", "中文状态", "naïve-activity",
]
# block sizes of the plain-line decoder: a line per block, a few lines, default
BLOCKS = [1, 64, seqio._BLOCK_CHARS]


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
    labels = draw(
        st.one_of(
            _unique_fields(1, 4),
            st.lists(st.sampled_from(PLAIN_LABELS), min_size=1, max_size=5, unique=True),
        )
    )
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
    block=st.sampled_from(BLOCKS),
)
def test_load_matches_oracle_on_written_text(scratch, fmt_text, alphabet, extend, block):
    fmt, text = fmt_text
    path = scratch / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seqio, "_BLOCK_CHARS", block)
        _check_load(path, text, fmt, alphabet, extend)


# ---------------------------------------------------------------------------
# the plain-line block decoder, case by case


def _plain_rows(labels, n_rows, width, seed, first_id=0):
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(labels), size=(n_rows, width))
    return [
        ",".join([f"d{first_id + i}"] + [labels[j] for j in row]) + "\n"
        for i, row in enumerate(picks.tolist())
    ]


def _header(width):
    return ",".join(["id"] + [f"s{i + 1}" for i in range(width)]) + "\n"


def _later_block_label():
    # two blocks of 256K characters before "vigorous" and "moderately" appear
    rows = _plain_rows(["rest", "light"], 1100, 100, seed=1)
    rows += _plain_rows(["vigorous", "moderately", "rest"], 3, 100, seed=2, first_id=1100)
    return _header(100) + "".join(rows)


def _switch_then(later):
    # plain rows, a quoted row (one record over two lines), plain rows again, then ``later``
    rows = _plain_rows(PLAIN_LABELS, 6, 4, seed=3)
    rows.append('d6,"a\nb",rest,"x,y",rest\n')
    rows += _plain_rows(PLAIN_LABELS, 3, 4, seed=4, first_id=7)
    return _header(4) + "".join(rows) + later


PLAIN_FILES = {
    "later-block-label": _later_block_label(),
    "long-and-shared-prefix": _header(6) + "".join(_plain_rows(PLAIN_LABELS, 40, 6, seed=5)),
    "prefix-and-unicode": _header(3)
    + "".join(_plain_rows(["rest", "restless", "re", "中", "中文", "é"], 30, 3, seed=6)),
    "switch-to-csv": _switch_then(""),
    "switch-then-ragged": _switch_then("d10,rest\n"),
    "switch-then-duplicate-id": _switch_then("d2,rest,rest,rest,rest\n"),
    "ragged-before-switch": _header(2) + "a,rest,rest\nb,rest\nc,\"rest\",rest\n",
    "duplicate-id-in-block": _header(2) + "a,rest,rest\nb,x,y\na,rest,rest\n",
    "empty-id": _header(2) + "a,rest,rest\n,rest,rest\n",
    "blank-lines-no-final-newline": _header(2) + "\na,rest,moderately\n\n\nb,rest,中文",
    "empty-cell": _header(2) + "a,rest,\nb,rest,rest\n",
    "only-blank-lines": _header(2) + "\n\n",
    "nul-in-label": _header(2) + "a,rest,x\0y\nb,rest,rest\n",
}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(PLAIN_FILES))
def test_plain_files_match_oracle(scratch, monkeypatch, name, block):
    text = PLAIN_FILES[name]
    path = scratch / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(seqio, "_BLOCK_CHARS", block)
    for alphabet, extend in (
        (None, True),
        (StateAlphabet(("rest", "vigorous")), True),
        (StateAlphabet(("rest", "vigorous")), False),
        (StateAlphabet(tuple(PLAIN_LABELS)), False),
    ):
        _check_load(path, text, "interval", alphabet, extend)


@pytest.mark.parametrize("prime", [0, 1])
def test_hash_collisions_cost_speed_not_codes(scratch, monkeypatch, prime):
    # with multiplier 0 a key is a field's last word, with 1 its length plus
    # its words' sum: these labels then share keys with labels of another
    # length or with other labels of their own length.  A given label with
    # NULs (which no plain field holds) then matches field "XY" in key and
    # in the field's one word, and only its length tells them apart.
    labels = ["aaaaaaaaXY", "bbbbbbbbXY", "XY", "ZZ", "aaaaaaaaaaaaaaaaZZ", "YX", "XZ"]
    text = _header(8) + "".join(_plain_rows(labels, 50, 8, seed=7))
    path = scratch / "collide.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(seqio, "_PRIME", np.uint64(prime))
    monkeypatch.setattr(seqio, "_BLOCK_CHARS", 200)
    for alphabet in (
        None,
        StateAlphabet(("XY", "aaaaaaaaXY")),
        StateAlphabet(("XY" + "\0" * 6 + "XY", "ZZ")),
    ):
        _check_load(path, text, "interval", alphabet, True)


@pytest.mark.parametrize(
    "row, ok",
    [
        ("b," + "x" * 16 + ",rest", True),
        ("b," + "x" * 17 + ",rest", False),
        ("b" * 17 + ",rest,rest", False),
        ("b," + ",".join(["abcdefgh"] * 2) + "", True),
    ],
    ids=["at-limit", "cell-over-limit", "id-over-limit", "long-line-short-fields"],
)
def test_unquoted_field_over_csv_limit(scratch, row, ok):
    # csv's own limit, shrunk so the line is short; a line longer than the
    # limit is checked, a field of exactly the limit is allowed
    text = _header(2) + "a,rest,rest\n" + row + "\nc,rest,rest\n"
    path = scratch / "limit.csv"
    path.write_bytes(text.encode("utf-8"))
    old = csv.field_size_limit(16)
    try:
        got = _outcome(seqio.load_corpus, path)
        _check_load(path, text, "interval", None, True)
    finally:
        csv.field_size_limit(old)
    if ok:
        assert isinstance(got, Corpus)
    else:
        assert str(got) == f"{path}: row 3: field larger than field limit (16)"


# ---------------------------------------------------------------------------
# continuous series: one conversion per row against the per-cell loop

# cells that parse, are blank, missing, negative, non-finite or unparsable
VALUE = st.sampled_from(
    ["0", "1", "12.5", " 3 ", "-0.0", "1_0", "", " ", "nan", "-2", "-inf", "inf", "x", "1e400"]
)


@st.composite
def continuous_texts(draw) -> str:
    width = draw(st.integers(1, 4))
    lines = [",".join(["id"] + [f"v{i + 1}" for i in range(width)]) + "\n"]
    for i in range(draw(st.integers(1, 4))):
        cells = draw(st.lists(VALUE, min_size=width, max_size=width))
        cells = _mostly(draw, st.just(cells), st.lists(VALUE, max_size=width + 2), odds=20)
        lines.append(",".join([f"d{i}"] + cells) + "\n")
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=continuous_texts(), on_missing=st.sampled_from(["error", "drop"]))
def test_continuous_load_matches_oracle(scratch, text, on_missing):
    path = scratch / "continuous.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(oracle_load_continuous, path, on_missing=on_missing)
    got = _outcome(seqio.load_continuous, path, on_missing=on_missing)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want), (got, want)
    else:
        assert got == want
