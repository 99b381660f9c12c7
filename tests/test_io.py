import re
import tracemalloc

import numpy as np
import pytest

from seqsynth import Corpus, DataFormatError, StateAlphabet
from seqsynth import io as seqio

from _groundtruth import activity_ground_truth


@pytest.fixture
def corpus():
    alphabet = StateAlphabet(("car", "home", "work"))
    return Corpus.from_arrays(
        alphabet,
        [[1, 1, 0, 2, 2, 2, 0, 1], [1, 0, 2, 2, 2, 2, 0, 1]],
        ids=["day-1", "day-2"],
    )


def test_interval_round_trip(tmp_path, corpus):
    path = tmp_path / "corpus.csv"
    seqio.save_corpus(corpus, path)
    loaded = seqio.load_corpus(path)
    assert loaded == corpus


def test_save_load_save_byte_identical(tmp_path, corpus):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    seqio.save_corpus(corpus, first)
    seqio.save_corpus(seqio.load_corpus(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_episode_round_trip(tmp_path, corpus):
    path = tmp_path / "episodes.csv"
    seqio.save_corpus(corpus, path, seqio.EPISODE)
    loaded = seqio.load_corpus(path, seqio.EPISODE)
    assert loaded == corpus
    second = tmp_path / "episodes2.csv"
    seqio.save_corpus(loaded, second, seqio.EPISODE)
    assert path.read_bytes() == second.read_bytes()


def test_episode_durations_make_interval_length(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text(
        "id,state,duration\n"
        "d1,home,420\nd1,car,30\nd1,work,510\nd1,home,480\n",
        encoding="utf-8",
    )
    corpus = seqio.load_corpus(path, seqio.EPISODE)
    assert corpus.length == 1440
    assert corpus.alphabet.labels == ("car", "home", "work")


def test_interval_writer_lf_and_utf8(tmp_path, corpus):
    path = tmp_path / "corpus.csv"
    seqio.save_corpus(corpus, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "id,s1,s2,s3,s4,s5,s6,s7,s8"


def test_write_csv_makes_its_directory_and_writes_lf(tmp_path):
    path = tmp_path / "new" / "table.csv"
    seqio.write_csv([["state", "a,b"], ["r\u00e9st", 0.5]], path)
    assert path.read_bytes() == 'state,"a,b"\nr\u00e9st,0.5\n'.encode("utf-8")


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,s1,s2\na,home,work\nb,home\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 3"):
        seqio.load_corpus(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,s1\na,home\na,work\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="duplicate"):
        seqio.load_corpus(path)


def test_unknown_label_without_extension(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,s1\na,home\nb,car\n", encoding="utf-8")
    alphabet = StateAlphabet(("home",))
    with pytest.raises(DataFormatError, match="unknown state labels"):
        seqio.load_corpus(path, alphabet=alphabet, extend_alphabet=False)
    loaded = seqio.load_corpus(path, alphabet=alphabet)
    assert loaded.alphabet.labels == ("home", "car")


def test_alphabet_is_sorted_union(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("id,s1,s2\na,work,home\nb,car,home\n", encoding="utf-8")
    assert seqio.load_corpus(path).alphabet.labels == ("car", "home", "work")


def test_continuous_round_trip(tmp_path):
    from seqsynth import ContinuousSeries

    series = [
        ContinuousSeries([0.0, 12.5, 760.0], "s1"),
        ContinuousSeries([1.0, 2.0, 3.0], "s2"),
    ]
    path = tmp_path / "cont.csv"
    seqio.save_continuous(series, path)
    loaded = seqio.load_continuous(path)
    assert loaded == series
    second = tmp_path / "cont2.csv"
    seqio.save_continuous(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_continuous_missing_error_and_drop(tmp_path):
    path = tmp_path / "cont.csv"
    path.write_text("id,v1,v2\na,1.0,\nb,2.0,3.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="missing"):
        seqio.load_continuous(path)
    kept = seqio.load_continuous(path, on_missing="drop")
    assert [s.id for s in kept] == ["b"]


def test_continuous_negative_rejected(tmp_path):
    path = tmp_path / "cont.csv"
    path.write_text("id,v1\na,-3\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="negative"):
        seqio.load_continuous(path)


@pytest.mark.parametrize("cell", ["1_0", " 5", "\u0661\u0665", "+5", "5.0", "", "-"])
def test_episode_duration_is_ascii_digits(tmp_path, cell):
    # int() read "1_0" as 10, " 5" as 5 and Arabic-Indic digits as 15
    path = tmp_path / "ep.csv"
    path.write_text(f"id,state,duration\na,rest,3\na,walk,{cell}\n", encoding="utf-8")
    message = f"row 3: duration {cell!r} is not an integer"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        seqio.load_corpus(path, "episode")


@pytest.mark.parametrize("cell", ["\u0663", "1_0", " 1", "+1", "1.0", "", "-"])
def test_cluster_label_is_ascii_digits(tmp_path, cell):
    path = tmp_path / "labels.csv"
    path.write_text(f"id,cluster\nd0,0\nd1,{cell}\n", encoding="utf-8")
    message = f"row 3: cluster {cell!r} is not an integer"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        seqio.load_cluster_labels(path)


def test_cluster_label_may_be_negative(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("id,cluster\nd0,-1\nd1,07\n", encoding="utf-8")
    assert seqio.load_cluster_labels(path) == {"d0": -1, "d1": 7}


@pytest.mark.parametrize(
    "rows, message",
    [(",1\nd1,0\n", "row 2: empty sequence id"),
     ("d1,1\nd1,0\n", "row 3: duplicate sequence id 'd1'")],
    ids=["empty", "duplicate"],
)
def test_cluster_label_ids_checked_as_corpus_ids(tmp_path, rows, message):
    # an empty id was once accepted: {'': 1, 'd1': 0}
    path = tmp_path / "labels.csv"
    path.write_text("id,cluster\n" + rows, encoding="utf-8")
    with pytest.raises(DataFormatError, match=message):
        seqio.load_cluster_labels(path)


def test_cluster_labels_round_trip(tmp_path):
    labels = {"day-1": 0, "day-2": 2, "day-3": 1}
    path = tmp_path / "labels.csv"
    seqio.save_cluster_labels(labels, path)
    assert seqio.load_cluster_labels(path) == labels


def test_alphabet_manifest_round_trip(tmp_path):
    alphabet = StateAlphabet(("a", "b"))
    path = tmp_path / "alphabet.json"
    seqio.save_alphabet(alphabet, path, interval_minutes=1)
    assert seqio.load_alphabet(path) == alphabet


def test_labels_needing_csv_quoting_round_trip(tmp_path):
    # commas, quotes, and non-ascii labels must survive both formats
    alphabet = StateAlphabet(('leisure, "fun"', "home", "café"))
    corpus = Corpus.from_arrays(alphabet, [[0, 1, 2, 0], [2, 2, 1, 0]])
    for fmt in (seqio.INTERVAL, seqio.EPISODE):
        path = tmp_path / f"c-{fmt}.csv"
        seqio.save_corpus(corpus, path, fmt)
        assert seqio.load_corpus(path, fmt, alphabet=alphabet) == corpus


@pytest.mark.parametrize("fmt", [seqio.INTERVAL, seqio.EPISODE])
@pytest.mark.parametrize(
    "labels, day_id",
    [(("a\rb", "c"), "d1"), (("c", "x\r"), "d1"), (("a", "b"), "d\r1")],
    ids=["cr-inside-label", "cr-ending-last-label", "cr-inside-id"],
)
def test_bare_cr_round_trips(tmp_path, fmt, labels, day_id):
    # csv.writer leaves a bare CR unquoted; read back, it would end the row
    corpus = Corpus.from_arrays(StateAlphabet(labels), [[0, 1, 1]], ids=[day_id])
    path = tmp_path / "cr.csv"
    seqio.save_corpus(corpus, path, fmt)
    assert seqio.load_corpus(path, fmt) == corpus


@pytest.mark.parametrize(
    "rows, day",
    [
        ("d1,home,99999999999999999999\n", "d1"),
        ("d1,home,9223372036854775807\nd1,car,5\nd2,home,1440\n", "d1"),
        ("d1,home,1440\nd2,home,9223372036854775807\nd2,car,5\n", "d2"),
        ("d1,home,1048577\n", "d1"),
    ],
    ids=["beyond-int64", "sum-beyond-int64", "later-day-beyond-int64", "just-above-bound"],
)
def test_episode_day_too_long_is_data_error(tmp_path, rows, day):
    path = tmp_path / "episodes.csv"
    path.write_text("id,state,duration\n" + rows, encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"sequence '{day}' has length \d+, more than"):
        seqio.load_corpus(path, seqio.EPISODE)


@pytest.mark.parametrize("fmt", [seqio.INTERVAL, seqio.EPISODE])
def test_header_only_file_is_empty_corpus_given_alphabet(tmp_path, corpus, fmt):
    # what saving an empty batch writes must load back
    empty = Corpus(corpus.alphabet, np.empty((0, 0)), ())
    path = tmp_path / "empty.csv"
    seqio.save_corpus(empty, path, fmt)
    assert seqio.load_corpus(path, fmt, alphabet=corpus.alphabet) == empty
    with pytest.raises(DataFormatError, match="no sequences found"):
        seqio.load_corpus(path, fmt)


def test_rows_without_columns_rejected(tmp_path, corpus):
    path = tmp_path / "bad.csv"
    path.write_text("id\n\na\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="header declares no interval columns"):
        seqio.load_corpus(path, alphabet=corpus.alphabet)


def test_malformed_csv_names_file_and_row(tmp_path):
    # a quoted field beyond csv's field size limit is a csv.Error
    path = tmp_path / "huge.csv"
    path.write_text('id,s1\na,home\nb,"' + "x" * 200_000 + '"\n', encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"huge\.csv: row 3: field larger"):
        seqio.load_corpus(path)


def test_undecodable_byte_names_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"id,s1\na,home\nb,caf\xe9\n")
    with pytest.raises(DataFormatError, match=r"latin1\.csv: byte b'\\xe9' is not UTF-8"):
        seqio.load_corpus(path)


def test_interval_load_memory_is_bounded(tmp_path):
    # streaming holds the codes and one block of text, not the file
    path = tmp_path / "gt.csv"
    seqio.save_corpus(activity_ground_truth(2000, 1440), path)
    tracemalloc.start()
    try:
        loaded = seqio.load_corpus(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.states_matrix.shape == (2000, 1440)
    assert peak <= 64e6, f"traced peak {peak / 1e6:.0f} MB"


def test_crlf_file_loads_like_its_lf_copy(tmp_path, monkeypatch):
    lf = tmp_path / "lf.csv"
    seqio.save_corpus(activity_ground_truth(40, 96, seed=3), lf)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    expected = seqio.load_corpus(lf)

    def row_reader(*args):
        raise AssertionError("a CRLF line left the block decoder")

    with monkeypatch.context() as patch:
        patch.setattr(seqio, "_codes", row_reader)  # used only by csv.reader rows
        assert seqio.load_corpus(crlf) == expected
    # a quoted field later in the file still hands the rest to csv.reader
    lines = crlf.read_bytes().split(b"\r\n")
    sid, cells = lines[20].split(b",", 1)
    lines[20] = b'"' + sid + b'",' + cells
    crlf.write_bytes(b"\r\n".join(lines))
    assert seqio.load_corpus(crlf) == expected
