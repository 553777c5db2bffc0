"""TSV dataset loader: format validation, label ranges, line-numbered
errors."""

import numpy as np
import pytest

from figlang.config import BINARY, REGRESSION
from figlang.data import (HEADER, Dataset, LabeledExample, corpus_lines, load_dataset,
                          write_dataset)
from figlang.errors import DataError

GOOD = "id\tlabel\ttext\na1\t0\tplain weather talk\na2\t1\toh WONDERFUL, rain again\na3\t0\tthe bus was on time\n"


def put(tmp_path, content, name="data.tsv"):
    p = tmp_path / name
    p.write_text(content, encoding="utf-8")
    return p


def test_happy_path(tmp_path):
    ds = load_dataset(put(tmp_path, GOOD), BINARY)
    assert len(ds) == 3
    assert ds.schema == BINARY
    assert [ex.id for ex in ds] == ["a1", "a2", "a3"]
    assert [ex.target for ex in ds] == [0, 1, 0]
    assert ds.examples[1].text == "oh WONDERFUL, rain again"
    assert ds.class_counts == {0: 2, 1: 1}


def test_score_schema(tmp_path):
    content = "id\tlabel\ttext\ns1\t-5\tdeadpan\ns2\t5\tfull blast\ns3\t0\tneutral\n"
    ds = load_dataset(put(tmp_path, content), REGRESSION)
    assert [ex.target for ex in ds] == [-5, 5, 0]
    assert ds.class_counts == {-5: 1, 5: 1, 0: 1}


def test_missing_final_newline_ok(tmp_path):
    ds = load_dataset(put(tmp_path, GOOD.rstrip("\n")), BINARY)
    assert len(ds) == 3


def test_bad_header(tmp_path):
    with pytest.raises(DataError, match="header"):
        load_dataset(put(tmp_path, "identifier\tlabel\ttext\na\t0\tx\n"), BINARY)
    with pytest.raises(DataError, match="header"):
        load_dataset(put(tmp_path, "id,label,text\na,0,x\n"), BINARY)
    # case matters
    with pytest.raises(DataError, match="header"):
        load_dataset(put(tmp_path, "ID\tLABEL\tTEXT\na\t0\tx\n"), BINARY)


def test_wrong_field_counts(tmp_path):
    with pytest.raises(DataError, match="line 2.*3 tab-separated fields.*2"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t0\n"), BINARY)
    with pytest.raises(DataError, match="line 3.*got 4"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t0\tok\nb\t1\tx\ty\n"), BINARY)


def test_binary_label_out_of_range(tmp_path):
    with pytest.raises(DataError, match="line 3.*0 or 1.*'7'"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t1\tok\nb\t7\tnope\n"), BINARY)


def test_score_label_out_of_range(tmp_path):
    with pytest.raises(DataError, match=r"line 2.*'9'.*\[-5, 5\]"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t9\ttoo much\n"), REGRESSION)
    with pytest.raises(DataError, match="line 2"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t-6\ttoo low\n"), REGRESSION)


def test_non_integer_label(tmp_path):
    with pytest.raises(DataError, match="line 2.*not an integer"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\tpositive\tx\n"), BINARY)
    with pytest.raises(DataError, match="not an integer"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t1.5\tx\n"), REGRESSION)


def test_empty_text_rejected(tmp_path):
    with pytest.raises(DataError, match="line 2.*empty"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t0\t\n"), BINARY)
    # normalization is case folding only, so whitespace text still loads
    ds = load_dataset(put(tmp_path, "id\tlabel\ttext\na\t0\tok\nb\t1\t   \n"), BINARY)
    assert ds.examples[1].text == "   "


def test_duplicate_ids_warn_but_load(tmp_path):
    content = "id\tlabel\ttext\nx\t0\tfirst\nx\t1\tsecond\n"
    with pytest.warns(UserWarning, match="duplicate id 'x'"):
        ds = load_dataset(put(tmp_path, content), BINARY)
    assert len(ds) == 2


def test_blank_interior_row(tmp_path):
    with pytest.raises(DataError, match="line 3.*blank"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\na\t0\tok\n\nb\t1\tok\n"), BINARY)


def test_header_only_file(tmp_path):
    with pytest.raises(DataError, match="no data rows"):
        load_dataset(put(tmp_path, "id\tlabel\ttext\n"), BINARY)


def test_empty_file(tmp_path):
    with pytest.raises(DataError, match="empty"):
        load_dataset(put(tmp_path, ""), BINARY)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_dataset(tmp_path / "nope.tsv", BINARY)


def test_unknown_schema(tmp_path):
    with pytest.raises(DataError, match="schema"):
        load_dataset(put(tmp_path, GOOD), "ternary")


def test_write_round_trip(tmp_path):
    rows = [("r1", 1, "sure, great plan"), ("r2", 0, "the train left at nine"),
            ("r3", 0, "a lone\rcarriage return")]
    path = tmp_path / "out.tsv"
    write_dataset(path, rows)
    ds = load_dataset(path, BINARY)
    assert [(ex.id, ex.target, ex.text) for ex in ds] == rows


def test_write_rejects_control_characters(tmp_path):
    with pytest.raises(DataError, match="tab or newline"):
        write_dataset(tmp_path / "t.tsv", [("a", 0, "has\ttab")])
    with pytest.raises(DataError, match="tab or newline"):
        write_dataset(tmp_path / "n.tsv", [("a", 0, "has\nnewline")])
    # "\r\n" ends a line on reading, so a final "\r" would not come back
    with pytest.raises(DataError, match=r"ends in \\r"):
        write_dataset(tmp_path / "r.tsv", [("a", 0, "ends in cr\r")])


def test_corpus_lines_split_at_newlines_and_skip_blank_lines():
    assert corpus_lines("a\n\n \t\nb\x0cc\r\nd\re\n") == ["a", "b\x0cc", "d\re"]


def test_header_constant():
    assert HEADER == ("id", "label", "text")
