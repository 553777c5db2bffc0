"""Tokenizer: hand-traced merge tables, round-trip guarantees, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from figlang import bpe
from figlang.bpe import (CLS_ID, MASK_ID, N_SPECIALS, PAD_ID, SEP_ID,
                         TokenizerModel, bpe_train, decode, encode,
                         load_tokenizer, normalize, pad_batch, save_tokenizer)
from figlang.errors import ConfigError, DataError, VocabError


def test_special_ids_are_low_and_fixed():
    assert (CLS_ID, SEP_ID, PAD_ID, MASK_ID) == (0, 1, 2, 3)
    assert N_SPECIALS == 4


def test_normalize():
    assert normalize("SARCASM!!! #NoT") == "sarcasm!!! #not"
    assert normalize("") == ""
    assert normalize("Γεια ΣΟΥ") == "γεια σου"
    with pytest.raises(DataError):
        normalize(42)


# ---------------------------------------------------------------------------
# training


def test_hand_trace_aaaa():
    # "aaaa" -> pairs (a,a) x3; after merging, ("aa","aa") occurs once, so
    # training stops below the frequency-2 floor
    m = bpe_train(["aaaa"], 260)
    assert m.merges == [(b"a", b"a")]


def test_hand_trace_abab():
    # chunks "abab" and " abab": (a,b) occurs 4x -> merge; then (ab,ab)
    # occurs twice -> merge; every remaining pair is unique -> stop
    m = bpe_train(["abab abab"], 300)
    assert m.merges[0] == (b"a", b"b")
    assert m.merges[1] == (b"ab", b"ab")
    assert len(m.merges) == 2
    seq = encode(m, "abab", 6)
    ids = seq.tolist()
    assert ids[0] == CLS_ID
    assert ids[2] == SEP_ID
    assert decode(m, seq) == "abab"
    # "abab" must be a single learned token, not four bytes
    assert len(seq) == 3


def test_no_repeated_pair_means_no_merges():
    m = bpe_train(["ab", "cd", "ef"], 300)
    assert m.merges == []
    assert m.size == N_SPECIALS + 256


def test_training_is_deterministic():
    lines = ["the cat sat", "the dog sat", "a cat and a dog"]
    a = bpe_train(lines, 280)
    b = bpe_train(lines, 280)
    assert a.merges == b.merges
    assert a.vocab == b.vocab


def test_tie_break_is_lexicographic():
    # (x,y) and (b,c) both occur twice; (b,c) sorts first as raw bytes
    m = bpe_train(["xy", "xy", "bc", "bc"], 300)
    assert m.merges[0] == (b"b", b"c")


def test_vocab_budget_respected():
    m = bpe_train(["abab abab abab abab"], 258)
    # 256 byte tokens + at most 2 learned merges
    assert len(m.vocab) <= 258
    assert m.size <= N_SPECIALS + 258


def test_train_input_validation():
    with pytest.raises(ConfigError):
        bpe_train(["text"], 256)
    with pytest.raises(DataError):
        bpe_train([], 300)


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_empty_string(toy_tok):
    seq = encode(toy_tok, "", 8)
    assert seq.tolist() == [CLS_ID, SEP_ID]
    assert len(seq) == 2
    ids, mask = pad_batch([seq, encode(toy_tok, "the cat sees the dog " * 30, 8)])
    assert ids[:2].tolist() == [CLS_ID, SEP_ID] and len(ids) == 2 + 8
    assert mask[0].tolist() == [True, True] + [False] * 6
    assert decode(toy_tok, seq) == ""


def test_encode_truncates_long_text(toy_tok):
    seq = encode(toy_tok, "the cat sees the dog " * 30, 16)
    assert len(seq) == 16
    assert seq[0] == CLS_ID
    assert seq[15] == SEP_ID
    assert pad_batch([seq])[1].all()


def test_encode_mask_is_prefix(toy_tok):
    seq = encode(toy_tok, "the cat", 16)
    long = encode(toy_tok, "the cat sees the dog " * 30, 16)
    ids, mask = pad_batch([seq, long])
    m = mask[0]
    assert m[:len(seq)].all() and not m[len(seq):].any()
    # the short text's padded slots hold no id: the next text follows it
    assert ids[len(seq):].tolist() == long.tolist()
    assert PAD_ID not in ids


def test_pad_batch_joins_ids_and_builds_prefix_mask():
    seqs = [np.array([CLS_ID, 7, SEP_ID]), np.array([CLS_ID, SEP_ID]),
            np.array([CLS_ID, 9, 8, 5, SEP_ID])]
    ids, mask = pad_batch(seqs)
    assert ids.dtype == np.int64 and mask.dtype == bool
    np.testing.assert_array_equal(ids, np.concatenate(seqs))
    np.testing.assert_array_equal(mask, [[1, 1, 1, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 1, 1]])
    ids[0] = 99
    assert seqs[0][0] == CLS_ID        # a new array, not a view of the input


def test_encode_rejects_tiny_window(toy_tok):
    with pytest.raises(ConfigError):
        encode(toy_tok, "x", 1)


def test_decode_unknown_id(toy_tok):
    with pytest.raises(VocabError):
        decode(toy_tok, np.array([CLS_ID, toy_tok.size + 5, SEP_ID]))


def test_content_ids_never_special(toy_tok):
    seq = encode(toy_tok, "the cat likes the food .", 32)
    content = seq[1:len(seq) - 1]
    assert (content >= N_SPECIALS).all()


_RT_TOK = bpe_train(["seed corpus for round trip"], 280)


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_round_trip_any_text(s):
    seq = encode(_RT_TOK, s, 512)
    if len(seq) < 512:  # untruncated: decode must restore normalize(s)
        assert decode(_RT_TOK, seq) == normalize(s)


def test_round_trip_multibyte_utf8(toy_tok):
    s = "καφές ☕ 猫 — ôüñ 🙂🙃"
    seq = encode(toy_tok, s, 128)
    assert decode(toy_tok, seq) == normalize(s)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_round_trip(tmp_path, toy_tok):
    p = tmp_path / "tok.json"
    save_tokenizer(toy_tok, p)
    loaded = load_tokenizer(p)
    assert loaded.merges == toy_tok.merges
    assert loaded.vocab == toy_tok.vocab
    assert loaded.size == toy_tok.size
    for text in ("the cat sees the ball .", "zebra quux", ""):
        np.testing.assert_array_equal(encode(loaded, text, 16),
                                      encode(toy_tok, text, 16))


def test_saved_file_is_stable(tmp_path, toy_tok):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_tokenizer(toy_tok, a)
    save_tokenizer(load_tokenizer(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_saved_file_shape(tmp_path, toy_tok):
    p = tmp_path / "tok.json"
    save_tokenizer(toy_tok, p)
    doc = json.loads(p.read_text())
    assert doc["normalizer"] == "lowercase"
    assert len(doc["vocab"]) == len(toy_tok.vocab)
    assert len(doc["merges"]) == len(toy_tok.merges)


# ---------------------------------------------------------------------------
# the model is its merge list


def test_ranks_built_once_per_model(monkeypatch, tmp_path):
    calls = []
    real = TokenizerModel._ranks

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(TokenizerModel, "_ranks", counting)
    m = bpe_train(["the cat sat", "the dog sat", "a cat and a dog"], 280)
    for _ in range(50):
        encode(m, "the cat and the dog sat", 32)
    assert calls == [m]
    save_tokenizer(m, tmp_path / "tok.json")
    loaded = load_tokenizer(tmp_path / "tok.json")
    for _ in range(50):
        encode(loaded, "a dog sat", 32)
    assert calls == [m, loaded]


def test_tables_derive_from_merges(toy_tok):
    m = TokenizerModel(toy_tok.merges)
    assert m.vocab == toy_tok.vocab
    assert m.size == N_SPECIALS + 256 + len(toy_tok.merges)
    for token, i in m.vocab.items():
        assert m.tokens[i - N_SPECIALS] == token
    assert m.ranks == {pair: r for r, pair in enumerate(toy_tok.merges)}


@pytest.mark.parametrize("merges", [
    [(b"ab", b"c")],                      # "ab" is not an earlier token
    [(b"a", b"b"), (b"b", b"c"), (b"ab", b"c"), (b"a", b"bc")],  # "abc" twice
    [(b"a", b"b"), (b"a", b"b")],
], ids=["unknown-part", "repeated-token", "repeated-pair"])
def test_inconsistent_merges_rejected(merges):
    with pytest.raises(DataError):
        TokenizerModel(merges)


def _swap_two_ids(doc):
    a, b = list(doc["vocab"])[-2:]
    doc["vocab"][a], doc["vocab"][b] = doc["vocab"][b], doc["vocab"][a]


def _duplicate_id(doc):
    a, b = list(doc["vocab"])[-2:]
    doc["vocab"][b] = doc["vocab"][a]


def _extra_vocab_entry(doc):
    doc["vocab"]["zzzq"] = N_SPECIALS + len(doc["vocab"])


# each case turns a valid tokenizer.json text into a malformed one (None:
# the file is not written at all)
_MALFORMED = {
    "missing-file": None,
    "truncated": lambda text, doc: text[:len(text) // 2],
    "not-json": lambda text, doc: "tokenizer",
    "no-vocab": lambda text, doc: doc.pop("vocab"),
    "no-merges": lambda text, doc: doc.pop("merges"),
    "one-token-rule": lambda text, doc: doc["merges"].__setitem__(
        0, doc["merges"][0].replace(" ", "")),
    "three-token-rule": lambda text, doc: doc["merges"].__setitem__(
        0, doc["merges"][0] + " a"),
    "rule-of-unknown-token": lambda text, doc: doc["merges"].__setitem__(0, "zzzq a"),
    "repeated-rule": lambda text, doc: doc["merges"].append(doc["merges"][0]),
    "swapped-ids": lambda text, doc: _swap_two_ids(doc),
    "duplicate-id": lambda text, doc: _duplicate_id(doc),
    "extra-vocab-entry": lambda text, doc: _extra_vocab_entry(doc),
}


def write_malformed_tokenizer(path, tok, case):
    save_tokenizer(tok, path)
    mutate = _MALFORMED[case]
    if mutate is None:
        path.unlink()
        return
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    out = mutate(text, doc)
    path.write_text(out if isinstance(out, str) else json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_tokenizer_file_is_data_error(tmp_path, toy_tok, case):
    path = tmp_path / "tok.json"
    write_malformed_tokenizer(path, toy_tok, case)
    with pytest.raises(DataError):
        load_tokenizer(path)


# ---------------------------------------------------------------------------
# the chunk memo and the truncation window


def test_long_text_stops_segmenting_at_the_window(monkeypatch, toy_tok):
    max_seq_len = 16
    words = [f"w{i}x" for i in range(10 * max_seq_len)]    # every chunk distinct
    text = " ".join(words)
    full = encode(TokenizerModel(toy_tok.merges), text, 10**6)
    assert len(full) > 10 * max_seq_len

    merged = []
    real = bpe._merge_chunk

    def spy(model, chunk):
        merged.append(chunk)
        return real(model, chunk)

    monkeypatch.setattr(bpe, "_merge_chunk", spy)
    m = TokenizerModel(toy_tok.merges)
    seq = encode(m, text, max_seq_len)
    content = full[1:-1]
    np.testing.assert_array_equal(seq, [CLS_ID, *content[:max_seq_len - 2], SEP_ID])
    # only the leading chunks that fill the window were split off and merged
    chunks = [words[0]] + [" " + w for w in words[1:]]
    assert merged == chunks[:len(merged)]
    assert sum(len(m.memo[c]) for c in merged[:-1]) < max_seq_len - 2
    assert sum(len(m.memo[c]) for c in merged) >= max_seq_len - 2
    assert list(m.memo) == merged


_MEMO_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet=" \t\n\u00a0\u3000abcdeé猫🙂THE", max_size=40),
    st.lists(st.sampled_from(["the", "cat", "  ", "\t\n", "Café", "猫🙂", "sees", "."]),
             max_size=12).map(" ".join),
)


@given(texts=st.lists(_MEMO_TEXT, max_size=8), max_seq_len=st.integers(2, 24))
@settings(max_examples=200, deadline=None)
def test_warm_memo_encodes_like_a_fresh_model(toy_tok, texts, max_seq_len):
    # toy_tok is shared by the whole suite, so its memo is warm and grows
    for text in texts + [""]:
        want = encode(TokenizerModel(toy_tok.merges), text, max_seq_len)
        np.testing.assert_array_equal(encode(toy_tok, text, max_seq_len), want)


def test_models_with_different_merges_share_no_memo_entries():
    a = TokenizerModel([(b"a", b"b"), (b"ab", b"ab")])
    b = TokenizerModel([(b"b", b"a")])
    text = "abab baba"
    ids_a, ids_b = encode(a, text, 16), encode(b, text, 16)
    assert decode(a, ids_a) == decode(b, ids_b) == text
    assert len(ids_a) == 2 + 1 + 4 and len(ids_b) == 2 + 3 + 3
    assert a.memo is not b.memo
    assert a.memo["abab"] != b.memo["abab"]
    np.testing.assert_array_equal(encode(a, text, 16), ids_a)
    np.testing.assert_array_equal(encode(b, text, 16), ids_b)


def test_changing_returned_ids_does_not_change_later_encodes(toy_tok):
    text = "the cat sees the dog"
    first = encode(toy_tok, text, 32)
    want = first.copy()
    first[:] = PAD_ID
    np.testing.assert_array_equal(encode(toy_tok, text, 32), want)


def test_loaded_model_starts_with_an_empty_memo(tmp_path, toy_tok):
    encode(toy_tok, "the cat sees the dog", 32)
    assert toy_tok.memo
    save_tokenizer(toy_tok, tmp_path / "tok.json")
    assert load_tokenizer(tmp_path / "tok.json").memo == {}
