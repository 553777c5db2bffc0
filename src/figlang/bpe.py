"""Byte-level BPE tokenizer: training, encode/decode, JSON serialization.

Normalization is Unicode lowercasing and nothing else. Text is pre-segmented
into chunks (a single leading space attaches to the following word, other
whitespace runs stand alone) and merges never cross chunk boundaries, so
decode(encode(text)) reproduces the normalized text byte for byte.

`encode` returns one sequence's ids, unpadded; `pad_batch` right-pads a list
of them to the longest in the batch and is the only place a padded batch is
built.

Id layout: specials 0..3 (<cls>, <sep>, <pad>, <mask>), the 256 byte tokens
4..259, learned merges from 260 upward in rank order. `vocab_size` passed to
training budgets the non-special part (256 byte tokens + merges); specials
sit outside the budget on reserved low ids.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from collections import Counter

import numpy as np

from .errors import ConfigError, DataError, VocabError

SPECIAL_TOKENS = ("<cls>", "<sep>", "<pad>", "<mask>")
CLS_ID, SEP_ID, PAD_ID, MASK_ID = 0, 1, 2, 3
N_SPECIALS = len(SPECIAL_TOKENS)

_CHUNK_RE = re.compile(r" ?\S+|\s+")


def normalize(text: str) -> str:
    """Unicode-aware lowercasing; no other transformation."""
    if not isinstance(text, str):
        raise DataError("normalize expects a unicode string")
    return text.lower()


def _bytes_to_unicode() -> dict[int, str]:
    # Bijection between bytes and printable unicode chars, so vocab/merge
    # files stay readable and JSON-safe.
    bs = (list(range(ord("!"), ord("~") + 1))
          + list(range(ord("\xa1"), ord("\xac") + 1))
          + list(range(ord("\xae"), ord("\xff") + 1)))
    cs = bs[:]
    n = 0
    for b in range(256):
        if b not in bs:
            bs.append(b)
            cs.append(256 + n)
            n += 1
    return dict(zip(bs, (chr(c) for c in cs)))


_BYTE_TO_CHAR = _bytes_to_unicode()
_CHAR_TO_BYTE = {c: b for b, c in _BYTE_TO_CHAR.items()}


def _token_str(token: bytes) -> str:
    return "".join(_BYTE_TO_CHAR[b] for b in token)


def _token_bytes(s: str) -> bytes:
    try:
        return bytes(_CHAR_TO_BYTE[c] for c in s)
    except KeyError as exc:
        raise DataError(f"invalid byte-level token string {s!r}") from exc


def _chunks(text: str) -> list[bytes]:
    return [c.encode("utf-8") for c in _CHUNK_RE.findall(text)]


def _merge_pair(tokens: list[bytes], pair: tuple[bytes, bytes]) -> list[bytes]:
    """Replace every left-to-right occurrence of `pair` with the fused token."""
    merged = pair[0] + pair[1]
    out = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and tokens[i] == pair[0] and tokens[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(tokens[i])
            i += 1
    return out


@dataclass
class TokenizerModel:
    """Trained byte-level BPE model (immutable after training)."""

    merges: list[tuple[bytes, bytes]]
    vocab: dict[bytes, int] = field(repr=False)       # byte-level tokens only
    id_to_token: list[bytes | None] = field(repr=False)

    @property
    def size(self) -> int:
        """Total vocabulary size including the special ids."""
        return N_SPECIALS + len(self.vocab)

    def _ranks(self) -> dict[tuple[bytes, bytes], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}


def _base_vocab() -> dict[bytes, int]:
    return {bytes([b]): N_SPECIALS + b for b in range(256)}


def bpe_train(lines, vocab_size: int) -> TokenizerModel:
    """Learn merges greedily: most frequent adjacent pair per round,
    ties broken by the lexicographically smallest (left, right) pair.

    Stops when the non-special vocab reaches `vocab_size` or when no pair
    occurs twice.
    """
    if vocab_size <= 256:
        raise ConfigError(f"vocab_size must exceed the 256 byte tokens, got {vocab_size}")
    chunk_freq: Counter[bytes] = Counter()
    for line in lines:
        chunk_freq.update(_chunks(normalize(line)))
    if not chunk_freq:
        raise DataError("cannot train a tokenizer on an empty corpus")

    words = {chunk: [bytes([b]) for b in chunk] for chunk in chunk_freq}
    merges: list[tuple[bytes, bytes]] = []
    vocab = _base_vocab()

    while len(vocab) < vocab_size:
        pair_freq: Counter[tuple[bytes, bytes]] = Counter()
        for chunk, toks in words.items():
            f = chunk_freq[chunk]
            for i in range(len(toks) - 1):
                pair_freq[(toks[i], toks[i + 1])] += f
        if not pair_freq:
            break
        top = max(pair_freq.values())
        if top < 2:
            break
        best = min(p for p, f in pair_freq.items() if f == top)
        merges.append(best)
        vocab[best[0] + best[1]] = N_SPECIALS + len(vocab)
        for chunk, toks in words.items():
            if len(toks) > 1:
                words[chunk] = _merge_pair(toks, best)

    id_to_token: list[bytes | None] = [None] * N_SPECIALS + [None] * len(vocab)
    for tok, i in vocab.items():
        id_to_token[i] = tok
    return TokenizerModel(merges=merges, vocab=vocab, id_to_token=id_to_token)


@dataclass
class EncodedSequence:
    """One sequence's token ids, cls and sep included, without padding."""

    ids: np.ndarray    # (length,) int64

    @property
    def length(self) -> int:
        return len(self.ids)


def _segment(model: TokenizerModel, text: str) -> list[bytes]:
    ranks = model._ranks()
    out: list[bytes] = []
    for chunk in _chunks(text):
        toks = [bytes([b]) for b in chunk]
        while len(toks) > 1:
            best_rank, best_pair = None, None
            for i in range(len(toks) - 1):
                r = ranks.get((toks[i], toks[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_pair = r, (toks[i], toks[i + 1])
            if best_pair is None:
                break
            toks = _merge_pair(toks, best_pair)
        out.extend(toks)
    return out


def encode(model: TokenizerModel, text: str, max_seq_len: int) -> EncodedSequence:
    """normalize -> BPE segment -> [cls] ... [sep] -> truncate to max_seq_len.

    The result is not padded; `pad_batch` pads a batch of them.
    """
    if max_seq_len < 2:
        raise ConfigError(f"max_seq_len must be at least 2 (cls + sep), got {max_seq_len}")
    content = [model.vocab[t] for t in _segment(model, normalize(text))]
    content = content[:max_seq_len - 2]
    ids = [CLS_ID] + content + [SEP_ID]
    return EncodedSequence(ids=np.array(ids, dtype=np.int64))


def pad_batch(seqs: list[EncodedSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad to the longest sequence in the batch: ids (B, T) int64 filled
    with PAD_ID, and the prefix-true attention mask (B, T) bool."""
    T = max(s.length for s in seqs)
    ids = np.full((len(seqs), T), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), T), dtype=bool)
    for b, s in enumerate(seqs):
        ids[b, :s.length] = s.ids
        mask[b, :s.length] = True
    return ids, mask


def decode(model: TokenizerModel, ids) -> str:
    """Inverse of encode on non-special ids; specials are dropped."""
    parts = []
    for i in np.asarray(ids, dtype=np.int64).reshape(-1):
        i = int(i)
        if 0 <= i < N_SPECIALS:
            continue
        if i < 0 or i >= model.size or model.id_to_token[i] is None:
            raise VocabError(f"id {i} is not in the vocabulary (size {model.size})")
        parts.append(model.id_to_token[i])
    return b"".join(parts).decode("utf-8", errors="replace")


# ---------------------------------------------------------------------------
# serialization


def save_tokenizer(model: TokenizerModel, path) -> None:
    """Write tokenizer.json: stable key order, ids ascending, merges by rank."""
    vocab_items = sorted(model.vocab.items(), key=lambda kv: kv[1])
    payload = {
        "version": 1,
        "normalizer": "lowercase",
        "specials": {tok: i for i, tok in enumerate(SPECIAL_TOKENS)},
        "vocab": {_token_str(tok): i for tok, i in vocab_items},
        "merges": [f"{_token_str(a)} {_token_str(b)}" for a, b in model.merges],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_tokenizer(path) -> TokenizerModel:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != 1:
        raise DataError(f"unsupported tokenizer file version: {payload.get('version')!r}")
    vocab = {_token_bytes(s): i for s, i in payload["vocab"].items()}
    merges = []
    for rule in payload["merges"]:
        a, b = rule.split(" ")
        merges.append((_token_bytes(a), _token_bytes(b)))
    size = N_SPECIALS + len(vocab)
    id_to_token: list[bytes | None] = [None] * size
    for tok, i in vocab.items():
        if not N_SPECIALS <= i < size:
            raise DataError(f"vocab id {i} outside dense range [{N_SPECIALS}, {size})")
        id_to_token[i] = tok
    return TokenizerModel(merges=merges, vocab=vocab, id_to_token=id_to_token)
