"""Byte-level BPE tokenizer: training, encode/decode, JSON serialization.

Normalization is Unicode lowercasing and nothing else. Text is pre-segmented
into chunks (a single leading space attaches to the following word, other
whitespace runs stand alone) and merges never cross chunk boundaries, so
decode(encode(text)) reproduces the normalized text byte for byte.

A model is its ordered merge list: `TokenizerModel(merges)` derives the
token table, the vocab and the merge ranks once, and `bpe_train` and
`load_tokenizer` both build it that way. `encode` returns one sequence's
ids as a plain int64 array, unpadded; `pad_batch` joins a batch of them
into its (N,) real-token ids and builds its (B, T) padding mask.

Each model memoizes merges per chunk, as GPT-2's encoder caches them per
word: the first time `encode` meets a chunk it runs the rank-ordered merge
loop and stores the chunk's content ids in `model.memo`, and every later
occurrence is one dict lookup. The memo has no size limit; it grows with
the number of distinct chunks the model has seen. `encode` also stops
splitting the text into chunks once the `max_seq_len - 2` content ids that
fit the window exist, so the tail of a long text costs nothing.

Id layout: specials 0..3 (<cls>, <sep>, <pad>, <mask>), the 256 byte tokens
4..259, learned merges from 260 upward in rank order; a batch holds real
tokens only, so <pad> stays reserved and unused. `vocab_size` passed to
training budgets the non-special part (256 byte tokens + merges); specials
sit outside the budget on reserved low ids. tokenizer.json (version 1)
stores the vocab beside the merges; loading checks that the two agree.
"""

from __future__ import annotations

import json
import re
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


class TokenizerModel:
    """Byte-level BPE model, defined by its ordered merge list alone. The
    constructor derives every table once: `tokens` (the byte-level token of
    each id from N_SPECIALS up), `vocab` (its inverse) and `ranks` (merge
    pair -> rank). A merge whose parts are not earlier tokens, or whose
    result is already a token, is a DataError.

    `memo` (chunk -> content ids) starts empty and is filled by `encode`."""

    def __init__(self, merges):
        self.merges: list[tuple[bytes, bytes]] = list(merges)
        self.tokens: list[bytes] = [bytes([b]) for b in range(256)]
        self.vocab: dict[bytes, int] = {t: N_SPECIALS + i for i, t in enumerate(self.tokens)}
        for a, b in self.merges:
            if a not in self.vocab or b not in self.vocab:
                raise DataError(f"merge ({a!r}, {b!r}) uses a token no earlier merge made")
            if a + b in self.vocab:
                raise DataError(f"merge ({a!r}, {b!r}) repeats the token {a + b!r}")
            self.vocab[a + b] = N_SPECIALS + len(self.tokens)
            self.tokens.append(a + b)
        self.ranks = self._ranks()
        self.memo: dict[str, tuple[int, ...]] = {}

    @property
    def size(self) -> int:
        """Total vocabulary size including the special ids."""
        return N_SPECIALS + len(self.tokens)

    def _ranks(self) -> dict[tuple[bytes, bytes], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}


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
    while 256 + len(merges) < vocab_size:
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
        for chunk, toks in words.items():
            if len(toks) > 1:
                words[chunk] = _merge_pair(toks, best)
    return TokenizerModel(merges)


def _merge_chunk(model: TokenizerModel, chunk: str) -> tuple[int, ...]:
    """Content ids of one pre-tokenized chunk: start from its UTF-8 bytes
    and apply the lowest-ranked adjacent merge until none applies."""
    ranks = model.ranks
    toks = [bytes([b]) for b in chunk.encode("utf-8")]
    while len(toks) > 1:
        best_rank, best_pair = None, None
        for i in range(len(toks) - 1):
            r = ranks.get((toks[i], toks[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (toks[i], toks[i + 1])
        if best_pair is None:
            break
        toks = _merge_pair(toks, best_pair)
    return tuple(model.vocab[t] for t in toks)


def _segment(model: TokenizerModel, text: str, limit: int) -> list[int]:
    """The first `limit` content ids of normalized `text`. Chunks are split
    off lazily and no chunk is looked at once `limit` ids exist; each chunk
    is merged on its first sight only, through `model.memo`."""
    memo = model.memo
    ids: list[int] = []
    for match in _CHUNK_RE.finditer(text):
        if len(ids) >= limit:
            break
        chunk = match.group()
        chunk_ids = memo.get(chunk)
        if chunk_ids is None:
            chunk_ids = memo[chunk] = _merge_chunk(model, chunk)
        ids.extend(chunk_ids)
    return ids[:limit]


def encode(model: TokenizerModel, text: str, max_seq_len: int) -> np.ndarray:
    """normalize -> BPE segment -> [cls] ... [sep], truncated to max_seq_len.

    Segmentation stops once the `max_seq_len - 2` content ids that fit are
    known, so the rest of a long text is never split or merged. A chunk is
    merged the first time this model sees it and read from `model.memo`
    after that, giving the same ids; the memo has no size limit and gains
    one entry per distinct chunk. Returns a new (length,) int64 array of
    ids, unpadded; `pad_batch` joins a batch of them.
    """
    if max_seq_len < 2:
        raise ConfigError(f"max_seq_len must be at least 2 (cls + sep), got {max_seq_len}")
    content = _segment(model, normalize(text), max_seq_len - 2)
    return np.array([CLS_ID, *content, SEP_ID], dtype=np.int64)


def pad_batch(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Join id arrays from `encode` into (N,) int64 ids, and build the
    prefix-true (B, T) bool mask of their right-padded layout (T the longest
    length): the ids are its real tokens in row-major order."""
    lengths = np.array([len(s) for s in seqs])
    return (np.concatenate(seqs, dtype=np.int64),
            np.arange(lengths.max()) < lengths[:, None])


def decode(model: TokenizerModel, ids) -> str:
    """Inverse of encode on non-special ids; specials are dropped."""
    parts = []
    for i in np.asarray(ids, dtype=np.int64).reshape(-1):
        i = int(i)
        if 0 <= i < N_SPECIALS:
            continue
        if not N_SPECIALS <= i < model.size:
            raise VocabError(f"id {i} is not in the vocabulary (size {model.size})")
        parts.append(model.tokens[i - N_SPECIALS])
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
    """Read tokenizer.json: rebuild the model from its merges and check that
    the file's vocab is the one they derive. Any unreadable, malformed or
    inconsistent file is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("version") != 1:
            raise DataError(f"unsupported tokenizer file version: {payload.get('version')!r}")
        vocab, rules = payload["vocab"], payload["merges"]
        merges = []
        for rule in rules:
            a, b = rule.split(" ")      # ValueError unless exactly two tokens
            merges.append((_token_bytes(a), _token_bytes(b)))
    except OSError as exc:
        raise DataError(f"cannot read tokenizer {path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"tokenizer {path} has no {exc} key") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"tokenizer {path} is malformed: {exc}") from None
    try:
        model = TokenizerModel(merges)
    except DataError as exc:
        raise DataError(f"tokenizer {path}: {exc}") from None
    if vocab != {_token_str(t): i for t, i in model.vocab.items()}:
        raise DataError(f"tokenizer {path}: vocab disagrees with the merges")
    return model
