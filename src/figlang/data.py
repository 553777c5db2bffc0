"""TSV dataset loading.

Format: header line ``id<TAB>label<TAB>text``, one example per row, exactly
three tab-separated fields. Binary labels are 0/1; score labels are integers
in [-5, 5]. Errors carry 1-based line numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .bpe import normalize
from .config import BINARY, REGRESSION, SCORE_MAX, SCORE_MIN
from .errors import DataError

HEADER = ("id", "label", "text")
_HEADER_LINE = "\t".join(HEADER)


@dataclass
class LabeledExample:
    id: str
    text: str
    target: float  # int-valued for binary


@dataclass
class Dataset:
    examples: list[LabeledExample]
    schema: str
    class_counts: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)


def read_text(path, what: str) -> str:
    """A UTF-8 file's text, line ends untranslated as `sys.stdin` gives
    them; a file that cannot be read or decoded is a DataError that names
    it."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {what} {path}: {e}") from None


def split_lines(text: str) -> list[str]:
    """The lines of `text`, ended by "\\n" or "\\r\\n" only, so a lone "\\r",
    a form feed, U+2028 or another separator that `str.splitlines` breaks
    at stays inside its line; the one empty piece after a final line end
    is dropped."""
    *lines, last = text.split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    if last:
        lines.append(last)
    return lines


def corpus_lines(text: str) -> list[str]:
    """The non-blank lines of a pretraining corpus, split by `split_lines`."""
    return [line for line in split_lines(text) if line.strip()]


def _parse_label(raw: str, schema: str, lineno: int):
    try:
        value = int(raw)
    except ValueError:
        raise DataError(f"line {lineno}: label {raw!r} is not an integer") from None
    if schema == BINARY:
        if value not in (0, 1):
            raise DataError(f"line {lineno}: binary label must be 0 or 1, got {raw!r}")
    else:
        if not (SCORE_MIN <= value <= SCORE_MAX):
            raise DataError(f"line {lineno}: score {raw!r} outside "
                            f"[{int(SCORE_MIN)}, {int(SCORE_MAX)}]")
    return value


def load_dataset(path, schema: str) -> Dataset:
    if schema not in (BINARY, REGRESSION):
        raise DataError(f"unknown dataset schema: {schema!r}")
    raw_lines = split_lines(read_text(path, "dataset"))
    if not raw_lines:
        raise DataError(f"{path}: empty file")
    header = tuple(raw_lines[0].split("\t"))
    if header != HEADER:
        raise DataError(f"{path}: bad header {raw_lines[0]!r}, "
                        f"expected {_HEADER_LINE!r}")

    examples = []
    seen_ids = set()
    counts: dict = {}
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if line == "":
            raise DataError(f"line {lineno}: blank row")
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"line {lineno}: expected 3 tab-separated fields, "
                            f"got {len(fields)}")
        ex_id, raw_label, text = fields
        value = _parse_label(raw_label, schema, lineno)
        if not normalize(text):
            raise DataError(f"line {lineno}: text is empty after normalization")
        if ex_id in seen_ids:
            warnings.warn(f"{path}: duplicate id {ex_id!r} at line {lineno}")
        seen_ids.add(ex_id)
        counts[value] = counts.get(value, 0) + 1
        examples.append(LabeledExample(id=ex_id, text=text, target=value))
    if not examples:
        raise DataError(f"{path}: no data rows")
    return Dataset(examples=examples, schema=schema, class_counts=counts)


def write_dataset(path, rows) -> None:
    """rows: iterable of (id, label, text), each read back as written by `load_dataset`."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(_HEADER_LINE + "\n")
        for ex_id, label, text in rows:
            if "\t" in text or "\n" in text or text.endswith("\r"):
                raise DataError(f"text for id {ex_id!r} contains tab or newline, or ends in \\r")
            f.write(f"{ex_id}\t{label}\t{text}\n")
