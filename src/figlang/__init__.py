"""Figurative-language classification: a recurrent-convolutional head over a
transformer encoder, built on a small numpy autodiff core, with a byte-level
BPE tokenizer, masked-LM pretraining, and an n-gram logistic baseline.
"""

import ctypes
from importlib import resources

__version__ = "0.1.0"

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let malloc reuse freed array memory instead of returning it to the kernel.

    glibc serves every block of 128 KiB or more with a fresh mmap and trims
    the heap top on free, so each training step's large temporaries (the
    attention scores, the FFN activations, their gradients) are faulted in
    and zeroed by the kernel again. Blocks up to 32 MiB now come from the
    heap, which keeps up to 1 GiB of freed memory until exit; larger arrays
    are still mapped fresh. Arithmetic is unchanged. A no-op where the C
    library has no mallopt (macOS, Windows).
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):     # Windows: CDLL needs a library name
        return
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()


def toy_corpus() -> list[str]:
    """The bundled 100-sentence corpus used for pretraining smoke runs."""
    text = resources.files("figlang").joinpath("assets/toy_corpus.txt").read_text("utf-8")
    return [line for line in text.splitlines() if line]
