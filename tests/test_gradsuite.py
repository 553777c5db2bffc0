"""The full-model gradient audit's batch comes from the trainers' builders."""

import numpy as np

from figlang.bpe import MASK_ID
from figlang.gradsuite import _tiny_batch


def test_tiny_batch_is_pinned():
    ids, mask, labels, mlm = _tiny_batch(np.random.default_rng(0))
    # two texts of one length, so attention audits a score block of two
    np.testing.assert_array_equal(ids, [0, 238, 179, 145, 78, 1, 0, 88, 15, 1, 0, 24, 8, 1])
    np.testing.assert_array_equal(mask, [[True] * 6] + [[True] * 4 + [False] * 2] * 2)
    np.testing.assert_array_equal(labels, [0, 1, 1])
    np.testing.assert_array_equal(mlm.mask, mask)
    np.testing.assert_array_equal(mlm.rows, [2, 7, 12])
    want = ids.copy()
    want[[2, 7, 12]] = MASK_ID
    np.testing.assert_array_equal(mlm.ids, want)
    np.testing.assert_array_equal(mlm.targets, [179, 88, 8])
    assert ids.dtype == mlm.ids.dtype == mlm.rows.dtype == np.int64
