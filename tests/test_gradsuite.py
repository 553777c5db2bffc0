"""The full-model gradient audit: its batch comes from `pad_batch` and
`collate_mlm`, as the trainers' do, it passes correct gradients below
finite-difference roundoff, and it still flags a small error in one op's
backward."""

import numpy as np
import pytest

from figlang import autodiff as ad
from figlang.bpe import MASK_ID
from figlang.cli import GRAD_TOL
from figlang.gradsuite import TINY, _tiny_batch, check_full_model, run_suite
from figlang.rcnn import model_param_shapes


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


def _audit_loss(seed):
    """The loss `check_full_model(seed)` audits and its tensors by name."""
    seen = {}

    def capture(build, tensors, **kwargs):
        seen.update(build=build, tensors=tensors)
        return 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "grad_check", capture)
        check_full_model(seed)
    return seen["build"], dict(zip(model_param_shapes(TINY), seen["tensors"]))


def test_audit_passes_a_key_bias_whose_true_gradient_is_zero():
    # softmax ignores a per-row shift of the scores, so the key bias (columns
    # d:2d of the qkv bias) has a true gradient of 0; central differences on
    # the ~6 loss see only its roundoff, up to one ulp over 2h (4.4e-11)
    build, params = _audit_loss(15)
    bias = params["layer0.attn.qkv.bias"]
    d = TINY.d_model
    assert ad.grad_check(build, [bias]) < GRAD_TOL          # all 3d coordinates
    assert np.abs(bias.grad[d:2 * d]).max() < 1e-15
    # measured against a 1e-8 floor, that roundoff failed the audit (4.4e-3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_FD_FLOOR", 1e-8)
        assert ad.grad_check(build, [bias]) >= GRAD_TOL


# seeds whose sampled coordinates include a near-zero gradient: each failed
# the audit when the floor was 1e-8
@pytest.mark.parametrize("seed", [15, 98, 160, 174])
def test_audit_passes_where_gradients_are_below_roundoff(seed):
    assert check_full_model(seed) < GRAD_TOL


def test_audit_flags_a_one_in_a_thousand_backward_error(monkeypatch):
    # the GELU derivative 0.1% too large: the floor does not hide it
    gelu = ad._gelu

    def off_by_0_1_percent(z, track):
        y, dydz = gelu(z, track)
        return y, None if dydz is None else dydz * 1.001
    assert run_suite(3) < GRAD_TOL
    monkeypatch.setattr(ad, "_gelu", off_by_0_1_percent)
    assert run_suite(3) >= GRAD_TOL
