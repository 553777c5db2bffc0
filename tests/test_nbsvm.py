"""Log-count-ratio baseline: hand-counted ratio oracle, feature semantics,
training behavior, persistence."""

import numpy as np
import pytest

from figlang.data import LabeledExample
from figlang.errors import ConfigError, DataError
from figlang.nbsvm import (NbsvmModel, load_nbsvm, nbsvm_predict, nbsvm_train,
                           ngrams, save_nbsvm)


def ex(i, text, target):
    return LabeledExample(id=str(i), text=text, target=target)


def test_ngrams_are_unigrams_plus_bigrams():
    assert ngrams("Sure, GREAT plan") == [
        "sure,", "great", "plan", "sure, great", "great plan"]
    assert ngrams("one") == ["one"]
    assert ngrams("") == []


def test_ratio_vector_matches_hand_counts():
    # 4 documents, alpha=1. Vocabulary and per-class presence counts are
    # small enough to count on paper.
    train = [ex(0, "good good movie", 1),      # class 1: {good, movie, good good, good movie}
             ex(1, "truly good", 1),           # class 1: {truly, good, truly good}
             ex(2, "bad movie", 0),            # class 0: {bad, movie, bad movie}
             ex(3, "truly bad", 0)]            # class 0: {truly, bad, truly bad}
    model = nbsvm_train(train, alpha=1.0, epochs=1)

    grams = sorted({g for e in train for g in ngrams(e.text)})
    assert list(model.vocab) == grams
    assert model.vocab == {g: i for i, g in enumerate(grams)}

    p = np.ones(len(grams))
    q = np.ones(len(grams))
    class1 = [{"good", "movie", "good good", "good movie"},
              {"truly", "good", "truly good"}]
    class0 = [{"bad", "movie", "bad movie"},
              {"truly", "bad", "truly bad"}]
    for bag in class1:
        for g in bag:
            p[model.vocab[g]] += 1
    for bag in class0:
        for g in bag:
            q[model.vocab[g]] += 1
    want = np.log((p / p.sum()) / (q / q.sum()))
    np.testing.assert_allclose(model.r, want, atol=1e-10)

    # directional sanity: class-1-only n-grams score positive, class-0-only
    # negative, and the shared "movie" sits near zero
    assert model.r[model.vocab["good"]] > 0
    assert model.r[model.vocab["bad"]] < 0
    assert abs(model.r[model.vocab["movie"]]) < abs(model.r[model.vocab["good"]])


def test_huge_alpha_flattens_ratios():
    train = [ex(0, "good movie", 1), ex(1, "bad movie", 0)]
    model = nbsvm_train(train, alpha=1e9, epochs=1)
    assert np.abs(model.r).max() < 1e-6


def test_presence_is_binarized():
    # repeating a token must not change its feature: the unigram is a set
    # indicator and the created "fine fine" bigram was never in training
    train = [ex(0, "fine day", 1), ex(1, "awful day", 0),
             ex(2, "fine times", 1), ex(3, "awful times", 0)]
    model = nbsvm_train(train, alpha=1.0, epochs=1)
    assert "fine fine" not in model.vocab
    labels_a, scores_a = nbsvm_predict(model, ["fine fine fine fine"])
    labels_b, scores_b = nbsvm_predict(model, ["fine"])
    assert scores_a[0] == scores_b[0]
    assert labels_a[0] == labels_b[0]


def test_separable_set_is_fit():
    pos = [f"oh {w} just {v}" for w in ("great", "wonderful", "perfect")
           for v in ("great", "lovely")]
    neg = [f"the {w} was {v}" for w in ("report", "meeting", "train")
           for v in ("fine", "late")]
    train = [ex(i, t, 1) for i, t in enumerate(pos)] + \
            [ex(100 + i, t, 0) for i, t in enumerate(neg)]
    model = nbsvm_train(train, epochs=5)
    labels, scores = nbsvm_predict(model, [e.text for e in train])
    golds = np.array([e.target for e in train])
    assert (labels == golds).all()
    assert scores[golds == 1].min() > scores[golds == 0].max()


def test_scores_are_probabilities():
    train = [ex(0, "yes yes", 1), ex(1, "no no", 0)]
    model = nbsvm_train(train)
    _, scores = nbsvm_predict(model, ["yes", "no", "yes no", "unrelated words"])
    assert ((scores > 0.0) & (scores < 1.0)).all()


def test_unseen_ngrams_are_ignored():
    train = [ex(0, "known positive words", 1), ex(1, "known negative words", 0)]
    model = nbsvm_train(train)
    _, base = nbsvm_predict(model, ["positive"])
    _, extra = nbsvm_predict(model, ["positive zzz qqq"])
    # "positive zzz" bigram is unseen too; only the "positive" unigram fires
    assert extra[0] == base[0]


def test_empty_text_scores_at_bias():
    train = [ex(0, "aye", 1), ex(1, "nay", 0)]
    model = nbsvm_train(train)
    _, scores = nbsvm_predict(model, [""])
    assert scores[0] == pytest.approx(1.0 / (1.0 + np.exp(-model.bias)), abs=1e-12)


def test_training_is_deterministic():
    train = [ex(i, t, i % 2) for i, t in enumerate(
        ["sun out again", "sure, love that", "train on time", "oh joy, delays",
         "coffee was hot", "great, more rain"])]
    a = nbsvm_train(train, seed=3)
    b = nbsvm_train(train, seed=3)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    c = nbsvm_train(train, seed=4)
    assert not np.array_equal(a.weights, c.weights)


def test_degenerate_training_sets_rejected():
    with pytest.raises(DataError):
        nbsvm_train([])
    with pytest.raises(DataError, match="both classes"):
        nbsvm_train([ex(0, "a", 1), ex(1, "b", 1)])


def test_save_load_round_trip(tmp_path):
    train = [ex(0, "good stuff here", 1), ex(1, "bad stuff there", 0),
             ex(2, "more good", 1), ex(3, "more bad", 0)]
    model = nbsvm_train(train)
    path = tmp_path / "baseline.json"
    save_nbsvm(path, model)
    back = load_nbsvm(path)
    assert back.vocab == model.vocab
    assert back.alpha == model.alpha
    assert back.bias == model.bias
    np.testing.assert_array_equal(back.r, model.r)
    np.testing.assert_array_equal(back.weights, model.weights)
    texts = ["good", "bad", "stuff", "entirely new"]
    la, sa = nbsvm_predict(model, texts)
    lb, sb = nbsvm_predict(back, texts)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(sa, sb)


def test_case_folding_matches_training():
    train = [ex(0, "GREAT stuff", 1), ex(1, "awful stuff", 0)]
    model = nbsvm_train(train)
    assert "great" in model.vocab and "GREAT" not in model.vocab
    _, upper = nbsvm_predict(model, ["GREAT"])
    _, lower = nbsvm_predict(model, ["great"])
    assert upper[0] == lower[0]


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), True, "1"])
def test_alpha_must_be_a_finite_positive_number(alpha):
    train = [ex(0, "good movie", 1), ex(1, "bad movie", 0)]
    with pytest.raises(ConfigError, match="alpha"):
        nbsvm_train(train, alpha=alpha)
