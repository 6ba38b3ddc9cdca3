import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from outcentr.metrics import Confusion, confusion, prf1, roc_auc

from oracles import pairwise_auc


class TestConfusion:
    def test_cells(self):
        c = confusion([1, 0, 1, 0], [1, 0, 0, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 2, 0)

    def test_all_correct(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        assert c.fp == 0 and c.fn == 0

    def test_all_negative_predictions(self):
        flags = np.zeros(10, dtype=int)
        labels = np.r_[np.ones(3, dtype=int), np.zeros(7, dtype=int)]
        c = confusion(flags, labels)
        assert c.fn == 3 and c.tp == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        flags = rng.integers(0, 2, 50)
        labels = rng.integers(0, 2, 50)
        base = prf1(confusion(flags, labels))
        for _ in range(20):
            perm = rng.permutation(50)
            assert prf1(confusion(flags[perm], labels[perm])) == base


class TestPrf1:
    def test_balanced_example(self):
        m = prf1(Confusion(tp=2, fp=1, tn=0, fn=1))
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.f1 == pytest.approx(2 / 3)

    def test_zero_denominators(self):
        m = prf1(Confusion(tp=0, fp=0, tn=5, fn=5))
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_perfect(self):
        m = prf1(Confusion(tp=5, fp=0, tn=3, fn=0))
        assert m.precision == m.recall == m.f1 == 1.0


class TestRocAuc:
    def test_worked_example(self):
        # pairs: (0.35 vs 0.1) win, (0.35 vs 0.4) loss, (0.8 vs both) wins -> 3/4
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 100))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            base = roc_auc(scores, labels)
            assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
            assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_negating_scores_flips_auc(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 80))
            scores = rng.normal(size=n)  # continuous, ties have probability zero
            labels = rng.integers(0, 2, n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert roc_auc(-scores, labels) == pytest.approx(
                1.0 - roc_auc(scores, labels), abs=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_oracle_with_ties(self, data):
        n = data.draw(st.integers(2, 60), label="n")
        # a coarse grid forces plenty of exact ties, up to all scores equal
        levels = data.draw(st.integers(1, 5), label="levels")
        scores = data.draw(arrays(np.int64, n, elements=st.integers(0, levels - 1)), label="scores")
        labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)), label="labels")
        labels[:2] = (0, 1)
        assert roc_auc(scores.astype(float), labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_exact_pair_count(self, data):
        # Small integer scores tie often. U is counted pair by pair in Python
        # integers (a win 2, a tie 1, so 2U), and the two quotients must be
        # the same float: both are one correctly rounded division of 2U.
        n = data.draw(st.integers(2, 60), label="n")
        scores = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n), label="scores")
        labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
        labels[:2] = (0, 1)
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        twice_u = sum((p > q) * 2 + (p == q) for p in pos for q in neg)
        assert roc_auc(scores, labels) == twice_u / (2 * len(pos) * len(neg))


@pytest.mark.parametrize("measure", [confusion, roc_auc])
def test_rejects_scores_and_labels_of_different_lengths(measure):
    with pytest.raises(ValueError) as raised:
        measure([1, 0], [1])
    assert str(raised.value) == "length mismatch: (2,) vs (1,)"
