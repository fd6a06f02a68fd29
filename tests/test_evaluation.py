import io
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lidkit.corpus import LabeledLine
from lidkit.errors import EmptyScope, InputMismatch
from lidkit.evaluation import (
    CalibrationBins,
    ConfusionCounts,
    EvalScope,
    LabelCounts,
    cleanness,
    confusion,
    f1_macro,
    fpr_macro,
    intersect_scope,
    reliability,
    skew_testset,
    write_calibration,
    write_report,
)

LABELS = ["deu", "eng", "fra", "und"]


def brute_counts(gold, pred, label):
    tp = fp = fn = tn = 0
    for g, p in zip(gold, pred):
        if g == label and p == label:
            tp += 1
        elif g != label and p == label:
            fp += 1
        elif g == label:
            fn += 1
        else:
            tn += 1
    return LabelCounts(tp, fp, fn, tn)


class TestConfusion:
    def test_perfect_predictions(self):
        gold = ["a", "b", "a", "c"]
        counts = confusion(gold, list(gold), EvalScope(frozenset("abc")))
        assert counts.per_label["a"] == LabelCounts(2, 0, 0, 2)
        assert counts.per_label["b"] == LabelCounts(1, 0, 0, 3)
        assert counts.total == 4

    def test_everything_undetermined_is_all_false_negatives(self):
        gold = ["a", "a", "b"]
        counts = confusion(gold, ["und"] * 3, EvalScope(frozenset("ab")))
        assert counts.per_label["a"] == LabelCounts(0, 0, 2, 1)
        assert counts.per_label["b"] == LabelCounts(0, 0, 1, 2)

    def test_matches_brute_force(self):
        rng = random.Random(17)
        gold = [rng.choice(LABELS[:3]) for _ in range(500)]
        pred = [rng.choice(LABELS) for _ in range(500)]
        scope = EvalScope(frozenset(LABELS[:3]))
        counts = confusion(gold, pred, scope)
        for label in scope.labels:
            assert counts.per_label[label] == brute_counts(gold, pred, label)

    def test_length_mismatch(self):
        with pytest.raises(InputMismatch):
            confusion(["a"], ["a", "b"], EvalScope(frozenset("ab")))

    def test_empty_scope(self):
        with pytest.raises(EmptyScope):
            EvalScope(frozenset())

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from(["a", "b", "c", "und"])),
            min_size=1,
            max_size=60,
        )
    )
    def test_cell_invariants(self, pairs):
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        scope = EvalScope(frozenset("abc"))
        counts = confusion(gold, pred, scope)
        for label in scope.labels:
            c = counts.per_label[label]
            assert c.tp + c.fp + c.fn + c.tn == len(pairs)
            assert c.tp + c.fn == gold.count(label)
            assert c.tp + c.fp == pred.count(label)


class TestMacroMetrics:
    def test_perfect_scores(self):
        gold = ["a", "b", "c"] * 5
        scope = EvalScope(frozenset("abc"))
        counts = confusion(gold, list(gold), scope)
        assert f1_macro(counts, scope) == 1.0
        assert fpr_macro(counts, scope) == 0.0

    def test_zero_denominators_count_as_zero(self):
        # Label "c" never occurs in gold or pred: F1 = 0/0 -> 0, and it
        # still participates in (and drags down) the macro average.
        gold = ["a", "a", "b", "b"]
        pred = ["a", "a", "b", "b"]
        scope = EvalScope(frozenset("abc"))
        counts = confusion(gold, pred, scope)
        assert f1_macro(counts, scope) == pytest.approx(2 / 3)
        assert fpr_macro(counts, scope) == 0.0
        assert cleanness(counts, "c") == 0.0

    def test_matches_fraction_oracle(self):
        rng = random.Random(3)
        gold = [rng.choice(LABELS[:3]) for _ in range(400)]
        pred = [rng.choice(LABELS) for _ in range(400)]
        scope = EvalScope(frozenset(LABELS[:3]))
        counts = confusion(gold, pred, scope)

        def frac_ratio(num, den):
            return Fraction(num, den) if den else Fraction(0)

        f1s, fprs = [], []
        for label in scope.labels:
            c = brute_counts(gold, pred, label)
            f1s.append(frac_ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn))
            fprs.append(frac_ratio(c.fp, c.fp + c.tn))
            assert cleanness(counts, label) == pytest.approx(
                float(frac_ratio(c.tp, c.tp + c.fp)), rel=1e-12
            )
        assert f1_macro(counts, scope) == pytest.approx(
            float(sum(f1s) / len(f1s)), rel=1e-12
        )
        assert fpr_macro(counts, scope) == pytest.approx(
            float(sum(fprs) / len(fprs)), rel=1e-12
        )

    def test_independent_of_string_hash_seed(self):
        # macro sums must not follow the frozenset's hash-seeded order
        script = (
            "import random\n"
            "from lidkit.evaluation import EvalScope, confusion, f1_macro, fpr_macro\n"
            "rng = random.Random(0)\n"
            "labels = [f'l{i:03d}' for i in range(300)]\n"
            "gold = [rng.choice(labels) for _ in range(3000)]\n"
            "pred = [g if rng.random() < 0.6 else rng.choice(labels) for g in gold]\n"
            "scope = EvalScope(frozenset(labels))\n"
            "c = confusion(gold, pred, scope)\n"
            "print(repr(f1_macro(c, scope)), repr(fpr_macro(c, scope)))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outputs = []
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True,
            ).stdout)
        assert outputs[0] == outputs[1]

    def test_cleanness_is_precision(self):
        per_label = {"x": LabelCounts(100, 99, 7, 0)}
        counts = ConfusionCounts(per_label, 206)
        assert cleanness(counts, "x") == pytest.approx(100 / 199)


class TestSkew:
    def test_no_factors_is_identity(self):
        test = [LabeledLine("a", "one"), LabeledLine("b", "two")]
        assert skew_testset(test, {}) == test

    def test_replicates_adjacent(self):
        test = [
            LabeledLine("big", "x1"),
            LabeledLine("small", "y"),
            LabeledLine("big", "x2"),
        ]
        out = skew_testset(test, {"big": 3})
        assert [l.text for l in out] == ["x1", "x1", "x1", "y", "x2", "x2", "x2"]
        assert len(out) == 7

    def test_skew_inflates_false_positives_not_true_positives(self):
        # 12 dzo sentences predicted dzo; 1 bod sentence misread as dzo.
        gold = ["dzo"] * 12 + ["bod"]
        pred = ["dzo"] * 13
        scope = EvalScope(frozenset({"dzo", "bod"}))
        before = cleanness(confusion(gold, pred, scope), "dzo")
        gold_skewed = ["dzo"] * 12 + ["bod"] * 100
        pred_skewed = ["dzo"] * 13 + ["dzo"] * 99
        after = cleanness(confusion(gold_skewed, pred_skewed, scope), "dzo")
        assert before == pytest.approx(12 / 13)
        assert after == pytest.approx(12 / 112)

    def test_factor_validation(self):
        test = [LabeledLine("a", "x")]
        with pytest.raises(ValueError):
            skew_testset(test, {"a": 0})
        with pytest.raises(ValueError):
            skew_testset(test, {"a": 2.0})

    @given(
        st.lists(st.sampled_from("ab"), min_size=0, max_size=30),
        st.integers(1, 9),
    )
    def test_length_is_weighted_sum(self, labels, factor):
        test = [LabeledLine(l, f"t{i}") for i, l in enumerate(labels)]
        out = skew_testset(test, {"a": factor})
        assert len(out) == labels.count("a") * factor + labels.count("b")


class TestIntersectScope:
    def test_plain_intersection(self):
        scope = intersect_scope({"a", "b", "c"}, {"b", "c", "d"}, {"c", "b", "x"})
        assert scope.labels == frozenset({"b", "c"})

    def test_disjoint_raises_empty_scope(self):
        with pytest.raises(EmptyScope):
            intersect_scope({"a"}, {"b"}, {"a", "b"})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            intersect_scope(set(), {"a"}, {"a"})


class TestReliability:
    def test_confident_and_correct(self):
        bins = reliability(["a"] * 4, [1.0] * 4, ["a"] * 4, 10)
        assert bins.bins[-1].n == 4
        assert bins.bins[-1].mean_conf == 1.0
        assert bins.bins[-1].accuracy == 1.0
        assert sum(b.n for b in bins.bins) == 4

    def test_single_bin_is_overall_accuracy(self):
        pred = ["a", "b", "a", "a"]
        gold = ["a", "a", "a", "b"]
        bins = reliability(pred, [0.5, 0.5, 0.9, 0.1], gold, 1)
        assert bins.bins[0].accuracy == pytest.approx(2 / 4)
        assert bins.bins[0].n == 4

    def test_edges_are_right_closed(self):
        # 0.1 lands in the first of ten bins, anything above it in the second
        bins = reliability(["a", "a"], [0.1, 0.1000001], ["a", "a"], 10)
        assert bins.bins[0].n == 1
        assert bins.bins[1].n == 1

    def test_zero_confidence_lands_in_first_bin(self):
        bins = reliability(["a"], [0.0], ["b"], 5)
        assert bins.bins[0].n == 1
        assert bins.bins[0].accuracy == 0.0

    def test_empty_bins_are_zeroed(self):
        bins = reliability(["a"], [0.55], ["a"], 10)
        for i, b in enumerate(bins.bins):
            if i != 5:
                assert (b.n, b.mean_conf, b.accuracy) == (0, 0.0, 0.0)
        assert bins.bins[5].n == 1

    def test_bounds_cover_unit_interval(self):
        bins = reliability(["a"], [0.5], ["a"], 4)
        assert [(b.lo, b.hi) for b in bins.bins] == [
            (0.0, 0.25),
            (0.25, 0.5),
            (0.5, 0.75),
            (0.75, 1.0),
        ]

    def test_out_of_range_confidence(self):
        with pytest.raises(ValueError):
            reliability(["a"], [1.2], ["a"], 10)
        with pytest.raises(ValueError):
            reliability(["a"], [-0.1], ["a"], 10)

    def test_misaligned_inputs(self):
        with pytest.raises(InputMismatch):
            reliability(["a", "b"], [0.5], ["a", "b"], 10)

    def test_bad_bin_count(self):
        with pytest.raises(ValueError):
            reliability(["a"], [0.5], ["a"], 0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("ab"),
                st.floats(0.0, 1.0),
                st.sampled_from("ab"),
            ),
            min_size=1,
            max_size=50,
        ),
        st.integers(1, 12),
    )
    @example([("a", 0.4, "a")] * 3, 5)  # the rounded mean is one ulp above 0.4
    def test_every_row_lands_in_its_bin(self, rows, n_bins):
        pred = [p for p, _, _ in rows]
        conf = [c for _, c, _ in rows]
        gold = [g for _, _, g in rows]
        bins = reliability(pred, conf, gold, n_bins)
        assert sum(b.n for b in bins.bins) == len(rows)
        for b in bins.bins:
            if b.n:
                assert b.lo <= b.mean_conf <= b.hi or b.mean_conf == 0.0


class TestReports:
    def test_report_golden(self):
        gold = ["aa", "aa", "bb"]
        pred = ["aa", "bb", "bb"]
        scope = EvalScope(frozenset({"aa", "bb"}))
        out = io.StringIO()
        write_report(out, confusion(gold, pred, scope), scope)
        assert out.getvalue() == (
            "label\tTP\tFP\tFN\tTN\tF1\tFPR\tcl\n"
            "aa\t1\t0\t1\t1\t0.6666666666666666\t0.0\t1.0\n"
            "bb\t1\t1\t0\t1\t0.6666666666666666\t0.5\t0.5\n"
            "__macro__\t2\t1\t1\t2\t0.6666666666666666\t0.25\t0.75\n"
        )

    def test_calibration_golden(self):
        bins = reliability(["a", "b"], [0.3, 0.9], ["a", "a"], 2)
        out = io.StringIO()
        write_calibration(out, bins)
        assert out.getvalue() == (
            "bin_lo\tbin_hi\tmean_conf\taccuracy\tn\n"
            "0.0\t0.5\t0.3\t1.0\t1\n"
            "0.5\t1.0\t0.9\t0.0\t1\n"
        )

    def test_calibration_type_roundtrip(self):
        bins = reliability(["a"], [0.4], ["a"], 3)
        assert isinstance(bins, CalibrationBins)
        assert bins.n_bins == 3
        assert len(bins.bins) == 3
