"""Scoring predictions: confusion counts, macro metrics, skew, calibration.

All metrics are one-vs-rest per label over a declared scope (the label set
the macro averages run over).  The Undetermined sentinel is an ordinary
non-matching value here: it counts as a negative for every label, so a
thresholded-away sentence costs its gold label a false negative and gives
nobody a false positive.

Degenerate ratios follow an explicit convention: F1, FPR, and cleanness
are all defined as 0 when their denominator is 0.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import IO, Callable, Mapping, Sequence, TypeVar

from .errors import EmptyScope, InputMismatch

T = TypeVar("T")


@dataclass(frozen=True)
class LabelCounts:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class ConfusionCounts:
    """One-vs-rest counts per label; every label's four cells sum to total."""

    per_label: Mapping[str, LabelCounts]
    total: int


@dataclass(frozen=True)
class EvalScope:
    """The label set macro averages run over."""

    labels: frozenset[str]

    def __post_init__(self) -> None:
        if not self.labels:
            raise EmptyScope("evaluation scope is empty")


@dataclass(frozen=True)
class BinStats:
    lo: float
    hi: float
    mean_conf: float
    accuracy: float
    n: int


@dataclass(frozen=True)
class CalibrationBins:
    n_bins: int
    bins: tuple[BinStats, ...]


def confusion(
    gold: Sequence[str], pred: Sequence[str], scope: EvalScope
) -> ConfusionCounts:
    """Per-label one-vs-rest confusion counts over the scope."""
    if len(gold) != len(pred):
        raise InputMismatch(f"{len(gold)} gold labels vs {len(pred)} predictions")
    total = len(gold)
    pair_counts = Counter(zip(gold, pred))
    gold_counts = Counter(gold)
    pred_counts = Counter(pred)
    per_label: dict[str, LabelCounts] = {}
    for label in sorted(scope.labels):
        tp = pair_counts.get((label, label), 0)
        fp = pred_counts.get(label, 0) - tp
        fn = gold_counts.get(label, 0) - tp
        per_label[label] = LabelCounts(tp, fp, fn, total - tp - fp - fn)
    return ConfusionCounts(per_label, total)


def _ratio(num: int, den: int) -> float:
    # 0/0 is defined as 0 for every metric here
    return num / den if den else 0.0


def _f1(c: LabelCounts) -> float:
    return _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn)


def _fpr(c: LabelCounts) -> float:
    return _ratio(c.fp, c.fp + c.tn)


def f1_macro(counts: ConfusionCounts, scope: EvalScope) -> float:
    """Unweighted mean of per-label F1 = 2TP / (2TP + FP + FN) over the scope."""
    return sum(_f1(counts.per_label[l]) for l in sorted(scope.labels)) / len(scope.labels)


def fpr_macro(counts: ConfusionCounts, scope: EvalScope) -> float:
    """Unweighted mean of per-label FPR = FP / (FP + TN) over the scope."""
    return sum(_fpr(counts.per_label[l]) for l in sorted(scope.labels)) / len(scope.labels)


def cleanness(counts: ConfusionCounts, label: str) -> float:
    """TP / (TP + FP): purity of the corpus this classifier would produce."""
    c = counts.per_label[label]
    return _ratio(c.tp, c.tp + c.fp)


def skew_testset(
    test: Sequence[T],
    inflate: Mapping[str, int],
    label: Callable[[T], str] = attrgetter("label"),
) -> list[T]:
    """Replicate each line by its label's factor (replicas adjacent).

    Simulates realistic label imbalance: inflating a high-resource
    language multiplies the false positives it feeds into everyone else
    while leaving their true positives alone.  The lines are
    :class:`LabeledLine` by default; ``label`` gives the gold label of
    any other row, such as a (gold, predicted) pair.
    """
    for name, factor in inflate.items():
        if not isinstance(factor, int) or factor < 1:
            raise ValueError(f"factor for {name!r} must be an integer >= 1")
    out: list[T] = []
    for line in test:
        out.extend([line] * inflate.get(label(line), 1))
    return out


def intersect_scope(
    model_labels_a: set[str], model_labels_b: set[str], benchmark_labels: set[str]
) -> EvalScope:
    """Scope for comparing two systems on one benchmark: A ∩ B ∩ T."""
    if not (model_labels_a and model_labels_b and benchmark_labels):
        raise ValueError("label sets must be non-empty")
    common = frozenset(model_labels_a) & frozenset(model_labels_b) & frozenset(
        benchmark_labels
    )
    if not common:
        raise EmptyScope("no label is shared by both models and the benchmark")
    return EvalScope(common)


def reliability(
    pred: Sequence[str],
    confidences: Sequence[float],
    gold: Sequence[str],
    n_bins: int,
) -> CalibrationBins:
    """Bin top-1 predictions by confidence; report per-bin mean confidence
    and accuracy.

    Bins are equal-width on [0, 1] and right-closed except the first
    (which also contains 0).  Empty bins are reported with count 0 and
    zeroed statistics.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if not (len(pred) == len(confidences) == len(gold)):
        raise InputMismatch("pred, confidences, and gold must align")
    edges = [i / n_bins for i in range(n_bins + 1)]
    conf_sum = [0.0] * n_bins
    correct = [0] * n_bins
    count = [0] * n_bins
    for p, c, g in zip(pred, confidences, gold):
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"confidence out of range: {c}")
        # bisect against the exact edge floats keeps assignment consistent
        # with the reported (lo, hi] bounds
        idx = max(0, bisect_left(edges, c) - 1)
        conf_sum[idx] += c
        correct[idx] += p == g
        count[idx] += 1
    # the mean of a bin's confidences lies within its edges, but the rounded
    # sum can carry it one ulp past them (three 0.4s average 0.4000000000000001)
    bins = tuple(
        BinStats(
            edges[i],
            edges[i + 1],
            min(max(conf_sum[i] / count[i], edges[i]), edges[i + 1]) if count[i] else 0.0,
            correct[i] / count[i] if count[i] else 0.0,
            count[i],
        )
        for i in range(n_bins)
    )
    return CalibrationBins(n_bins, bins)


MACRO_ROW = "__macro__"


def write_report(stream: IO[str], counts: ConfusionCounts, scope: EvalScope) -> None:
    """Emit the per-label TSV report plus the __macro__ summary row.

    The macro row carries summed counts alongside the unweighted macro
    F1/FPR and the mean per-label cleanness.
    """
    stream.write("label\tTP\tFP\tFN\tTN\tF1\tFPR\tcl\n")
    labels = sorted(scope.labels)
    for label in labels:
        c = counts.per_label[label]
        cl = cleanness(counts, label)
        stream.write(
            f"{label}\t{c.tp}\t{c.fp}\t{c.fn}\t{c.tn}\t{_f1(c)}\t{_fpr(c)}\t{cl}\n"
        )
    sums = [
        sum(getattr(counts.per_label[l], f) for l in labels)
        for f in ("tp", "fp", "fn", "tn")
    ]
    mean_cl = sum(cleanness(counts, l) for l in labels) / len(labels)
    stream.write(
        f"{MACRO_ROW}\t{sums[0]}\t{sums[1]}\t{sums[2]}\t{sums[3]}\t"
        f"{f1_macro(counts, scope)}\t{fpr_macro(counts, scope)}\t{mean_cl}\n"
    )


def write_calibration(stream: IO[str], bins: CalibrationBins) -> None:
    """Emit calibration bins as TSV for external plotting."""
    stream.write("bin_lo\tbin_hi\tmean_conf\taccuracy\tn\n")
    for b in bins.bins:
        stream.write(f"{b.lo}\t{b.hi}\t{b.mean_conf}\t{b.accuracy}\t{b.n}\n")
