"""Turning probability distributions into labels.

Covers the confidence-thresholded decision rule with base-set restriction,
consolidation of language varieties into their macrolanguage, and
many-to-one label mapping between coding schemes.

The rule is deliberately literal: the maximum is taken over the base set's
RAW probabilities, with no renormalization after restriction, and the
sentence is Undetermined whenever that raw maximum falls below theta.

The arithmetic works on probability arrays whose columns are in sorted
label order.  :class:`Decider` runs it for `predict` and `clean`, through
one row path: one column plan folds the model's columns and cuts them to
the base set in a single pass, then it ranks each line's top k, and
`clean` takes k = 1.  :func:`rollup` and :func:`decide` apply the same
code to a :class:`PredictionDist`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import UNDETERMINED, check_label
from .errors import EmptyScope, FormatError, UnmappedLabel
from .model import (
    LidModel,
    PredictionDist,
    RowBuffer,
    Scorer,
    _check_k,
    top_k,
)


class Scenario(enum.Enum):
    """Whether the benchmark's language set is known to the caller.

    SET_KNOWN restricts predictions to the benchmark's languages; in
    SET_UNKNOWN the base set must be the model's entire label inventory.
    """

    SET_KNOWN = "set-known"
    SET_UNKNOWN = "set-unknown"


@dataclass(frozen=True)
class DecisionConfig:
    base_set: frozenset[str]
    theta: float

    def __post_init__(self) -> None:
        if not self.base_set:
            raise ValueError("base_set must be non-empty")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")

    @classmethod
    def for_model(
        cls,
        model_labels: Iterable[str],
        theta: float,
        base_set: Iterable[str] | None = None,
    ) -> "DecisionConfig":
        """Build a config against a model's label inventory.

        With no base set the base set is all model labels; otherwise it is
        the intersection (labels the model cannot emit are useless in the
        base set).  EmptyScope if nothing survives.
        """
        labels = frozenset(model_labels)
        if base_set is None:
            return cls(labels, theta)
        restricted = labels & frozenset(base_set)
        if not restricted:
            raise EmptyScope("base set shares no labels with the model")
        return cls(restricted, theta)


@dataclass(frozen=True)
class LanguageHierarchy:
    """Variety -> macrolanguage map.  Flat by construction: no macrolanguage
    is also a variety, so no cycles; each passes :func:`check_label`."""

    macro_of: Mapping[str, str]

    def __post_init__(self) -> None:
        bad = set(self.macro_of) & set(self.macro_of.values())
        if bad:
            raise ValueError(f"labels are both variety and macrolanguage: {sorted(bad)}")
        for macro in set(self.macro_of.values()):
            check_label(macro)


@dataclass(frozen=True)
class LabelMap:
    """Many-to-one relabeling rules from a source scheme to a target scheme."""

    rules: Mapping[str, str]


class _RollupPlan:
    """Column plan that folds each variety's column into its macrolanguage.

    Built once from a label list; :meth:`apply` maps a probability array
    over those labels to one over :attr:`labels`: the rolled-up labels in
    sorted order, or, given a ``scope`` of some of them, the scope's labels
    in sorted order.  Each output entry starts from the label's
    own column (0.0 when it is not an input label), then adds one variety
    slot at a time, varieties in lexicographic order: the same float
    additions, in the same order, as the documented left-to-right sum.  A
    scoped plan reads no column whose target lies outside the scope, and
    its entries have the bits of the full plan's.
    """

    def __init__(self, labels: Sequence[str], hierarchy: LanguageHierarchy,
                 scope: Iterable[str] | None = None):
        targets = [hierarchy.macro_of.get(label, label) for label in labels]
        # dict.fromkeys keeps input order, so sorted input sorts in one pass
        self.labels: tuple[str, ...] = tuple(
            sorted(dict.fromkeys(targets) if scope is None else scope))
        row = {label: i for i, label in enumerate(self.labels)}
        # each output label's own input column, and (output rows, input
        # columns) for each slot; a label is its own target exactly when it
        # is not a variety.  A macrolanguage that is no input label reads
        # column 0 and is then zeroed
        own = np.zeros(len(self.labels), dtype=np.intp)
        has_own = np.zeros(len(self.labels), dtype=bool)
        varieties: dict[str, list[tuple[str, int]]] = {}
        for col, (label, target) in enumerate(zip(labels, targets)):
            if target not in row:
                continue
            if label == target:
                own[row[label]] = col
                has_own[row[label]] = True
            else:
                varieties.setdefault(target, []).append((label, col))
        slots: list[tuple[list[int], list[int]]] = []
        for macro, cols in varieties.items():
            for slot, (_, col) in enumerate(sorted(cols)):
                if slot == len(slots):
                    slots.append(([], []))
                slots[slot][0].append(row[macro])
                slots[slot][1].append(col)
        self._own = own
        self._no_own = np.flatnonzero(~has_own)
        self._slots = [(np.array(r, dtype=np.intp), np.array(c, dtype=np.intp))
                       for r, c in slots]

    def apply(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``p`` rolled up along its last axis: one row or a block of rows.
        Written into ``out``, a float64 array of the result's shape, when
        one is given."""
        if out is None:
            out = np.empty(p.shape[:-1] + (len(self.labels),))
        # mode="clip" takes straight into out; the default mode copies
        # through a temporary, and the columns are in range anyway
        np.take(p, self._own, axis=-1, out=out, mode="clip")
        out[..., self._no_own] = 0.0
        for rows, cols in self._slots:
            out[..., rows] += np.take(p, cols, axis=-1)  # rows are distinct within a slot
        return out


class Decider:
    """The decision path of one run of `predict` or `clean`.

    Built once from a model and the ``-theta``, ``-base-set`` and
    ``-hierarchy`` values.  Varieties fold first, so the decision scope is
    the rolled-up labels, cut to the base set if there is one; EmptyScope if
    none remain.  One column plan (:class:`_RollupPlan` restricted to the
    scope) maps the model's labels to the scope's, unless the scope is the
    model's labels themselves: then nothing folds, nothing is cut and the
    plan is None.  Per block of lines it computes the model's probabilities
    (:class:`Scorer`), applies the plan and ranks each line's top k of the
    scope's columns; the first is the decision, Undetermined when its
    probability is below theta.  That is its one row path:
    :meth:`decide_batch` is :meth:`rank_batch` with k = 1.  It counts the
    lines, those with no features, and the Undetermined ones (no-feature
    lines too).

    Like its Scorer, it keeps the arrays of a block in buffers across
    blocks: ``_scope``, the plan's scope columns, as wide as the scope;
    :func:`top_k` ranks them in place, one argmax pass per rank, with no
    copy.  It is not safe to share across threads.
    """

    def __init__(
        self,
        model: LidModel,
        theta: float,
        base_set: Iterable[str] | None = None,
        hierarchy: LanguageHierarchy | None = None,
    ):
        self._scorer = Scorer(model)
        macro_of = {} if hierarchy is None else hierarchy.macro_of
        rolled = {macro_of.get(label, label) for label in model.labels}
        try:
            config = DecisionConfig.for_model(rolled, theta, base_set)
        except EmptyScope:
            if hierarchy is None:
                raise
            raise EmptyScope("base set shares no labels with the model's labels "
                             "after the rollup") from None
        self._labels = tuple(sorted(config.base_set))
        # a scope of every model label is the scored block itself
        self._plan = None if self._labels == model.labels else _RollupPlan(
            model.labels, hierarchy or LanguageHierarchy({}), self._labels)
        self._theta = config.theta
        self._scope = RowBuffer(len(self._labels))
        self.lines = 0
        self.no_feature = 0
        self.und = 0

    def _rank_rows(self, p: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
        """:meth:`rank_batch`'s pairs for each row of the model's
        probabilities ``p``; counts the Undetermined rows."""
        q = p if self._plan is None else self._plan.apply(p, out=self._scope.rows(len(p)))
        order = top_k(q, k)
        ranked = np.take_along_axis(q, order, axis=1)
        sure = (ranked[:, 0] >= self._theta).tolist()
        self.und += sure.count(False)
        # each line's pairs, a rank at a time: the decision's, then the rest
        labels = self._labels
        ranks, probs = order.T.tolist(), ranked.T.tolist()
        tops = [labels[c] if ok else UNDETERMINED for c, ok in zip(ranks[0], sure)]
        rows = [[pair] for pair in zip(tops, probs[0])]
        for cols, ps in zip(ranks[1:], probs[1:]):
            for row, c, x in zip(rows, cols, ps):
                row.append((labels[c], x))
        return rows

    def rank_batch(self, texts: Sequence[str], k: int) -> list[list[tuple[str, float]]]:
        """Per line, its decision and up to k base-set (label, probability) pairs.

        The pairs are ranked by rolled-up base-set probability, ties to the
        smaller label.  The first pair's label is the decision: an
        Undetermined decision keeps the raw base-set maximum as its
        probability.  A line with no features gives ``[(UNDETERMINED, 1.0)]``.
        Raises ValueError for k < 1 before it scores or counts a line.
        """
        _check_k(k)
        out: list[list[tuple[str, float]]] = []
        for has, p in self._scorer.iter_blocks(texts):
            self.lines += len(has)
            self.no_feature += len(has) - len(p)
            self.und += len(has) - len(p)
            rows = iter(self._rank_rows(p, k))
            out += [next(rows) if h else [(UNDETERMINED, 1.0)] for h in has.tolist()]
        return out

    def decide_batch(self, texts: Sequence[str]) -> list[str]:
        """Each line's label, or Undetermined: :meth:`rank_batch` with k = 1."""
        return [pairs[0][0] for pairs in self.rank_batch(texts, 1)]

    def rank_probs(self, p: np.ndarray, k: int) -> list[tuple[str, float]]:
        """One line's :meth:`rank_batch` pairs for the model's probabilities
        ``p``, in label order; it ranks a copy, as ranking writes into what
        it ranks.  It is the one entry that ranks a given distribution: the
        oracle tests use it for exact ties, which no text produces."""
        _check_k(k)
        return self._rank_rows(np.array(p, dtype=np.float64)[None], k)[0]


def decide(dist: PredictionDist, config: DecisionConfig) -> str:
    """Apply the threshold rule: argmax over the base set, or Undetermined.

    Probabilities are compared raw — restricting to the base set does not
    renormalize them.  Ties break toward the lexicographically smaller
    label.  Returns UNDETERMINED iff the base-set maximum is < theta.
    """
    labels = sorted(config.base_set)
    try:
        q = np.fromiter(map(dist.probs.__getitem__, labels), dtype=np.float64,
                        count=len(labels))
    except KeyError as exc:
        raise ValueError(f"base set label {exc.args[0]!r} not in distribution") from None
    j = int(np.argmax(q))
    return labels[j] if q[j] >= config.theta else UNDETERMINED


def rollup(dist: PredictionDist, hierarchy: LanguageHierarchy) -> PredictionDist:
    """Fold each variety's probability into its macrolanguage.

    Varieties disappear from the result; labels outside the hierarchy pass
    through untouched.  Each output probability is accumulated left to
    right as (macrolanguage's own mass, then its varieties in lexicographic
    order), a fixed summation order that makes total mass conservation
    exact — the result is a rearrangement of the same float addends.
    """
    plan = _RollupPlan(list(dist.probs), hierarchy)
    p = np.fromiter(dist.probs.values(), dtype=np.float64, count=len(dist.probs))
    return PredictionDist(dict(zip(plan.labels, plan.apply(p).tolist())))


def map_labels(
    labels: Sequence[str], label_map: LabelMap, strict: bool = True
) -> list[str]:
    """Relabel a sequence through the map.

    The Undetermined sentinel always passes through unchanged.  Labels
    without a rule raise UnmappedLabel in strict mode and pass through
    unchanged otherwise (needed when models emit labels outside the
    benchmark's scheme).
    """
    out: list[str] = []
    for label in labels:
        if label == UNDETERMINED:
            out.append(label)
            continue
        target = label_map.rules.get(label)
        if target is None:
            if strict:
                raise UnmappedLabel(f"no mapping rule for {label!r}")
            target = label
        out.append(target)
    return out


# --- data file loaders ------------------------------------------------------


def _content_lines(path: str) -> Iterator[tuple[int, str]]:
    """(lineno, line) for each line of a UTF-8 file, stripped, that is
    neither blank nor a '#' comment.  A line ends at ``\n`` only, as in
    every other reader: a lone ``\r`` stays inside its line."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _read_pair_lines(path: str) -> list[tuple[int, str, str]]:
    """Parse a two-column TSV with '#' comment lines; (lineno, src, tgt)."""
    rows: list[tuple[int, str, str]] = []
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise FormatError(f"{path}:{lineno}: expected 'source<TAB>target'")
        rows.append((lineno, parts[0], parts[1]))
    return rows


def _pairs_to_map(path: str, rows: list[tuple[int, str, str]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, src, tgt in rows:
        if src in out:
            raise FormatError(f"{path}:{lineno}: duplicate source label {src!r}")
        out[src] = tgt
    return out


def load_hierarchy(path: str) -> LanguageHierarchy:
    """Load a variety<TAB>macrolanguage file."""
    mapping = _pairs_to_map(path, _read_pair_lines(path))
    try:
        return LanguageHierarchy(mapping)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_label_map(path: str) -> LabelMap:
    """Load a source<TAB>target relabeling file."""
    return LabelMap(_pairs_to_map(path, _read_pair_lines(path)))


def load_label_set(path: str) -> frozenset[str]:
    """Load a one-label-per-line file ('#' comments allowed)."""
    labels: set[str] = set()
    for lineno, line in _content_lines(path):
        if any(ch.isspace() for ch in line):
            raise FormatError(f"{path}:{lineno}: label contains whitespace")
        labels.add(line)
    return frozenset(labels)
