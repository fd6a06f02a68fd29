"""Corpus engineering: ingest, script filtering, dedup, splits, contamination.

The corpus is line-oriented labeled text in the common supervised-text
convention: ``__label__<code> <sentence>``, one sentence per line, UTF-8.
Labels follow ISO 639-3 (optionally with a script suffix) but are treated
as opaque strings throughout.

All operations here are pure functions over immutable ``LabeledLine``
sequences and are safe to run per-shard in parallel.
"""

from __future__ import annotations

import random
import unicodedata
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

from ._scriptdata import RUN_ENDS, RUN_SCRIPTS, RUN_STARTS
from .errors import FormatError

LABEL_PREFIX = "__label__"

#: Sentinel label for "no decision": emitted when a sentence has no
#: features, and by the threshold rule when no base-set probability is
#: confident enough.  "und" is the ISO 639-3 code for undetermined.  It is
#: reserved (:func:`check_label`), so it never names a language.
UNDETERMINED = "und"

# Script codes excluded from purity accounting (ISO 15924 Common/Inherited).
_IGNORED_SCRIPTS = ("Zyyy", "Zinh")


def check_label(label: str) -> None:
    """ValueError for a label that is empty, holds whitespace or is ``und``."""
    if label.split() != [label]:  # empty, or holds whitespace
        raise ValueError(f"bad label: {label!r}")
    if label == UNDETERMINED:
        raise ValueError(f"label {UNDETERMINED!r} is reserved for undetermined")


@dataclass(frozen=True)
class LabeledLine:
    """One labeled sentence.

    Text is NFC-normalized and trimmed on construction; ValueError if it is
    then empty, or if the label fails :func:`check_label`.
    """

    label: str
    text: str

    def __post_init__(self) -> None:
        check_label(self.label)
        norm = unicodedata.normalize("NFC", self.text).strip()
        if not norm:
            raise ValueError("empty text after trimming")
        object.__setattr__(self, "text", norm)


@dataclass(frozen=True)
class CorpusStats:
    """Per-label sentence counts and their total."""

    per_label_counts: Mapping[str, int]
    total: int

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.per_label_counts.values()):
            raise ValueError("counts must be >= 1")
        if self.total != sum(self.per_label_counts.values()):
            raise ValueError("total does not match counts")


@dataclass(frozen=True)
class ScriptProfile:
    """Letter-script histogram of one sentence.

    Only characters with Unicode general category Letter are counted, by
    their Unicode Script property; Common and Inherited letters are ignored.
    ``purity`` is the dominant script's share of counted letters (0.0 when
    the sentence has no counted letters, in which case ``dominant_script``
    is the Common placeholder "Zyyy").
    """

    per_script_letter_counts: Mapping[str, int]
    dominant_script: str
    purity: float


def _script_of(cp: int) -> str | None:
    """ISO 15924 code of a letter codepoint, None for non-letters."""
    i = bisect_right(RUN_STARTS, cp) - 1
    if i >= 0 and cp <= RUN_ENDS[i]:
        return RUN_SCRIPTS[i]
    return None


def detect_script(text: str) -> ScriptProfile:
    """Profile the scripts of a sentence's letters.

    Total on any Unicode string.  Dominance ties break toward the
    lexicographically smaller script code so results are reproducible.
    """
    counts: Counter[str] = Counter()
    for ch in text:
        code = _script_of(ord(ch))
        if code is not None and code not in _IGNORED_SCRIPTS:
            counts[code] += 1
    if not counts:
        return ScriptProfile({}, "Zyyy", 0.0)
    total = sum(counts.values())
    dominant = min(counts, key=lambda s: (-counts[s], s))
    return ScriptProfile(dict(counts), dominant, counts[dominant] / total)


def filter_by_script(
    lines: Sequence[LabeledLine],
    expected: Mapping[str, set[str]],
    min_purity: float,
) -> tuple[list[LabeledLine], int]:
    """Keep lines written in an expected script for their label.

    A line survives iff its dominant script is in ``expected[label]`` and
    its purity is at least ``min_purity``.  Labels absent from ``expected``
    pass unfiltered.  Returns (kept lines in input order, dropped count).
    """
    if not 0.0 <= min_purity <= 1.0:
        raise ValueError("min_purity must be in [0, 1]")
    kept: list[LabeledLine] = []
    dropped = 0
    for line in lines:
        allowed = expected.get(line.label)
        if allowed is None:
            kept.append(line)
            continue
        profile = detect_script(line.text)
        if profile.dominant_script in allowed and profile.purity >= min_purity:
            kept.append(line)
        else:
            dropped += 1
    return kept, dropped


def dedup(lines: Sequence[LabeledLine]) -> list[LabeledLine]:
    """Drop exact duplicate sentences, keeping first occurrences.

    Duplicates are detected globally across labels: the same text under two
    different labels keeps only whichever came first.  Equality is exact
    text match — construction already NFC-normalized and trimmed the text.
    """
    seen: set[str] = set()
    out: list[LabeledLine] = []
    for line in lines:
        if line.text not in seen:
            seen.add(line.text)
            out.append(line)
    return out


def split_train_test(
    lines: Sequence[LabeledLine],
    train_fraction: float = 0.85,
    test_cap: int = 1000,
    seed: int = 0,
) -> tuple[list[LabeledLine], list[LabeledLine]]:
    """Per-label random split into train and capped test sets.

    For each label with n lines, floor(n * train_fraction) uniformly random
    lines go to train; from the remainder r, min(test_cap, |r|) lines are
    sampled uniformly without replacement into test.  Remainder lines beyond
    the cap are discarded.  The draw is seeded per label (independent of
    label iteration order), so the same seed always reproduces the same
    split byte for byte.  Both outputs preserve original corpus order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if test_cap < 1:
        raise ValueError("test_cap must be >= 1")
    by_label: dict[str, list[int]] = defaultdict(list)
    for i, line in enumerate(lines):
        by_label[line.label].append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label, idxs in by_label.items():
        # \x1f keeps (seed, label) pairs collision-free in the seed string
        rng = random.Random(f"{seed}\x1f{label}")
        shuffled = list(idxs)
        rng.shuffle(shuffled)
        n_train = int(len(shuffled) * train_fraction)
        train_idx.extend(shuffled[:n_train])
        rest = shuffled[n_train:]
        test_idx.extend(rest[: min(test_cap, len(rest))])
    train = [lines[i] for i in sorted(train_idx)]
    test = [lines[i] for i in sorted(test_idx)]
    return train, test


def _word_four_grams(text: str) -> set[tuple[str, ...]]:
    words = text.split()
    return {tuple(words[i : i + 4]) for i in range(len(words) - 3)}


def contamination_rate(
    test: Sequence[LabeledLine], train: Sequence[LabeledLine]
) -> dict[str, float]:
    """Fraction of test sentences leaked from the training set, per label.

    A test sentence is contaminated iff some single training sentence
    contains all of its contiguous word 4-grams (whitespace tokens).
    Sentences with fewer than four words have no 4-grams and are defined
    as not contaminated.  Labels are taken from the test side only.
    """
    train_grams: list[set[tuple[str, ...]]] = []
    index: dict[tuple[str, ...], list[int]] = defaultdict(list)
    for t, line in enumerate(train):
        grams = _word_four_grams(line.text)
        train_grams.append(grams)
        for g in grams:
            index[g].append(t)

    contaminated: Counter[str] = Counter()
    totals: Counter[str] = Counter()
    empty: list[int] = []
    for line in test:
        totals[line.label] += 1
        grams = _word_four_grams(line.text)
        if not grams:
            continue
        # every gram must occur in the same sentence, so candidates are
        # confined to the posting list of the rarest gram
        rarest = min(grams, key=lambda g: len(index.get(g, empty)))
        for t in index.get(rarest, empty):
            if grams <= train_grams[t]:
                contaminated[line.label] += 1
                break
    return {label: contaminated[label] / totals[label] for label in sorted(totals)}


def corpus_stats(lines: Sequence[LabeledLine]) -> CorpusStats:
    counts = Counter(line.label for line in lines)
    return CorpusStats(dict(counts), sum(counts.values()))


def parse_corpus_line(raw: str, lineno: int = 0) -> LabeledLine:
    """Parse one ``__label__<code> <text>`` line; FormatError if malformed."""
    stripped = raw.rstrip("\n")
    if not stripped.startswith(LABEL_PREFIX):
        raise FormatError(f"line {lineno}: missing {LABEL_PREFIX} prefix")
    parts = stripped.split(maxsplit=1)
    label = parts[0][len(LABEL_PREFIX) :]
    if not label or len(parts) < 2:
        raise FormatError(f"line {lineno}: expected '{LABEL_PREFIX}<code> <text>'")
    try:
        return LabeledLine(label, parts[1])
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from None


def read_corpus(path: str) -> list[LabeledLine]:
    """The corpus file's lines, each ending at ``\n``; a lone ``\r`` is text."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        return [parse_corpus_line(raw, lineno) for lineno, raw in enumerate(fh, 1)]


def write_corpus(lines: Iterable[LabeledLine], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(f"{LABEL_PREFIX}{line.label} {line.text}\n")


def write_label_tsv(stream: IO[str], values: Mapping[str, object]) -> None:
    """Emit a ``label<TAB>value`` report, sorted by label."""
    for label in sorted(values):
        stream.write(f"{label}\t{values[label]}\n")
