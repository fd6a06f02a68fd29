"""Sentence featurization: word vocabulary plus hashed character n-grams.

A sentence becomes a multiset of integer feature ids.  Ids below the
vocabulary size are retained words; everything above is a hashed bucket
holding character n-grams (and word n-grams when enabled), offset by the
vocabulary size.  Hashing is 32-bit FNV-1a over UTF-8 bytes — fixed for
all time so that serialized models stay loadable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import LabeledLine
from .errors import NoLabels

_FNV_BASIS = 2166136261
_FNV_PRIME = 16777619

# featurize memoizes per-word feature ids on the vocabulary, per config; stop
# growing a memo past this point so adversarial corpora cannot exhaust memory
_CACHE_LIMIT = 1 << 18


@dataclass(frozen=True)
class FeatureConfig:
    """Featurization hyperparameters.

    Defaults match the reference training setup: minimum word count 1000,
    no label cutoff, unigram words, one million hash buckets, character
    n-grams of length 2 through 5.
    """

    min_count: int = 1000
    min_count_label: int = 0
    word_ngrams: int = 1
    bucket: int = 1_000_000
    minn: int = 2
    maxn: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.minn <= self.maxn:
            raise ValueError("need 1 <= minn <= maxn")
        if self.bucket < 1:
            raise ValueError("bucket must be >= 1")
        if self.word_ngrams < 1:
            raise ValueError("word_ngrams must be >= 1")
        if self.min_count < 0 or self.min_count_label < 0:
            raise ValueError("counts must be >= 0")


@dataclass(frozen=True)
class Vocabulary:
    """Retained words (with frequencies), their dense ids, and the label set.

    Word ids are assigned by descending frequency, ties broken
    lexicographically; labels are sorted.  Instances are immutable after
    construction and safe to share across threads.
    """

    words: tuple[tuple[str, int], ...]
    word_index: Mapping[str, int]
    labels: tuple[str, ...]
    _ngram_cache: dict[FeatureConfig, dict[str, tuple[int, ...]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class FeatureBag:
    """Multiset of feature ids for one sentence (id -> multiplicity)."""

    counts: Mapping[int, int]

    def __len__(self) -> int:
        """Total number of feature occurrences, multiplicity included."""
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)


def tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace, discarding empty tokens.  No case folding."""
    return text.split()


def build_vocab(lines: Sequence[LabeledLine], config: FeatureConfig) -> Vocabulary:
    """Count tokens and labels over the corpus and apply the cutoffs.

    Words keep their id order stable across runs: descending frequency,
    then lexicographic.  Raises NoLabels if no label survives
    ``min_count_label``.
    """
    word_freq: Counter[str] = Counter()
    label_freq: Counter[str] = Counter()
    for line in lines:
        word_freq.update(tokenize(line.text))
        label_freq[line.label] += 1
    kept = sorted(
        ((w, c) for w, c in word_freq.items() if c >= config.min_count),
        key=lambda wc: (-wc[1], wc[0]),
    )
    labels = sorted(l for l, c in label_freq.items() if c >= config.min_count_label)
    if not labels:
        raise NoLabels("no label meets min_count_label")
    index = {w: i for i, (w, _) in enumerate(kept)}
    return Vocabulary(tuple(kept), index, tuple(labels))


def char_ngrams(word: str, minn: int, maxn: int) -> list[str]:
    """All n-grams of the boundary-wrapped word with length in [minn, maxn].

    The word is wrapped as ``<word>``; substrings run over Unicode scalar
    values.  Emission order is left-to-right by start position, shortest
    first at each position, so downstream hashing is deterministic.
    """
    if minn > maxn:
        raise ValueError("need minn <= maxn")
    wrapped = f"<{word}>"
    n = len(wrapped)
    out: list[str] = []
    for i in range(n):
        for k in range(minn, min(maxn, n - i) + 1):
            out.append(wrapped[i : i + k])
    return out


def hash_ngram(ngram: str, bucket: int) -> int:
    """FNV-1a (32-bit) of the n-gram's UTF-8 bytes, reduced mod bucket."""
    h = _FNV_BASIS
    for byte in ngram.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return h % bucket


def _word_feature_ids(
    word: str, vocab: Vocabulary, config: FeatureConfig, memo: dict[str, tuple[int, ...]]
) -> tuple[int, ...]:
    """Feature ids contributed by one token: its word id plus hashed n-grams."""
    cached = memo.get(word)
    if cached is not None:
        return cached
    ids: list[int] = []
    word_id = vocab.word_index.get(word)
    if word_id is not None:
        ids.append(word_id)
    offset = vocab.size
    for gram in char_ngrams(word, config.minn, config.maxn):
        ids.append(offset + hash_ngram(gram, config.bucket))
    result = tuple(ids)
    if len(memo) < _CACHE_LIMIT:
        memo[word] = result
    return result


def featurize(text: str, vocab: Vocabulary, config: FeatureConfig) -> FeatureBag:
    """Turn a sentence into its feature-id multiset.

    Every token contributes its hashed character n-grams; tokens in the
    vocabulary additionally contribute their word id.  With
    ``word_ngrams > 1``, consecutive-token n-grams (joined by a single
    space) are hashed into the same bucket space.  Multiplicity is
    preserved throughout.
    """
    counts: Counter[int] = Counter()
    tokens = tokenize(text)
    memo = vocab._ngram_cache.setdefault(config, {})
    for token in tokens:
        counts.update(_word_feature_ids(token, vocab, config, memo))
    if config.word_ngrams > 1:
        offset = vocab.size
        for n in range(2, config.word_ngrams + 1):
            for i in range(len(tokens) - n + 1):
                gram = " ".join(tokens[i : i + n])
                counts[offset + hash_ngram(gram, config.bucket)] += 1
    return FeatureBag(dict(counts))
