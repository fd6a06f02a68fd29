"""Sentence featurization: word vocabulary plus hashed character n-grams.

A sentence becomes a multiset of integer feature ids.  Ids below the
vocabulary size are retained words; everything above is a hashed bucket
holding character n-grams (and word n-grams when enabled), offset by the
vocabulary size.  Hashing is 32-bit FNV-1a over UTF-8 bytes — fixed for
all time so that serialized models stay loadable.

:func:`featurize_batch` featurizes many sentences at once: it hashes the
distinct words of the batch together, in numpy, and returns the bags in
CSR form.  :func:`featurize` is its batch of one.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import LabeledLine
from .errors import NoLabels

_FNV_BASIS = 2166136261
_FNV_PRIME = 16777619

# sentences train setup featurizes together (enough to share the per-batch
# numpy work, few enough to keep the batch's arrays small), and lines predict
# and clean read per chunk; scoring featurizes model.LINE_BLOCK at a time
BATCH_LINES = 1024


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
    lexicographically; labels are sorted.  Instances hold no mutable state
    (featurizing keeps no memo on them), so they are safe to share across
    threads.
    """

    words: tuple[tuple[str, int], ...]
    word_index: Mapping[str, int]
    labels: tuple[str, ...]

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


def _utf8(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of the concatenated strings, the byte offset of each
    of their codepoints plus the end, and each string's codepoint count."""
    joined = "".join(strings)
    # UTF-8 first, so a lone surrogate fails as it does in hash_ngram
    buf = np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
    cps = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    at = np.zeros(len(cps) + 1, dtype=np.int64)
    np.cumsum(1 + (cps >= 0x80) + (cps >= 0x800) + (cps >= 0x10000), out=at[1:])
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    return buf, at, lengths


def _fnv1a_spans(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """32-bit FNV-1a of each byte span ``buf[start : start + length]``.

    uint32 multiplication wraps mod 2^32, as the scalar hash masks it.  The
    spans run longest first, so byte step j touches only the spans longer
    than j.
    """
    order = np.argsort(-lengths)
    starts, lengths = starts[order], lengths[order]
    # live[j]: how many spans are longer than j
    live = np.searchsorted(-lengths, -np.arange(lengths[0] if len(lengths) else 0), "left")
    h = np.full(len(order), _FNV_BASIS, dtype=np.uint32)
    for j, n in enumerate(live.tolist()):
        part = h[:n]
        part ^= buf[starts[:n] + j]
        part *= np.uint32(_FNV_PRIME)
    out = np.empty_like(h)
    out[order] = h
    return out


def _reduce(h: np.ndarray, bucket: int) -> np.ndarray:
    """Hashes mod bucket, as int64; a bucket of 2^32 or more keeps them whole."""
    return h.astype(np.int64) % min(bucket, 1 << 32)


def _hash_strings(strings: Sequence[str], bucket: int) -> np.ndarray:
    """:func:`hash_ngram` of every string at once."""
    buf, at, lengths = _utf8(strings)
    ends = np.cumsum(lengths)
    begins = at[ends - lengths]
    return _reduce(_fnv1a_spans(buf, begins, at[ends] - begins), bucket)


def _char_ngram_ids(words: Sequence[str], config: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """The hashed char n-grams of every word, concatenated in :func:`char_ngrams`
    order, and how many each word has."""
    buf, at, lengths = _utf8([f"<{w}>" for w in words])
    ends = np.cumsum(lengths)
    word_of = np.repeat(np.arange(len(words)), lengths)
    starts = np.arange(len(at) - 1)
    sizes = np.arange(config.minn, config.maxn + 1)
    # row-major over (start, size): by start position, shortest first
    start, size = np.nonzero(starts[:, None] + sizes <= np.repeat(ends, lengths)[:, None])
    stop = start + sizes[size]
    h = _fnv1a_spans(buf, at[start], at[stop] - at[start])
    return _reduce(h, config.bucket), np.bincount(word_of[start], minlength=len(words))


@dataclass(frozen=True)
class FeatureBatch:
    """The feature bags of a batch of sentences, in CSR form.

    Row i is ``ids[offsets[i]:offsets[i + 1]]`` with the matching
    ``counts``: each distinct feature id once, in order of first occurrence,
    with its multiplicity.
    """

    ids: np.ndarray  # int64
    counts: np.ndarray  # int64, >= 1
    offsets: np.ndarray  # int64, len(batch) + 1

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row i's ids and counts, as views."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.ids[lo:hi], self.counts[lo:hi]


def featurize_batch(texts: Sequence[str], vocab: Vocabulary, config: FeatureConfig) -> FeatureBatch:
    """:func:`featurize` every text at once.

    The batch's distinct words are hashed together, each once, and so are
    its distinct word n-grams.  Each row lists a sentence's features in the
    order :func:`featurize` meets them: per token its word id then its char
    n-grams, then the word n-grams by length and position.
    """
    # entries: the batch's distinct words, then its distinct word n-grams
    # (negated until the words are counted); items: the entries each
    # sentence meets, in order
    words: dict[str, int] = {}
    phrases: dict[str, int] = {}
    items: list[int] = []
    row_items: list[int] = []
    for text in texts:
        tokens = tokenize(text)
        before = len(items)
        items += [words.setdefault(t, len(words)) for t in tokens]
        for n in range(2, config.word_ngrams + 1):
            items += [~phrases.setdefault(" ".join(tokens[i : i + n]), len(phrases))
                      for i in range(len(tokens) - n + 1)]
        row_items.append(len(items) - before)

    # the entry table: each word's id if retained, then its char n-grams;
    # each word n-gram's one hashed id
    n_words, offset = len(words), vocab.size
    grams, n_grams = _char_ngram_ids(list(words), config)
    word_ids = np.fromiter(map(vocab.word_index.get, words, itertools.repeat(-1)),
                           dtype=np.int64, count=n_words)
    known = word_ids >= 0
    sizes = np.concatenate([known + n_grams, np.ones(len(phrases), dtype=np.int64)])
    begin = np.concatenate([[0], np.cumsum(sizes)])
    table = np.empty(begin[-1], dtype=np.int64)
    word_part = table[: begin[n_words]]
    is_gram = np.ones(len(word_part), dtype=bool)
    is_gram[begin[:n_words][known]] = False
    word_part[~is_gram] = word_ids[known]
    word_part[is_gram] = offset + grams
    if phrases:
        table[begin[n_words] :] = offset + _hash_strings(list(phrases), config.bucket)

    # every sentence's feature sequence, with multiplicity
    item = np.array(items, dtype=np.int64)
    item = np.where(item >= 0, item, n_words + ~item)
    span = sizes[item]
    seq = table[np.repeat(begin[item] - np.cumsum(span) + span, span) + np.arange(span.sum())]

    # its distinct (row, id) pairs at their first occurrence, with their counts
    width = offset + min(config.bucket, 1 << 32)  # every id is below it
    row_base = np.repeat(np.arange(len(texts)) * width, np.array(row_items, dtype=np.int64))
    keys, at, n = _distinct(np.repeat(row_base, span) + seq)
    first = np.zeros(len(seq), dtype=bool)
    first[at] = True
    counts = np.zeros(len(seq), dtype=np.int64)
    counts[at] = n
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=len(texts)), out=offsets[1:])
    return FeatureBatch(seq[first], counts[first], offsets)


def _distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of ``key`` in ascending order, the index of each
    one's first occurrence, and how often each occurs."""
    order = np.argsort(key)
    key = key[order]
    head = np.ones(len(key) + 1, dtype=bool)  # group starts, then the end
    head[1:-1] = key[1:] != key[:-1]
    group = np.flatnonzero(head)[:-1]
    if not len(key):
        return key, order, group
    return key[group], np.minimum.reduceat(order, group), np.diff(group, append=len(key))


def featurize(text: str, vocab: Vocabulary, config: FeatureConfig) -> FeatureBag:
    """Turn a sentence into its feature-id multiset.

    Every token contributes its hashed character n-grams; tokens in the
    vocabulary additionally contribute their word id.  With
    ``word_ngrams > 1``, consecutive-token n-grams (joined by a single
    space) are hashed into the same bucket space.  Multiplicity is
    preserved throughout.  This is :func:`featurize_batch` of one sentence;
    to featurize many, batch them.
    """
    ids, counts = featurize_batch([text], vocab, config).row(0)
    return FeatureBag(dict(zip(ids.tolist(), counts.tolist())))
