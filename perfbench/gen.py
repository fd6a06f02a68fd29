"""Deterministic input generators for the three benchmark workloads.

Every generator takes the benchmark seed and a shape, and returns the same
files and the same in-memory description for the same pair.  The program
under test only ever sees the files written here.  Generation runs before
any clock starts, so its cost stays outside every timing.

Text and label files are written with plain Python so that the inputs do
not change when lidkit changes.  The planted models are written with
``lidkit.model.save_model``, because a model file has to be in the
program's own format.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import numpy as np

from lidkit.features import FeatureConfig, Vocabulary
from lidkit.model import LidModel, TrainConfig, save_model

UND = "und"

# 32-bit FNV-1a over UTF-8 bytes: lidkit's n-gram hash, fixed for all time
_FNV_BASIS = 2166136261
_FNV_PRIME = 16777619


def fnv1a(text: str) -> int:
    h = _FNV_BASIS
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return h


def write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_labeled(path: str, rows: list[tuple[str, str]]) -> None:
    write_lines(path, [f"__label__{label} {text}" for label, text in rows])


ALPHABET_STRIDE = 40


def _alphabet(lang: int) -> int:
    """First letter of a language's alphabet; alphabets are 40 CJK letters
    apart, so any alphabet of up to 40 letters is disjoint from the others."""
    return 0x4E00 + ALPHABET_STRIDE * lang


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    u = rng.standard_normal((n, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


# --- train-narrow -----------------------------------------------------------
# The acceptance suite's criterion-1 corpus: 20 languages over disjoint
# 24-character alphabets, each drawing 3-9 words from a 60-word lexicon.  It
# is the only workload that runs `train` and `save_model`.  The lexicons are
# small, so featurization is warm and the SGD loop dominates.


TRAIN_LABELS = 20
TRAIN_LEXICON = 60
TRAIN_HELDOUT_EVERY = 10  # every 10th line of a language is held out
TRAIN_DIM = 16
TRAIN_LR = 0.8


@dataclass(frozen=True)
class TrainShape:
    lines_per_label: int = 1000
    epochs: int = 5
    bucket: int | None = None  # None: the program's default bucket count


@dataclass
class TrainInputs:
    train_path: str
    heldout: list[tuple[str, str]]
    n_train: int


def train_inputs(seed: int, shape: TrainShape, workdir: str) -> TrainInputs:
    rng = random.Random(seed)
    train: list[tuple[str, str]] = []
    heldout: list[tuple[str, str]] = []
    for lang in range(TRAIN_LABELS):
        alphabet = [chr(_alphabet(lang) + i) for i in range(24)]
        lexicon = [
            "".join(rng.choices(alphabet, k=rng.randint(2, 5)))
            for _ in range(TRAIN_LEXICON)
        ]
        for i in range(shape.lines_per_label):
            row = (f"l{lang:02d}", " ".join(rng.choices(lexicon, k=rng.randint(3, 9))))
            (heldout if i % TRAIN_HELDOUT_EVERY == 0 else train).append(row)
    # interleave languages, as a shuffled real corpus would be
    rng.shuffle(train)
    path = os.path.join(workdir, "train.txt")
    write_labeled(path, train)
    return TrainInputs(path, heldout, len(train))


# --- predict-wide -----------------------------------------------------------
# A planted model at GlotLID's label scale: 1,600 labels, dim 256, bucket
# 10^5 (a file of about 100 MB).  Each label owns a few vocabulary words
# whose embeddings point along the label's output row, so a line drawn from
# one label's lexicon is predicted confidently; a random-weight model would
# be near-uniform and abstain on every line.  Lines reuse small lexicons, so
# featurize is cheap and the costs that grow with the label count (the
# forward pass, the distribution dict, rollup and decide) dominate.  The
# hierarchy folds 300 varieties into 100 macrolanguages and the base set
# keeps about 70% of the rolled-up labels, so rollup, the base-set ranking
# and the theta check all do real work.  Code-switched lines split their
# mass between two labels and fall below theta.


WIDE_WORDS_PER_LABEL = 8
WIDE_VARIETIES_PER_MACRO = 3
WIDE_BASE_KEEP = 0.7
WIDE_MIXED_FRAC = 0.15
WIDE_LOGIT_SCALE = 14.0
PREDICT_K = 3
THETA = 0.6  # the predict and clean confidence threshold


@dataclass(frozen=True)
class WideShape:
    labels: int = 1600
    dim: int = 256
    bucket: int = 100_000
    macros: int = 100
    lines: int = 1000


@dataclass
class ServeInputs:
    """A model plus the input stream a predict or clean job runs over."""

    model_path: str
    input_path: str
    texts: list[str]
    gold: list[str]  # expected decision per line, UND where it should abstain
    tokens: list[list[str]]
    hierarchy_path: str | None = None
    base_set_path: str | None = None


def _random_words(rng: np.random.Generator, n: int, letters: str) -> list[str]:
    """n distinct random words of 4-8 letters."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        length = int(rng.integers(4, 9))
        word = "".join(letters[i] for i in rng.integers(0, len(letters), length))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def wide_inputs(seed: int, shape: WideShape, workdir: str) -> ServeInputs:
    rng = np.random.default_rng([seed, 2])
    labels = [f"w{i:04d}" for i in range(shape.labels)]
    letters = "abcdefghijklmnopqrstuvwxyzäöüéèçñ"
    words = _random_words(rng, shape.labels * WIDE_WORDS_PER_LABEL, letters)
    lexicon = [
        words[i * WIDE_WORDS_PER_LABEL : (i + 1) * WIDE_WORDS_PER_LABEL]
        for i in range(shape.labels)
    ]

    n_var = shape.macros * WIDE_VARIETIES_PER_MACRO
    macro_of = {
        labels[shape.macros + v]: labels[v // WIDE_VARIETIES_PER_MACRO]
        for v in range(n_var)
    }
    rolled = sorted({macro_of.get(l, l) for l in labels})
    keep = rng.random(len(rolled)) < WIDE_BASE_KEEP
    base_set = {l for l, k in zip(rolled, keep) if k}

    # model: word rows along the label direction, n-gram rows small noise
    vocab_words = sorted(words)
    word_id = {w: i for i, w in enumerate(vocab_words)}
    u = _unit_rows(rng, shape.labels, shape.dim).astype(np.float32)
    emb = rng.standard_normal((len(words) + shape.bucket, shape.dim), dtype=np.float32)
    emb *= np.float32(0.02)
    # a word contributes one of ~15 features to the mean; scale it to dominate
    for li, lex in enumerate(lexicon):
        for w in lex:
            emb[word_id[w]] += np.float32(15.0) * u[li]
    out = np.float32(WIDE_LOGIT_SCALE) * u
    vocab = Vocabulary(tuple((w, 1) for w in vocab_words), dict(word_id), tuple(labels))
    model = LidModel(
        vocab,
        FeatureConfig(min_count=1, bucket=shape.bucket),
        TrainConfig(dim=shape.dim, seed=seed),
        emb,
        out,
    )
    model_path = os.path.join(workdir, "wide.bin")
    save_model(model, model_path)
    del model, emb

    texts: list[str] = []
    gold: list[str] = []
    tokens: list[list[str]] = []
    src = rng.integers(0, shape.labels, shape.lines)
    other = rng.integers(0, shape.labels, shape.lines)
    mixed = rng.random(shape.lines) < WIDE_MIXED_FRAC
    lengths = rng.integers(3, 10, shape.lines)
    for i in range(shape.lines):
        a, n = int(src[i]), int(lengths[i])
        picks = [lexicon[a][j] for j in rng.integers(0, WIDE_WORDS_PER_LABEL, n)]
        expect = macro_of.get(labels[a], labels[a])
        if mixed[i] and other[i] != a:
            b = int(other[i])
            half = n // 2 + 1
            picks[half:] = [lexicon[b][j] for j in rng.integers(0, WIDE_WORDS_PER_LABEL, n - half)]
            # the mass splits unless both halves roll up to the same label
            if macro_of.get(labels[b], labels[b]) != expect:
                expect = UND
        tokens.append(picks)
        texts.append(" ".join(picks))
        gold.append(expect if expect in base_set else UND)

    input_path = os.path.join(workdir, "wide_input.txt")
    write_lines(input_path, texts)
    hierarchy_path = os.path.join(workdir, "hierarchy.tsv")
    write_lines(hierarchy_path, [f"{v}\t{m}" for v, m in sorted(macro_of.items())])
    base_set_path = os.path.join(workdir, "base_set.txt")
    write_lines(base_set_path, sorted(base_set))
    return ServeInputs(
        model_path, input_path, texts, gold, tokens, hierarchy_path, base_set_path
    )


# --- clean-crawl ------------------------------------------------------------
# Crawl-like text for `clean`: 20 languages over disjoint alphabets, lines in
# same-language blocks, words drawn Zipf-distributed from 2^16 ranks per
# language.  The exponent is flatter than running text (a crawl's long tail
# of names, numbers and typos) so that the stream holds well over 2^18
# distinct words (about 300k): it crosses lidkit's featurize memo limit
# (2^18 words) about 85% of the way through, and most words are hashed on
# the cold FNV path.  Words are mostly three letters, which keeps that cold
# path affordable within a run.  The planted narrow model (20 labels, dim
# 16, the default bucket count) gives every bigram of a language's alphabet
# that language's direction, so unseen long-tail words are still classified
# confidently; its forward pass and decision cost little.  Code-switched
# lines fall below theta and are routed to und.


CRAWL_LABELS = 20
CRAWL_DIM = 16
CRAWL_RADIX = ALPHABET_STRIDE  # letters per alphabet; words are ranks in base radix
CRAWL_ZIPF_A = 0.4
CRAWL_TOKENS = (10, 30)  # tokens per line
CRAWL_BLOCK = (20, 200)  # lines per same-language block
CRAWL_MIXED_FRAC = 0.05
CRAWL_LOGIT_SCALE = 10.0


@dataclass(frozen=True)
class CrawlShape:
    bucket: int | None = None  # None: the program's default bucket count
    ranks: int = 1 << 16
    vocab_per_label: int = 500
    lines: int = 18_000


def _crawl_words(ids: np.ndarray, ranks: int) -> list[str]:
    """Word strings for (language * ranks + rank) ids.

    A rank is written in base ``CRAWL_RADIX`` over the language's alphabet, offset
    so every word has at least two letters; frequent words are short.
    """
    radix = CRAWL_RADIX
    lang, value = np.divmod(ids, ranks)
    value = value + radix
    digits = []  # least significant first
    rest = value.copy()
    while (rest > 0).any():
        digits.append(rest % radix)
        rest //= radix
    width = len(digits)
    stacked = np.stack(digits, axis=1)
    n_digits = sum((value >= radix**k).astype(np.int64) for k in range(width))
    rows = np.arange(len(ids))
    base = _alphabet(lang)
    codes = np.zeros((len(ids), width), dtype=np.uint32)
    for pos in range(width):
        # most significant digit first; positions past the word stay NUL
        k = n_digits - 1 - pos
        d = stacked[rows, np.maximum(k, 0)]
        codes[:, pos] = np.where(k >= 0, base + d, 0)
    return codes.view(f"<U{width}").ravel().tolist()


def crawl_inputs(seed: int, shape: CrawlShape, workdir: str) -> ServeInputs:
    rng = np.random.default_rng([seed, 3])
    labels = [f"l{i:02d}" for i in range(CRAWL_LABELS)]
    feature_config = FeatureConfig(min_count=1)
    if shape.bucket is not None:
        feature_config = FeatureConfig(min_count=1, bucket=shape.bucket)
    bucket = feature_config.bucket

    # the stream: blocks of one language, mixed lines borrow a second one
    line_lang = np.empty(shape.lines, dtype=np.int64)
    pos = 0
    while pos < shape.lines:
        size = int(rng.integers(CRAWL_BLOCK[0], CRAWL_BLOCK[1] + 1))
        line_lang[pos : pos + size] = rng.integers(0, CRAWL_LABELS)
        pos += size
    mixed = rng.random(shape.lines) < CRAWL_MIXED_FRAC
    other = (line_lang + rng.integers(1, CRAWL_LABELS, shape.lines)) % CRAWL_LABELS
    n_tok = rng.integers(CRAWL_TOKENS[0], CRAWL_TOKENS[1] + 1, shape.lines)
    starts = np.concatenate(([0], np.cumsum(n_tok)))
    tok_lang = np.repeat(line_lang, n_tok)
    # the second half of a mixed line is in the other language
    tok_pos = np.arange(starts[-1]) - np.repeat(starts[:-1], n_tok)
    borrowed = np.repeat(mixed, n_tok) & (tok_pos >= np.repeat(n_tok // 2, n_tok))
    tok_lang = np.where(borrowed, np.repeat(other, n_tok), tok_lang)
    weights = np.arange(1, shape.ranks + 1, dtype=np.float64) ** -CRAWL_ZIPF_A
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.minimum(np.searchsorted(cdf, rng.random(starts[-1])), shape.ranks - 1)
    ids = tok_lang * shape.ranks + ranks
    uniq, inverse = np.unique(ids, return_inverse=True)
    words = _crawl_words(uniq, shape.ranks)
    flat = [words[i] for i in inverse.tolist()]
    bounds = starts.tolist()
    tokens = [flat[bounds[i] : bounds[i + 1]] for i in range(shape.lines)]
    texts = [" ".join(t) for t in tokens]
    gold = [UND if m else labels[l] for m, l in zip(mixed.tolist(), line_lang.tolist())]

    # model: the most frequent ranks form the vocabulary; every bigram of a
    # language's alphabet (boundaries included) points along its direction
    top = np.arange(shape.vocab_per_label)
    vocab_ids = (np.arange(CRAWL_LABELS)[:, None] * shape.ranks + top).ravel()
    vocab_words = _crawl_words(vocab_ids, shape.ranks)
    freq = {w: shape.vocab_per_label - int(r) for w, r in zip(vocab_words, np.tile(top, CRAWL_LABELS))}
    ordered = sorted(freq.items(), key=lambda wc: (-wc[1], wc[0]))
    word_index = {w: i for i, (w, _) in enumerate(ordered)}
    u = _unit_rows(rng, CRAWL_LABELS, CRAWL_DIM).astype(np.float32)
    emb = rng.uniform(-1.0 / CRAWL_DIM, 1.0 / CRAWL_DIM, (len(ordered) + bucket, CRAWL_DIM))
    emb = emb.astype(np.float32)
    for w, i in word_index.items():
        emb[i] = np.float32(4.0) * u[(ord(w[0]) - _alphabet(0)) // ALPHABET_STRIDE]
    offset = len(ordered)
    for lang in range(CRAWL_LABELS):
        alphabet = [chr(_alphabet(lang) + i) for i in range(CRAWL_RADIX)]
        grams = [f"<{a}" for a in alphabet] + [f"{a}>" for a in alphabet]
        grams += [a + b for a in alphabet for b in alphabet]
        for g in grams:
            emb[offset + fnv1a(g) % bucket] = np.float32(3.0) * u[lang]
    out = np.float32(CRAWL_LOGIT_SCALE) * u
    vocab = Vocabulary(tuple(ordered), word_index, tuple(labels))
    model = LidModel(vocab, feature_config, TrainConfig(dim=CRAWL_DIM, seed=seed), emb, out)
    model_path = os.path.join(workdir, "narrow.bin")
    save_model(model, model_path)

    input_path = os.path.join(workdir, "crawl_input.txt")
    write_lines(input_path, texts)
    return ServeInputs(model_path, input_path, texts, gold, tokens)
