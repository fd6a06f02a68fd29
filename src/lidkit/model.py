"""The linear classifier: training, prediction, and the model file format.

A sentence vector is the multiplicity-weighted mean of the input embeddings
of its feature bag; logits are a dense output layer over that vector, and
probabilities come from a numerically stable softmax.  Training is plain
SGD with a linearly decaying learning rate; languages are drawn per step
with temperature up-sampling so low-resource classes are seen more often
than their raw share of the corpus.

Model files are little-endian binary: magic ``GLIDMODL``, a u32 format
version, the config fields in the order and widths of ``_CONFIG_FIELDS``,
the label and word tables (length-prefixed UTF-8), the two f32 row-major
weight matrices, and a trailing CRC32 of all preceding bytes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import stat
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import UNDETERMINED, CorpusStats, LabeledLine, check_label
from .errors import CorruptModel, NoFeatures, NoLabels, UnsupportedFormat
from .features import (
    BATCH_LINES,
    FeatureBag,
    FeatureBatch,
    FeatureConfig,
    Vocabulary,
    build_vocab,
    featurize_batch,
)

MODEL_MAGIC = b"GLIDMODL"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer hyperparameters.

    Defaults match the reference setup: 256-dim embeddings, 2 epochs,
    initial learning rate 0.8, softmax loss, sampling exponent 0.3.
    """

    dim: int = 256
    epochs: int = 2
    lr: float = 0.8
    loss: str = "softmax"
    inv_temperature: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.loss != "softmax":
            raise ValueError(f"unsupported loss: {self.loss!r}")
        if not 0.0 < self.inv_temperature <= 1.0:
            raise ValueError("inv_temperature must be in (0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in u64")


@dataclass(frozen=True)
class PredictionDist:
    """Full per-label probability distribution for one sentence."""

    probs: Mapping[str, float]

    def __post_init__(self) -> None:
        p = np.fromiter(self.probs.values(), dtype=np.float64, count=len(self.probs))
        check_probs(p, self.probs)


def check_probs(p: np.ndarray, labels: Iterable[str]) -> None:
    """ValueError unless ``p``, or each row of a 2-D ``p``, is a
    distribution over ``labels``: every entry in [0, 1] and the total 1,
    each within float tolerance.  The first bad row is the one reported."""
    rows = np.atleast_2d(p)
    # min and max are NaN when any entry is, and NaN fails both comparisons;
    # the initial values, themselves in range, let a row be empty
    lo, hi = rows.min(axis=1, initial=0.0), rows.max(axis=1, initial=1.0)
    in_range = (lo >= -1e-9) & (hi <= 1.0 + 1e-9)
    totals = rows.sum(axis=1)
    bad = ~in_range | (np.abs(totals - 1.0) > 1e-6)
    if bad.any():
        r = int(np.argmax(bad))
        if not in_range[r]:
            i = int(np.flatnonzero(~((rows[r] >= -1e-9) & (rows[r] <= 1.0 + 1e-9)))[0])
            raise ValueError(f"probability out of range for {list(labels)[i]}: {float(rows[r, i])}")
        raise ValueError(f"probabilities sum to {float(totals[r])}, not 1")


@dataclass(frozen=True)
class LidModel:
    """A trained classifier: vocabulary, weights, and their provenance."""

    vocab: Vocabulary
    feature_config: FeatureConfig
    train_config: TrainConfig
    input_embeddings: np.ndarray  # (|words| + bucket, dim) float32
    output_weights: np.ndarray  # (|labels|, dim) float32

    def __post_init__(self) -> None:
        n_features = self.vocab.size + self.feature_config.bucket
        if self.input_embeddings.shape != (n_features, self.train_config.dim):
            raise ValueError("input embedding shape inconsistent with configs")
        if self.output_weights.shape != (len(self.vocab.labels), self.train_config.dim):
            raise ValueError("output weight shape inconsistent with labels")
        if not self.vocab.labels:
            raise ValueError("model has no labels")
        # decisions break ties by column order, so it must be label order
        if list(self.vocab.labels) != sorted(set(self.vocab.labels)):
            raise ValueError("labels must be sorted and distinct")
        # labels are TSV fields, and a predicted und would read as no decision
        for label in self.vocab.labels:
            check_label(label)
        _check_finite("input_embeddings", self.input_embeddings)
        _check_finite("output_weights", self.output_weights)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.vocab.labels


# matrix elements checked per reduction: 1 MiB of float32, which stays in
# cache between the min and the max of a slice
_CHECK_SLICE = 1 << 18


def _check_finite(name: str, matrix: np.ndarray) -> None:
    """ValueError naming ``name`` and the first row of the 2-D ``matrix``
    that holds a NaN or an infinity: what ``np.isfinite(matrix).all()``
    rejects, and nothing else.

    The rows are checked about _CHECK_SLICE elements at a time.  A slice's
    min and max are NaN if any entry is; otherwise its min is -inf if any
    entry is, and its max +inf.  So both are finite exactly when every
    entry is, and neither reduction allocates: no temporary grows with the
    table.
    """
    step = max(1, _CHECK_SLICE // matrix.shape[1])
    for start in range(0, len(matrix), step):
        part = matrix[start : start + step]
        if not (np.isfinite(part.min()) and np.isfinite(part.max())):
            row = start + int(np.argmin(np.isfinite(part).all(axis=1)))
            raise ValueError(f"non-finite weight in {name} row {row}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax in float64 along the last axis (max-subtracted
    exponentials)."""
    return _softmax_in_place(np.array(logits, dtype=np.float64))


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _bag_arrays(bag: FeatureBag) -> tuple[np.ndarray, np.ndarray]:
    ids = np.fromiter(bag.counts.keys(), dtype=np.int64, count=len(bag.counts))
    mults = np.fromiter(bag.counts.values(), dtype=np.float64, count=len(bag.counts))
    return ids, mults


def _weighted_means(emb: np.ndarray, ids: np.ndarray, mults: np.ndarray,
                    spans: Sequence[tuple[int, int]], totals: np.ndarray,
                    out: np.ndarray) -> None:
    """Into row r of ``out``: the multiplicity-weighted mean, in float64, of
    the rows ``ids[lo:hi]`` of ``emb`` for the r-th span (lo, hi).

    Each span's sum is one einsum over its gathered float32 rows, numpy's
    own loop and never BLAS.  For a dim of 2 or more it adds ``m * x`` into
    each column one row after another, in the order of ``ids``, from +0.0.
    A float32 entry times an integer multiplicity below 2^29 is exact in
    float64, so each step rounds once, as a separate multiply and add would.
    At dim 1 numpy drops the unit axis and sums in an unrolled order, so a
    dim-1 vector may differ from the sequential sum in its last bits.
    ``out`` is then divided by ``totals``, the spans' multiplicity sums:
    sums of integers, exact in any order.
    """
    for row, (lo, hi) in enumerate(spans):
        np.einsum("i,ij->j", mults[lo:hi], emb.take(ids[lo:hi], axis=0), out=out[row])
    out /= totals[:, None]


def sentence_vector(bag: FeatureBag, model: LidModel) -> np.ndarray:
    """Multiplicity-weighted mean of the bag's input embeddings (float64)."""
    if not bag:
        raise NoFeatures("empty feature bag")
    ids, mults = _bag_arrays(bag)
    v = np.empty((1, model.train_config.dim))
    _weighted_means(model.input_embeddings, ids, mults, [(0, len(ids))],
                    mults.sum(keepdims=True), v)
    return v[0]


def top_k(p: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest entries of each row of a 2-D ``p``,
    largest first; of the entries of a 1-D ``p``, its one row.

    Equal entries keep their column order, as in a stable sort; over
    columns in sorted label order, ties go to the smaller label.  Each rank
    is one argmax pass over the columns, which then sets the entry it took
    to -inf, so ``p`` must be writeable and finite; its entries are written
    back, bit for bit, before top_k returns.
    """
    rows = np.atleast_2d(p)
    k = min(k, rows.shape[1])
    at = np.arange(len(rows))
    top = np.empty((len(rows), k), dtype=np.intp)
    taken = np.empty((len(rows), k))
    # argmax takes the first maximum, so a tie goes to the smaller column
    for rank in range(k):
        top[:, rank] = col = np.argmax(rows, axis=1)
        taken[:, rank] = rows[at, col]
        rows[at, col] = -np.inf
    rows[at[:, None], top] = taken
    return top if p.ndim == 2 else top[0]


class RowBuffer:
    """A float64 array of ``cols`` columns kept across calls.  It is made
    on first use, and made anew only when a call needs more rows than it
    has: it holds as many rows as the largest call so far."""

    def __init__(self, cols: int):
        self._cols = cols
        self._array: np.ndarray | None = None

    def rows(self, n: int) -> np.ndarray:
        """The buffer's first ``n`` rows, a view whose contents are left
        from earlier calls."""
        if self._array is None or len(self._array) < n:
            self._array = np.empty((n, self._cols))
        return self._array[:n]


# lines scored at once: their (lines, labels) arrays stay a few MiB
LINE_BLOCK = 256
# output-layer rows per matrix-vector product, a multiple of 4 (see Scorer)
ROW_BLOCK = 128


class Scorer:
    """The forward pass of one model, from text to its label distribution.

    The output layer is cast to float64 once, here: multiplying the
    float32 matrix by the float64 sentence vector gives the same logits
    but casts the whole matrix again on every sentence.

    Lines are scored LINE_BLOCK at a time and the output layer ROW_BLOCK
    rows at a time: one stacked matrix-vector product per row block over
    the block's sentence vectors, so that the rows stay in cache across the
    lines.  Each product runs the gemv a single ``out @ v`` runs, and gives
    its bits, as long as every row block starts at a multiple of 4 rows and
    none has a single row, which numpy hands to ``dot`` instead (measured
    with OpenBLAS); a one-row tail joins the block before it.  A matrix
    product over the lines would move the logits' last bits.

    A block's sentence vectors and logits are written into buffers the
    Scorer keeps (:class:`RowBuffer`), so that scoring allocates no
    label-sized array per block.  A Scorer is therefore not safe to share
    across threads.
    """

    def __init__(self, model: LidModel):
        self.model = model
        self._out = model.output_weights.astype(np.float64)
        n = len(model.labels)
        bounds = list(range(0, n, ROW_BLOCK)) + [n]
        if len(bounds) > 2 and n - bounds[-2] == 1:
            del bounds[-2]
        self._row_blocks = list(zip(bounds, bounds[1:]))
        self._vectors = RowBuffer(model.train_config.dim)
        self._z = RowBuffer(n)

    def iter_blocks(self, texts: Sequence[str]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per block of up to LINE_BLOCK texts, in order: which of them have
        features (a boolean array), and the checked softmax probabilities
        of those, one row each, in the model's label order.

        The texts are featurized as one batch.  The probabilities are a
        view of the Scorer's buffer, valid until it scores its next block:
        a caller that keeps them copies them.
        """
        batch = featurize_batch(texts, self.model.vocab, self.model.feature_config)
        for has, v in self._iter_vectors(batch):
            yield has, self._probs(v)

    def _iter_vectors(self, batch: FeatureBatch) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per block of up to LINE_BLOCK lines of ``batch``: which of them
        have features, and the sentence vectors of those, one row each."""
        mults = batch.counts.astype(np.float64)
        sizes = np.diff(batch.offsets)
        # one multiplicity sum per line with features: between two such
        # starts lie only that line's ids
        totals = np.add.reduceat(mults, batch.offsets[:-1][sizes > 0])
        done = 0
        for start in range(0, len(sizes), LINE_BLOCK):
            bounds = batch.offsets[start : start + LINE_BLOCK + 1]
            has = bounds[1:] > bounds[:-1]
            spans = [(lo, hi) for lo, hi in zip(bounds.tolist(), bounds[1:].tolist()) if lo < hi]
            v = self._vectors.rows(len(spans))
            _weighted_means(self.model.input_embeddings, batch.ids, mults, spans,
                            totals[done : done + len(spans)], v)
            done += len(spans)
            yield has, v

    def _logits(self, v: np.ndarray) -> np.ndarray:
        """The logits of the sentence vectors ``v``, one row each, in the
        Scorer's buffer."""
        logits = self._z.rows(len(v))
        for r0, r1 in self._row_blocks:
            np.matmul(self._out[r0:r1], v[:, :, None], out=logits[:, r0:r1, None])
        return logits

    def _probs(self, v: np.ndarray) -> np.ndarray:
        """Checked softmax probabilities of the sentence vectors ``v``, one
        row each, in the Scorer's buffer."""
        p = _softmax_in_place(self._logits(v))
        check_probs(p, self.model.labels)
        return p

    def probs(self, text: str) -> np.ndarray:
        """The probabilities of one text, a block of one, in an array of its
        own; NoFeatures when it has no features."""
        has, p = next(self.iter_blocks([text]))
        if not has[0]:
            raise NoFeatures(f"no features in {text!r}")
        return p[0].copy()


def predict_dist(model: LidModel, text: str) -> PredictionDist:
    """Full probability distribution for a sentence.

    Raises NoFeatures when the sentence yields an empty bag (callers that
    want a total function should map that to the Undetermined sentinel,
    as :func:`predict` does).  To score many sentences, keep one
    :class:`Scorer` and pass them to :meth:`Scorer.iter_blocks` in batches.
    """
    p = Scorer(model).probs(text)
    return PredictionDist(dict(zip(model.labels, p.tolist())))


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")


def predict(model: LidModel, text: str, k: int = 1) -> list[tuple[str, float]]:
    """Top-k labels with probabilities, most probable first.

    Ties break toward the lexicographically smaller label.  A sentence
    with no features returns ``[(UNDETERMINED, 1.0)]``.
    """
    _check_k(k)
    try:
        p = Scorer(model).probs(text)
    except NoFeatures:
        return [(UNDETERMINED, 1.0)]
    return [(model.labels[i], float(p[i])) for i in top_k(p, k)]


def temperature_weights(stats: CorpusStats, alpha: float) -> dict[str, float]:
    """Language sampling weights proportional to (n_l / N) ** alpha.

    alpha is the inverse temperature 1/T; alpha = 1 reproduces the raw
    corpus proportions.  Returned dict is keyed in sorted label order and
    sums to 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not stats.per_label_counts:
        raise ValueError("empty stats")
    total = stats.total
    raw = {l: (c / total) ** alpha for l, c in sorted(stats.per_label_counts.items())}
    norm = sum(raw.values())
    return {l: w / norm for l, w in raw.items()}


def _draw_languages(
    stats: CorpusStats, alpha: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n languages drawn with temperature up-sampling, as rows of the
    sorted labels: the draw ``train`` makes for its steps."""
    weights = temperature_weights(stats, alpha)
    p = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
    return rng.choice(len(p), size=n, p=p / p.sum())


def sample_languages(
    stats: CorpusStats, alpha: float, n: int, rng: np.random.Generator
) -> list[str]:
    """Draw n training languages with temperature up-sampling."""
    labels = sorted(stats.per_label_counts)
    return [labels[i] for i in _draw_languages(stats, alpha, n, rng)]


def example_loss_and_grads(
    input_embeddings: np.ndarray,
    output_weights: np.ndarray,
    ids: np.ndarray,
    mults: np.ndarray,
    gold_row: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Softmax cross-entropy loss and gradients for one sentence.

    Dtype-generic (runs in whatever float type the matrices carry) so the
    same code path serves f32 training and f64 gradient verification.
    Returns (loss, embedding gradients aligned with ``ids``, output-weight
    gradients): row j of the embedding gradient is ``mults[j] / Σmults``
    times the backpropagated sentence-vector gradient — i.e. every feature
    occurrence receives an equal 1/|bag| share.
    """
    mults = mults.astype(input_embeddings.dtype, copy=False)
    weights = mults / mults.sum()
    return _loss_and_grads(input_embeddings.take(ids, axis=0), output_weights, weights, gold_row)


def _loss_and_grads(
    rows: np.ndarray, out: np.ndarray, weights: np.ndarray, gold: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`example_loss_and_grads` on the bag's gathered embedding rows,
    for bag weights that already sum to one: the training step.  The loss
    floors p at 1e-30, so only non-finite weights make it non-finite."""
    v = rows.T @ weights
    p = _softmax_in_place(out @ v)
    loss = -math.log(max(float(p[gold]), 1e-30))
    p[gold] -= 1.0  # now the logit gradient
    dv = out.T @ p
    return loss, weights[:, None] * dv, p[:, None] * v


ProgressFn = Callable[[int, int, float], None]

# training steps whose in-pool draws are made in one call
DRAW_CHUNK = 4096
# float64 values per draw of the initial embedding table: 512 KiB
TABLE_DRAW = 1 << 16


def _draw_examples(
    rng: np.random.Generator, langs: np.ndarray, order: np.ndarray,
    pool_sizes: np.ndarray,
) -> Iterator[int | list[int]]:
    """What each training step is handed: its example's entry of ``order``,
    as a Python int, or a list of them where ``order`` is 2-D.

    ``order`` lists the examples by language row, stably, and ``pool_sizes``
    holds the length of each language's run of it.  Step i draws a uniform
    example of language row ``langs[i]``.  The draws are made DRAW_CHUNK
    steps at a time, and are those of one ``rng.integers(0, pool_size)``
    call per step whatever the chunk size: a bounded ``integers`` draw over
    an array of bounds takes, per element, what one call with that bound
    does.
    """
    starts = np.cumsum(pool_sizes) - pool_sizes
    for lo in range(0, len(langs), DRAW_CHUNK):
        chunk = langs[lo : lo + DRAW_CHUNK]
        yield from order[starts[chunk] + rng.integers(0, pool_sizes[chunk])].tolist()


def _uniform_table(rng: np.random.Generator, shape: tuple[int, int],
                   low: float, high: float) -> np.ndarray:
    """A float32 table of ``shape`` holding, bit for bit,
    ``rng.uniform(low, high, shape).astype(np.float32)``.

    The values are drawn TABLE_DRAW at a time into one float64 buffer, with
    ``Generator.uniform``'s arithmetic, ``low + (high - low) * u``, so that
    no float64 temporary grows with the table.
    """
    table = np.empty(shape, dtype=np.float32)
    flat = table.reshape(-1)
    buf = np.empty(min(TABLE_DRAW, flat.size))
    for start in range(0, flat.size, len(buf)):
        part = flat[start : start + len(buf)]
        u = buf[: len(part)]
        rng.random(out=u)
        u *= high - low
        u += low
        part[...] = u
    return table


def _pack_examples(corpus: Sequence[LabeledLine], vocab: Vocabulary, config: FeatureConfig,
                   label_row: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training examples, featurized BATCH_LINES lines at a time into
    one packed store: (ids, weights, examples).

    Example e's bag is ``ids[lo:hi]`` (intp) with ``weights[lo:hi]``
    (float32, its multiplicities over their sum), where ``(lo, hi, gold) =
    examples[e]`` and gold is its label row.  A line whose label
    ``min_count_label`` cut has no output row, and one with an empty bag
    cannot drive an update: neither is an example.

    ``examples`` is sized for the whole corpus up front.  ``ids`` and
    ``weights`` grow by an eighth, or by the batch if that is more, through
    ``ndarray.resize``: a realloc, which moves a mapped block's pages
    rather than copying them, and never a concatenation.  All three are cut
    to their length at the end.
    """
    examples = np.empty((len(corpus), 3), dtype=np.intp)
    ids = np.empty(0, dtype=np.intp)
    weights = np.empty(0, dtype=np.float32)
    n_examples = n_ids = 0
    lines = (line for line in corpus if line.label in label_row)
    for part in iter(lambda: list(itertools.islice(lines, BATCH_LINES)), []):
        batch = featurize_batch([line.text for line in part], vocab, config)
        sizes = np.diff(batch.offsets)
        row_of = np.repeat(np.arange(len(part)), sizes)
        w = (batch.counts / np.bincount(row_of, batch.counts)[row_of]).astype(np.float32)
        end = n_ids + len(batch.ids)
        if end > len(ids):
            grown = max(end, len(ids) + len(ids) // 8)
            ids.resize(grown, refcheck=False)
            weights.resize(grown, refcheck=False)
        ids[n_ids:end] = batch.ids
        weights[n_ids:end] = w
        has = sizes > 0
        block = examples[n_examples : n_examples + int(has.sum())]
        block[:, 0] = n_ids + batch.offsets[:-1][has]
        block[:, 1] = n_ids + batch.offsets[1:][has]
        block[:, 2] = np.fromiter((label_row[line.label] for line in part),
                                  dtype=np.intp, count=len(part))[has]
        n_examples += len(block)
        n_ids = end
    ids.resize(n_ids, refcheck=False)
    weights.resize(n_ids, refcheck=False)
    examples.resize((n_examples, 3), refcheck=False)
    return ids, weights, examples


def train(
    corpus: Sequence[LabeledLine],
    feature_config: FeatureConfig,
    train_config: TrainConfig,
    progress: ProgressFn | None = None,
) -> LidModel:
    """Train a classifier with seeded, single-threaded SGD.

    Input embeddings start uniform in [-1/dim, 1/dim], output weights at
    zero.  Each of ``epochs × corpus-size`` steps draws a language by
    temperature weight, then a uniform sentence of that language; the
    learning rate decays linearly to zero over all steps.  Identical
    (corpus, configs, seed) produce an identical model, bit for bit.
    Sentences with no features, or whose label ``min_count_label`` cut, are
    skipped; the first step whose loss is not finite raises ValueError.

    ``progress``, if given, is called after each epoch with
    (epoch, total epochs, mean loss over the epoch's steps).
    """
    if not corpus:
        raise ValueError("empty corpus")
    vocab = build_vocab(corpus, feature_config)
    label_row = {label: i for i, label in enumerate(vocab.labels)}
    # featurized before the embedding table exists, so that featurize's
    # freed temporaries are not left on top of it; featurizing draws
    # nothing from the generator, whose first draw is still the table
    ids, weights, examples = _pack_examples(corpus, vocab, feature_config, label_row)
    if not len(examples):
        raise NoFeatures("no sentence in the corpus produced features")

    counts = np.bincount(examples[:, 2], minlength=len(vocab.labels))
    drawn = np.flatnonzero(counts)  # label rows with examples, in label order
    stats = CorpusStats({vocab.labels[r]: int(counts[r]) for r in drawn}, len(examples))
    # the examples of each drawn label form one pool, in corpus order
    examples = examples[np.argsort(examples[:, 2], kind="stable")]

    rng = np.random.default_rng(train_config.seed)
    dim = train_config.dim
    emb = _uniform_table(rng, (vocab.size + feature_config.bucket, dim), -1.0 / dim, 1.0 / dim)
    out = np.zeros((len(vocab.labels), dim), dtype=np.float32)
    # one void element per row of emb: numpy gathers and scatters a bag's
    # rows as whole blocks of bytes, faster than a 2-D take and setitem,
    # and row_type views the gathered blocks as float32 rows
    emb_rows = emb.view(np.dtype((np.void, emb.itemsize * dim))).reshape(-1)
    row_type = np.dtype((np.float32, (dim,)))

    steps_per_epoch = len(examples)
    total_steps = train_config.epochs * steps_per_epoch
    # the whole run's languages, drawn right after the table; each step is
    # then handed its example's (lo, hi, gold) as Python ints
    langs = _draw_languages(stats, train_config.inv_temperature, total_steps, rng)
    draws = _draw_examples(rng, langs, examples, counts[drawn])
    lr0 = train_config.lr

    # a diverging run overflows before its loss turns non-finite; the check
    # below reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_config.epochs):
            loss_sum = 0.0
            first = epoch * steps_per_epoch
            for step, (lo, hi, gold) in zip(range(first, first + steps_per_epoch), draws):
                lr = lr0 * (1.0 - step / total_steps)
                bag = ids[lo:hi]
                gathered = emb_rows.take(bag)
                rows = gathered.view(row_type)
                loss, g_rows, g_out = _loss_and_grads(rows, out, weights[lo:hi], gold)
                if not math.isfinite(loss):
                    raise ValueError(f"training diverged at step {step}: loss {loss}")
                loss_sum += loss
                # scaled in place, with the rounding of lr * g
                g_out *= lr
                out -= g_out
                g_rows *= lr
                rows -= g_rows
                # ids are unique within a bag, and emb has not changed since
                # the gather, so this is emb[bag] -= g_rows
                emb_rows[bag] = gathered
            if progress is not None:
                progress(epoch + 1, train_config.epochs, loss_sum / steps_per_epoch)

    return LidModel(vocab, feature_config, train_config, emb, out)


# --- serialization ---------------------------------------------------------


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


# per config class, in file order: each field's name and struct code, where
# "s" is a u32-length-prefixed UTF-8 string
_CONFIG_FIELDS: dict[type, tuple[tuple[str, str], ...]] = {
    FeatureConfig: (("min_count", "Q"), ("min_count_label", "Q"), ("word_ngrams", "I"),
                    ("bucket", "Q"), ("minn", "I"), ("maxn", "I")),
    TrainConfig: (("dim", "I"), ("epochs", "I"), ("lr", "d"), ("loss", "s"),
                  ("inv_temperature", "d"), ("seed", "Q")),
}


class _Reader:
    """Bounds-checked reader over an open model file that keeps the CRC32 of
    what it has read; ``left`` bytes remain."""

    def __init__(self, fh: BinaryIO, size: int):
        self.fh = fh
        self.left = size
        self.crc = 0

    def take(self, n: int) -> bytes:
        if n > self.left:
            raise CorruptModel("unexpected end of model file")
        data = self.fh.read(n)
        if len(data) != n:
            raise CorruptModel("unexpected end of model file")
        self.left -= n
        self.crc = zlib.crc32(data, self.crc)
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptModel(f"bad string in model file: {exc}") from None

    def take_f32(self, rows: int, cols: int) -> np.ndarray:
        """A little-endian f32 matrix, read straight into an array it owns."""
        out = np.empty((rows, cols), dtype="<f4")
        view = memoryview(out.reshape(-1).view(np.uint8))
        if len(view) > self.left or self.fh.readinto(view) != len(view):
            raise CorruptModel("unexpected end of model file")
        self.left -= len(view)
        self.crc = zlib.crc32(view, self.crc)
        return out


def save_model(model: LidModel, path: str) -> None:
    """Write the binary model file (see the module docstring for layout).

    A new path or an existing regular file is written to a temporary file
    beside it, which then replaces it, so a failed write leaves the old file
    as it was.  Anything else, as a FIFO or the /dev/stdout symlink, is
    written in place: renaming over it would replace the node itself.
    """
    try:
        info = os.lstat(path)
    except FileNotFoundError:
        info = None
    if info is not None and not stat.S_ISREG(info.st_mode):
        with open(path, "wb") as fh:
            _write_model(model, fh)
        return
    # a new name opened with "xb" gets the mode open gives any new file
    # (mkstemp's would be 0600)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            _write_model(model, fh)
        if info is not None:
            os.chmod(tmp, stat.S_IMODE(info.st_mode))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_model(model: LidModel, fh: BinaryIO) -> None:
    crc = 0

    def emit(data: bytes | memoryview) -> None:
        nonlocal crc
        crc = zlib.crc32(data, crc)
        fh.write(data)

    emit(MODEL_MAGIC)
    emit(struct.pack("<I", MODEL_FORMAT_VERSION))
    for config in (model.feature_config, model.train_config):
        for name, code in _CONFIG_FIELDS[type(config)]:
            value = getattr(config, name)
            emit(_pack_str(value) if code == "s" else struct.pack("<" + code, value))
    emit(struct.pack("<I", len(model.vocab.labels)))
    for label in model.vocab.labels:
        emit(_pack_str(label))
    emit(struct.pack("<Q", model.vocab.size))
    for word, freq in model.vocab.words:
        emit(_pack_str(word) + struct.pack("<Q", freq))
    for matrix in (model.input_embeddings, model.output_weights):
        # a byte view of the matrix, not a copy of its bytes
        emit(memoryview(np.ascontiguousarray(matrix, dtype="<f4").reshape(-1).view(np.uint8)))
    fh.write(struct.pack("<I", crc))


def load_model(path: str) -> LidModel:
    """Read a model file back; inverse of :func:`save_model`.

    Raises UnsupportedFormat for wrong magic or unknown versions, and
    CorruptModel for truncation, sizes that do not fit the file or checksum
    failure — never a partially constructed model.  Each matrix is read
    in one call straight into the array the model owns, with a running CRC.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read_model(_Reader(fh, info.st_size))
        # a pipe has no size to check the header against until it is read
        data = fh.read()
    return _read_model(_Reader(io.BytesIO(data), len(data)))


def _read_model(cur: _Reader) -> LidModel:
    if cur.left < len(MODEL_MAGIC) or cur.take(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise UnsupportedFormat("not a model file (bad magic)")
    (version,) = cur.unpack("<I")
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedFormat(f"unknown model format version {version}")

    fields = {cls: {name: cur.take_str() if code == "s" else cur.unpack("<" + code)[0]
                    for name, code in layout}
              for cls, layout in _CONFIG_FIELDS.items()}
    try:
        feature_config, train_config = (cls(**values) for cls, values in fields.items())
    except ValueError as exc:
        raise CorruptModel(f"invalid config in model file: {exc}") from None

    # a label takes at least 4 bytes and a word 12, so a count the file
    # cannot hold fails here rather than after a long loop
    (n_labels,) = cur.unpack("<I")
    if 4 * n_labels > cur.left:
        raise CorruptModel("unexpected end of model file")
    labels = tuple(cur.take_str() for _ in range(n_labels))
    (n_words,) = cur.unpack("<Q")
    if 12 * n_words > cur.left:
        raise CorruptModel("unexpected end of model file")
    words = []
    for _ in range(n_words):
        word = cur.take_str()
        (freq,) = cur.unpack("<Q")
        words.append((word, freq))
    vocab = Vocabulary(
        tuple(words), {w: i for i, (w, _) in enumerate(words)}, labels
    )

    # the sizes the header claims must be what is left, before allocating
    n_features = n_words + feature_config.bucket
    matrix_bytes = (n_features + n_labels) * train_config.dim * 4
    if matrix_bytes + 4 > cur.left:
        raise CorruptModel("unexpected end of model file")
    if matrix_bytes + 4 < cur.left:
        raise CorruptModel("trailing bytes in model file")
    emb = cur.take_f32(n_features, train_config.dim)
    out = cur.take_f32(n_labels, train_config.dim)
    crc = cur.crc
    (stored_crc,) = cur.unpack("<I")
    if crc != stored_crc:
        raise CorruptModel("checksum mismatch")
    try:
        return LidModel(vocab, feature_config, train_config, emb, out)
    except ValueError as exc:
        raise CorruptModel(f"inconsistent model file: {exc}") from None
