"""The linear classifier: training, prediction, and the model file format.

A sentence vector is the multiplicity-weighted mean of the input embeddings
of its feature bag; logits are a dense output layer over that vector, and
probabilities come from a numerically stable softmax.  Training is plain
SGD with a linearly decaying learning rate; languages are drawn per step
with temperature up-sampling so low-resource classes are seen more often
than their raw share of the corpus.

Model files are little-endian binary: magic ``GLIDMODL``, a u32 format
version, both config blocks, the label and word tables (length-prefixed
UTF-8), the two f32 row-major weight matrices, and a trailing CRC32 of all
preceding bytes.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import UNDETERMINED, CorpusStats, LabeledLine
from .errors import CorruptModel, NoFeatures, NoLabels, UnsupportedFormat
from .features import (
    BATCH_LINES,
    FeatureBag,
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
    """ValueError unless ``p`` is a distribution over ``labels``: every
    entry in [0, 1] and the total 1, each within float tolerance."""
    # min and max are NaN when any entry is, and NaN fails both comparisons
    if p.size and not (p.min() >= -1e-9 and p.max() <= 1.0 + 1e-9):
        i = int(np.flatnonzero(~((p >= -1e-9) & (p <= 1.0 + 1e-9)))[0])
        raise ValueError(f"probability out of range for {list(labels)[i]}: {float(p[i])}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1")


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
        if not (
            np.isfinite(self.input_embeddings).all()
            and np.isfinite(self.output_weights).all()
        ):
            raise ValueError("non-finite weights")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.vocab.labels


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax in float64 (max-subtracted exponentials)."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _bag_arrays(bag: FeatureBag) -> tuple[np.ndarray, np.ndarray]:
    ids = np.fromiter(bag.counts.keys(), dtype=np.int64, count=len(bag.counts))
    mults = np.fromiter(bag.counts.values(), dtype=np.float64, count=len(bag.counts))
    return ids, mults


def _mean_embedding(emb: np.ndarray, ids: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Multiplicity-weighted mean of the rows ``ids`` of ``emb`` (float64),
    summed in the order of ``ids``."""
    rows = emb[ids].astype(np.float64)
    rows *= mults[:, None]  # in place, sparing a second (len(ids), dim) array
    return rows.sum(axis=0) / mults.sum()


def sentence_vector(bag: FeatureBag, model: LidModel) -> np.ndarray:
    """Multiplicity-weighted mean of the bag's input embeddings (float64)."""
    if not bag:
        raise NoFeatures("empty feature bag")
    return _mean_embedding(model.input_embeddings, *_bag_arrays(bag))


def top_k(p: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, largest first.

    The sort is stable, so equal entries keep their column order; over
    columns in sorted label order, ties go to the smaller label.
    """
    n = len(p)
    if k < n:
        # only entries at least as large as the k-th largest can rank; the
        # stable sort of those, in column order, ranks them as a full one would
        cand = np.flatnonzero(p >= np.partition(p, n - k)[n - k])
        return cand[np.argsort(-p[cand], kind="stable")[:k]]
    return np.argsort(-p, kind="stable")


class Scorer:
    """The forward pass of one model, from text to its label distribution.

    The output layer is cast to float64 once, here: multiplying the
    float32 matrix by the float64 sentence vector gives the same logits
    but casts the whole matrix again on every sentence.
    """

    def __init__(self, model: LidModel):
        self.model = model
        self._out = model.output_weights.astype(np.float64)

    def iter_probs(self, texts: Sequence[str]) -> Iterator[np.ndarray | None]:
        """Per text, its checked softmax probabilities in the model's label
        order, or None when it has no features.

        The texts are featurized as one batch; each is then scored on its
        own, a float64 matvec per sentence.
        """
        model = self.model
        batch = featurize_batch(texts, model.vocab, model.feature_config)
        mults = batch.counts.astype(np.float64)
        bounds = batch.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                yield None
                continue
            v = _mean_embedding(model.input_embeddings, batch.ids[lo:hi], mults[lo:hi])
            p = softmax(self._out @ v)
            check_probs(p, model.labels)
            yield p

    def probs(self, text: str) -> np.ndarray:
        """:meth:`iter_probs` of one text; NoFeatures when it has no features."""
        p = next(self.iter_probs([text]))
        if p is None:
            raise NoFeatures(f"no features in {text!r}")
        return p


def predict_dist(model: LidModel, text: str) -> PredictionDist:
    """Full probability distribution for a sentence.

    Raises NoFeatures when the sentence yields an empty bag (callers that
    want a total function should map that to the Undetermined sentinel,
    as :func:`predict` does).  To score many sentences, keep one
    :class:`Scorer` and pass them to :meth:`Scorer.iter_probs` in batches.
    """
    p = Scorer(model).probs(text)
    return PredictionDist(dict(zip(model.labels, p.tolist())))


def predict(model: LidModel, text: str, k: int = 1) -> list[tuple[str, float]]:
    """Top-k labels with probabilities, most probable first.

    Ties break toward the lexicographically smaller label.  A sentence
    with no features returns ``[(UNDETERMINED, 1.0)]``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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


def _language_distribution(
    weights: Mapping[str, float],
) -> tuple[list[str], np.ndarray]:
    labels = list(weights)
    p = np.fromiter(weights.values(), dtype=np.float64, count=len(labels))
    return labels, p / p.sum()


def sample_languages(
    stats: CorpusStats, alpha: float, n: int, rng: np.random.Generator
) -> list[str]:
    """Draw n training languages with temperature up-sampling."""
    labels, p = _language_distribution(temperature_weights(stats, alpha))
    return [labels[i] for i in rng.choice(len(labels), size=n, p=p)]


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
    return _loss_and_grads(input_embeddings, output_weights, ids, weights, gold_row)


def _loss_and_grads(
    emb: np.ndarray, out: np.ndarray, ids: np.ndarray, weights: np.ndarray, gold: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`example_loss_and_grads` for bag weights that already sum to
    one: the training step.  The loss floors p at 1e-30, so only non-finite
    weights make it non-finite."""
    v = emb[ids].T @ weights
    logits = out @ v
    e = np.exp(logits - logits.max())
    p = e / e.sum()
    loss = -math.log(max(float(p[gold]), 1e-30))
    p[gold] -= 1.0  # now the logit gradient
    dv = out.T @ p
    return loss, np.outer(weights, dv), np.outer(p, v)


ProgressFn = Callable[[int, int, float], None]


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
    rng = np.random.default_rng(train_config.seed)
    dim = train_config.dim
    # drawn about 2^20 values at a time: the stream of one draw over the
    # whole table, without a float64 copy of it
    emb = np.empty((vocab.size + feature_config.bucket, dim), dtype=np.float32)
    for chunk in np.array_split(emb, 1 + (emb.size >> 20)):
        chunk[:] = rng.uniform(-1.0 / dim, 1.0 / dim, size=chunk.shape)
    out = np.zeros((len(vocab.labels), dim), dtype=np.float32)

    # featurize once, in batches; each example is (ids, bag weights, gold
    # row), the first two views into its batch's arrays.  A sentence whose
    # label min_count_label cut has no output row, and one with an empty bag
    # cannot drive an update
    labeled = [(line.text, label_row[line.label]) for line in corpus
               if line.label in label_row]
    examples: list[tuple[np.ndarray, np.ndarray, int]] = []
    for start in range(0, len(labeled), BATCH_LINES):
        part = labeled[start : start + BATCH_LINES]
        batch = featurize_batch([text for text, _ in part], vocab, feature_config)
        row_of = np.repeat(np.arange(len(part)), np.diff(batch.offsets))
        weights = (batch.counts / np.bincount(row_of, batch.counts)[row_of]).astype(np.float32)
        bounds = batch.offsets.tolist()
        examples += [(batch.ids[lo:hi], weights[lo:hi], gold)
                     for (_, gold), lo, hi in zip(part, bounds, bounds[1:]) if lo < hi]
    if not examples:
        raise NoFeatures("no sentence in the corpus produced features")

    golds = np.fromiter((g for _, _, g in examples), dtype=np.int64, count=len(examples))
    counts = np.bincount(golds, minlength=len(vocab.labels))
    drawn = np.flatnonzero(counts)  # label rows with examples, in label order
    stats = CorpusStats({vocab.labels[r]: int(counts[r]) for r in drawn}, len(examples))
    lang_weights = temperature_weights(stats, train_config.inv_temperature)
    lang_p = _language_distribution(lang_weights)[1]
    # one pool of example indices per drawn label, each in corpus order
    pools = np.split(np.argsort(golds, kind="stable"), np.cumsum(counts[drawn])[:-1])

    steps_per_epoch = len(examples)
    total_steps = train_config.epochs * steps_per_epoch
    lang_seq = rng.choice(len(pools), size=total_steps, p=lang_p)
    lr0 = train_config.lr

    step = 0
    # a diverging run overflows before its loss turns non-finite; the check
    # below reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(train_config.epochs):
            loss_sum = 0.0
            for _ in range(steps_per_epoch):
                lr = lr0 * (1.0 - step / total_steps)
                pool = pools[lang_seq[step]]
                ids, w, gold = examples[pool[rng.integers(0, len(pool))]]
                loss, g_emb, g_out = _loss_and_grads(emb, out, ids, w, gold)
                if not math.isfinite(loss):
                    raise ValueError(f"training diverged at step {step}: loss {loss}")
                loss_sum += loss
                out -= lr * g_out
                emb[ids] -= lr * g_emb  # ids are unique within a bag
                step += 1
            if progress is not None:
                progress(epoch + 1, train_config.epochs, loss_sum / steps_per_epoch)

    return LidModel(vocab, feature_config, train_config, emb, out)


# --- serialization ---------------------------------------------------------


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Cursor:
    """Bounds-checked reader over the model file's byte buffer; what it
    takes are views, not copies."""

    def __init__(self, data: bytes, start: int):
        self.data = memoryview(data)
        self.pos = start

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise CorruptModel("unexpected end of model file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptModel(f"bad string in model file: {exc}") from None


def save_model(model: LidModel, path: str) -> None:
    """Write the binary model file (see the module docstring for layout)."""
    fc, tc = model.feature_config, model.train_config
    crc = 0

    def emit(fh: BinaryIO, chunk: bytes) -> None:
        nonlocal crc
        crc = zlib.crc32(chunk, crc)
        fh.write(chunk)

    with open(path, "wb") as fh:
        emit(fh, MODEL_MAGIC)
        emit(fh, struct.pack("<I", MODEL_FORMAT_VERSION))
        emit(
            fh,
            struct.pack(
                "<QQIQII",
                fc.min_count,
                fc.min_count_label,
                fc.word_ngrams,
                fc.bucket,
                fc.minn,
                fc.maxn,
            ),
        )
        emit(fh, struct.pack("<IId", tc.dim, tc.epochs, tc.lr))
        emit(fh, _pack_str(tc.loss))
        emit(fh, struct.pack("<dQ", tc.inv_temperature, tc.seed))
        emit(fh, struct.pack("<I", len(model.vocab.labels)))
        for label in model.vocab.labels:
            emit(fh, _pack_str(label))
        emit(fh, struct.pack("<Q", model.vocab.size))
        for word, freq in model.vocab.words:
            emit(fh, _pack_str(word) + struct.pack("<Q", freq))
        emit(fh, np.ascontiguousarray(model.input_embeddings, dtype="<f4").tobytes())
        emit(fh, np.ascontiguousarray(model.output_weights, dtype="<f4").tobytes())
        fh.write(struct.pack("<I", crc))


def load_model(path: str) -> LidModel:
    """Read a model file back; inverse of :func:`save_model`.

    Raises UnsupportedFormat for wrong magic or unknown versions, and
    CorruptModel for truncation or checksum failure — never a partially
    constructed model.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MODEL_MAGIC) or data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise UnsupportedFormat("not a model file (bad magic)")
    cur = _Cursor(data, len(MODEL_MAGIC))
    (version,) = cur.unpack("<I")
    if version != MODEL_FORMAT_VERSION:
        raise UnsupportedFormat(f"unknown model format version {version}")
    if len(data) < cur.pos + 4:
        raise CorruptModel("unexpected end of model file")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(memoryview(data)[:-4]) != stored_crc:
        raise CorruptModel("checksum mismatch")

    min_count, min_count_label, word_ngrams, bucket, minn, maxn = cur.unpack("<QQIQII")
    dim, epochs, lr = cur.unpack("<IId")
    loss = cur.take_str()
    inv_temperature, seed = cur.unpack("<dQ")
    try:
        feature_config = FeatureConfig(
            min_count=min_count,
            min_count_label=min_count_label,
            word_ngrams=word_ngrams,
            bucket=bucket,
            minn=minn,
            maxn=maxn,
        )
        train_config = TrainConfig(
            dim=dim,
            epochs=epochs,
            lr=lr,
            loss=loss,
            inv_temperature=inv_temperature,
            seed=seed,
        )
    except ValueError as exc:
        raise CorruptModel(f"invalid config in model file: {exc}") from None

    (n_labels,) = cur.unpack("<I")
    labels = tuple(cur.take_str() for _ in range(n_labels))
    (n_words,) = cur.unpack("<Q")
    words = []
    for _ in range(n_words):
        word = cur.take_str()
        (freq,) = cur.unpack("<Q")
        words.append((word, freq))
    vocab = Vocabulary(
        tuple(words), {w: i for i, (w, _) in enumerate(words)}, labels
    )

    n_features = n_words + bucket
    emb_bytes = cur.take(n_features * dim * 4)
    out_bytes = cur.take(n_labels * dim * 4)
    if cur.pos != len(data) - 4:
        raise CorruptModel("trailing bytes in model file")
    emb = np.frombuffer(emb_bytes, dtype="<f4").reshape(n_features, dim).copy()
    out = np.frombuffer(out_bytes, dtype="<f4").reshape(n_labels, dim).copy()
    try:
        return LidModel(vocab, feature_config, train_config, emb, out)
    except ValueError as exc:
        raise CorruptModel(f"inconsistent model file: {exc}") from None
