import random

import numpy as np
import pytest

import lidkit.model
from lidkit.corpus import CorpusStats, LabeledLine
from lidkit.errors import CorruptModel, NoFeatures, NoLabels, UnsupportedFormat
from lidkit.features import FeatureBag, FeatureConfig, Vocabulary, build_vocab, featurize
from lidkit.model import (
    UNDETERMINED,
    LidModel,
    TrainConfig,
    _bag_arrays,
    example_loss_and_grads,
    load_model,
    predict,
    predict_dist,
    save_model,
    sentence_vector,
    softmax,
    temperature_weights,
    train,
)


def toy_model(n_words=3, bucket=50, dim=4, labels=("aa", "bb", "cc"), seed=0):
    rng = np.random.default_rng(seed)
    words = tuple((f"w{i}", 10) for i in range(n_words))
    vocab = Vocabulary(words, {w: i for i, (w, _) in enumerate(words)}, tuple(labels))
    config = FeatureConfig(min_count=1, bucket=bucket, minn=2, maxn=3)
    emb = rng.normal(size=(n_words + bucket, dim)).astype(np.float32)
    out = rng.normal(size=(len(labels), dim)).astype(np.float32)
    return LidModel(vocab, config, TrainConfig(dim=dim), emb, out)


def synthetic_corpus(n_langs=2, lines_per_lang=300, seed=0, words=40):
    """Languages with disjoint alphabets are linearly separable."""
    rng = random.Random(seed)
    corpus = []
    for lang in range(n_langs):
        alphabet = [chr(0x4E00 + 64 * lang + i) for i in range(20)]
        lexicon = [
            "".join(rng.choices(alphabet, k=rng.randint(2, 5))) for _ in range(words)
        ]
        for _ in range(lines_per_lang):
            corpus.append(
                LabeledLine(f"l{lang}", " ".join(rng.choices(lexicon, k=rng.randint(3, 8))))
            )
    return corpus


class TestSentenceVector:
    def test_single_id_is_its_embedding(self):
        m = toy_model()
        v = sentence_vector(FeatureBag({7: 1}), m)
        np.testing.assert_array_equal(v, m.input_embeddings[7].astype(np.float64))

    def test_weighted_mean(self):
        m = toy_model()
        v = sentence_vector(FeatureBag({2: 2, 5: 1}), m)
        e = m.input_embeddings.astype(np.float64)
        np.testing.assert_allclose(v, (2 * e[2] + e[5]) / 3, rtol=1e-15)

    def test_matches_naive_sum_oracle(self):
        m = toy_model(bucket=200)
        rng = random.Random(5)
        for _ in range(100):
            ids = rng.sample(range(200), k=rng.randint(1, 12))
            bag = FeatureBag({i: rng.randint(1, 4) for i in ids})
            naive = np.zeros(4, dtype=np.float64)
            total = 0
            for i, c in bag.counts.items():
                naive += c * m.input_embeddings[i].astype(np.float64)
                total += c
            naive /= total
            np.testing.assert_allclose(sentence_vector(bag, m), naive, rtol=1e-12)

    def test_empty_bag_raises(self):
        with pytest.raises(NoFeatures):
            sentence_vector(FeatureBag({}), toy_model())


class TestSoftmaxAndPredict:
    def test_uniform_on_constant_logits(self):
        p = softmax(np.zeros(7))
        np.testing.assert_allclose(p, np.full(7, 1 / 7), rtol=1e-15)

    def test_stable_under_huge_gap(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)
        assert abs(p.sum() - 1.0) < 1e-6

    def test_sums_to_one_at_large_magnitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            logits = rng.uniform(-1e4, 1e4, size=rng.integers(2, 30))
            p = softmax(logits)
            assert np.isfinite(p).all()
            assert abs(p.sum() - 1.0) < 1e-6

    def test_zero_weights_tie_break_lexicographic(self):
        m = toy_model()
        m = LidModel(
            m.vocab,
            m.feature_config,
            m.train_config,
            m.input_embeddings,
            np.zeros_like(m.output_weights),
        )
        top = predict(m, "w0 w1", k=3)
        assert [l for l, _ in top] == ["aa", "bb", "cc"]
        assert all(p == pytest.approx(1 / 3) for _, p in top)

    def test_no_features_sentinel(self):
        assert predict(toy_model(), "") == [(UNDETERMINED, 1.0)]

    def test_k_clipped_to_label_count(self):
        assert len(predict(toy_model(), "w0", k=10)) == 3

    def test_dist_is_valid_and_matches_predict(self):
        m = toy_model(seed=3)
        dist = predict_dist(m, "w0 w2 zz")
        assert abs(sum(dist.probs.values()) - 1.0) < 1e-6
        top_label, top_p = predict(m, "w0 w2 zz", k=1)[0]
        assert dist.probs[top_label] == top_p

    def test_permutation_invariance(self):
        m = toy_model(seed=1)
        assert predict(m, "w0 w1 w2 xx") == predict(m, "xx w2 w0 w1")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            predict(toy_model(), "w0", k=0)


class TestTemperatureWeights:
    def test_symmetric(self):
        stats = CorpusStats({"a": 5, "b": 5}, 10)
        assert temperature_weights(stats, 0.3) == {"a": 0.5, "b": 0.5}

    def test_alpha_one_is_raw_proportions(self):
        stats = CorpusStats({"a": 3, "b": 1}, 4)
        w = temperature_weights(stats, 1.0)
        assert w["a"] == pytest.approx(0.75)
        assert w["b"] == pytest.approx(0.25)

    def test_ratio_flattens_with_alpha(self):
        stats = CorpusStats({"big": 1000, "small": 1}, 1001)
        w = temperature_weights(stats, 0.3)
        assert w["big"] / w["small"] == pytest.approx(1000**0.3, rel=1e-12)
        assert sum(w.values()) == pytest.approx(1.0)

    def test_validates(self):
        stats = CorpusStats({"a": 1}, 1)
        with pytest.raises(ValueError):
            temperature_weights(stats, 0.0)
        with pytest.raises(ValueError):
            temperature_weights(CorpusStats({}, 0), 0.3)


class TestGradients:
    def test_matches_finite_differences_small(self):
        rng = np.random.default_rng(8)
        emb = rng.uniform(-1, 1, size=(6, 3))
        out = rng.uniform(-1, 1, size=(2, 3))
        ids = np.array([0, 3, 5])
        mults = np.array([2.0, 1.0, 1.0])
        _, g_emb, g_out = example_loss_and_grads(emb, out, ids, mults, 1)
        h = 1e-6

        def loss_at(e, w):
            return example_loss_and_grads(e, w, ids, mults, 1)[0]

        for j, i in enumerate(ids):
            for d in range(3):
                e2 = emb.copy()
                e2[i, d] += h
                e1 = emb.copy()
                e1[i, d] -= h
                fd = (loss_at(e2, out) - loss_at(e1, out)) / (2 * h)
                assert g_emb[j, d] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        for r in range(2):
            for d in range(3):
                w2 = out.copy()
                w2[r, d] += h
                w1 = out.copy()
                w1[r, d] -= h
                fd = (loss_at(emb, w2) - loss_at(emb, w1)) / (2 * h)
                assert g_out[r, d] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_training_steps_equal_the_checked_function_bit_for_bit(self, monkeypatch):
        # every SGD step goes through _loss_and_grads with the stored f32
        # (ids, weights); the public function on the bag's raw multiplicities
        # must return the same bits, so the gradient checks cover training
        corpus = synthetic_corpus(n_langs=3, lines_per_lang=20, seed=5)
        fc = FeatureConfig(min_count=1, bucket=300)
        vocab = build_vocab(corpus, fc)
        mults_of = {}
        for line in corpus:
            ids, mults = _bag_arrays(featurize(line.text, vocab, fc))
            mults_of[ids.tobytes()] = mults
        step = lidkit.model._loss_and_grads
        calls = []

        def recorded_step(emb, out, ids, weights, gold):
            got = step(emb, out, ids, weights, gold)
            calls.append((emb.copy(), out.copy(), ids, weights, gold, got))
            return got

        monkeypatch.setattr(lidkit.model, "_loss_and_grads", recorded_step)
        train(corpus, fc, TrainConfig(dim=4, epochs=2, seed=1))
        monkeypatch.undo()
        assert len(calls) == 2 * len(corpus)
        for emb, out, ids, weights, gold, got in calls:
            want = example_loss_and_grads(emb, out, ids, mults_of[ids.tobytes()], gold)
            assert weights.dtype == emb.dtype == np.float32
            assert got[0] == want[0]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1:], want[1:]))


class TestTrain:
    def test_separable_languages_reach_perfect_heldout(self):
        corpus = synthetic_corpus(n_langs=2, lines_per_lang=250, seed=4)
        rng = random.Random(0)
        rng.shuffle(corpus)
        heldout, trainset = corpus[:50], corpus[50:]
        model = train(
            trainset,
            FeatureConfig(min_count=1, bucket=5000),
            TrainConfig(dim=8, epochs=3, lr=0.8, seed=2),
        )
        correct = sum(predict(model, l.text)[0][0] == l.label for l in heldout)
        assert correct == len(heldout)

    def test_single_language_predicts_it_with_prob_one(self):
        corpus = [LabeledLine("only", f"word{i} word{i+1}") for i in range(30)]
        model = train(
            corpus,
            FeatureConfig(min_count=1, bucket=500),
            TrainConfig(dim=4, epochs=1, seed=0),
        )
        assert predict(model, "word3 word4") == [("only", 1.0)]

    def test_deterministic_bytes(self, tmp_path):
        corpus = synthetic_corpus(n_langs=2, lines_per_lang=60, seed=1)
        fc = FeatureConfig(min_count=1, bucket=800)
        tc = TrainConfig(dim=6, epochs=2, seed=11)
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_model(train(corpus, fc, tc), a)
        save_model(train(corpus, fc, tc), b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_progress_callback_runs_per_epoch(self):
        seen = []
        corpus = synthetic_corpus(n_langs=2, lines_per_lang=30)
        train(
            corpus,
            FeatureConfig(min_count=1, bucket=300),
            TrainConfig(dim=4, epochs=3, seed=0),
            progress=lambda e, n, loss: seen.append((e, n, loss)),
        )
        assert [(e, n) for e, n, _ in seen] == [(1, 3), (2, 3), (3, 3)]
        assert all(np.isfinite(loss) for _, _, loss in seen)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_stops_within_the_first_epoch(self):
        seen = []
        with pytest.raises(ValueError, match=r"training diverged at step \d+: loss nan"):
            train(
                synthetic_corpus(n_langs=2, lines_per_lang=30),
                FeatureConfig(min_count=1, bucket=300),
                TrainConfig(dim=4, epochs=3, lr=1e30, seed=0),
                progress=lambda e, n, loss: seen.append(e),
            )
        assert seen == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train([], FeatureConfig(min_count=1), TrainConfig())

    def test_unsorted_labels_rejected(self):
        # ties in predict and decide go to the first column, so the label
        # order must be sorted for them to go to the smaller label
        with pytest.raises(ValueError):
            toy_model(labels=("bb", "aa", "cc"))

    def test_no_labels_propagates(self):
        corpus = [LabeledLine("x", "some words here")]
        with pytest.raises(NoLabels):
            train(
                corpus,
                FeatureConfig(min_count=1, min_count_label=5),
                TrainConfig(dim=2),
            )


class TestTrainConfig:
    def test_validates(self):
        for kw in (
            dict(dim=0),
            dict(epochs=0),
            dict(lr=0.0),
            dict(loss="hs"),
            dict(inv_temperature=0.0),
            dict(inv_temperature=1.5),
            dict(seed=-1),
        ):
            with pytest.raises(ValueError):
                TrainConfig(**kw)

    def test_defaults(self):
        tc = TrainConfig()
        assert (tc.dim, tc.epochs, tc.lr) == (256, 2, 0.8)
        assert (tc.loss, tc.inv_temperature) == ("softmax", 0.3)


class TestSerialization:
    def build(self):
        corpus = synthetic_corpus(n_langs=3, lines_per_lang=40, seed=9)
        return train(
            corpus,
            FeatureConfig(min_count=1, bucket=400),
            TrainConfig(dim=5, epochs=1, seed=1),
        ), corpus

    def test_round_trip_predictions_identical(self, tmp_path):
        model, corpus = self.build()
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab.words == model.vocab.words
        assert loaded.labels == model.labels
        for line in corpus[:100]:
            assert predict(loaded, line.text, k=3) == predict(model, line.text, k=3)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(UnsupportedFormat):
            load_model(str(path))

    def test_unknown_version(self, tmp_path):
        import struct

        path = tmp_path / "v99.bin"
        path.write_bytes(b"GLIDMODL" + struct.pack("<I", 99) + b"\x00" * 16)
        with pytest.raises(UnsupportedFormat):
            load_model(str(path))

    def test_truncated(self, tmp_path):
        model, _ = self.build()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptModel):
            load_model(str(path))

    def test_bit_flip_fails_checksum(self, tmp_path):
        model, _ = self.build()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModel):
            load_model(str(path))

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"GL")
        with pytest.raises(UnsupportedFormat):
            load_model(str(path))
