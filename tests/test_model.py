import os
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lidkit.model
from lidkit.corpus import CorpusStats, LabeledLine
from lidkit.decision import Decider
from lidkit.errors import CorruptModel, NoFeatures, NoLabels, UnsupportedFormat
from lidkit.features import (
    FeatureBag,
    FeatureBatch,
    FeatureConfig,
    Vocabulary,
    build_vocab,
    featurize,
    featurize_batch,
)
from lidkit.model import (
    UNDETERMINED,
    LidModel,
    Scorer,
    TrainConfig,
    _bag_arrays,
    _check_finite,
    _draw_examples,
    _softmax_in_place,
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

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([2, 3, 16, 256]),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(
            st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, -5.8e-39,
                             3.4028235e38, -3.4028235e38, 3.0e38, -3.3e38])
            | st.floats(width=32, allow_nan=False, allow_infinity=False),
            max_size=40),
        lines=st.lists(
            st.lists(st.tuples(st.integers(0, 63), st.integers(1, 2**20)),
                     max_size=40, unique_by=lambda pair: pair[0]),
            min_size=1, max_size=6),
    )
    def test_scorer_sums_in_id_order_bit_for_bit(self, dim, seed, specials, lines):
        """Each column is ``acc += count * float(x)`` from +0.0, one id after
        another in the line's order, then divided by the count sum: the
        exact bits, signed zeros included."""
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-45, 38, size=(64, dim))
        table = np.clip(rng.normal(size=(64, dim)) * scale, -3.4e38, 3.4e38).astype(np.float32)
        table.flat[rng.integers(0, table.size, size=len(specials))] = specials
        m = toy_model(n_words=3, bucket=61, dim=dim)
        m = LidModel(m.vocab, m.feature_config, m.train_config, table, m.output_weights)
        ids = np.array([i for line in lines for i, _ in line], dtype=np.int64)
        counts = np.array([c for line in lines for _, c in line], dtype=np.int64)
        offsets = np.cumsum([0] + [len(line) for line in lines])
        has, v = Scorer(m)._block_vectors(FeatureBatch(ids, counts, offsets))
        assert has.tolist() == [bool(line) for line in lines]
        want = []
        for line in filter(None, lines):
            acc = [0.0] * dim
            for i, c in line:
                for j in range(dim):
                    acc[j] += c * float(table[i, j])
            total = sum(c for _, c in line)
            want.append([a / total for a in acc])
        assert v.tobytes() == np.array(want, dtype=np.float64).reshape(-1, dim).tobytes()

    def test_a_long_line_is_summed_without_a_float64_copy_of_its_rows(self):
        """The first block of one 1,000-id line at dim 256 peaks below the
        bytes of a float64 copy of its rows, beside the model."""
        # one bucket: every char n-gram is the same id
        m = toy_model(n_words=999, bucket=1, dim=256)
        text = " ".join(w for w, _ in m.vocab.words)
        assert len(featurize_batch([text], m.vocab, m.feature_config).ids) == 1000
        tracemalloc.start()
        try:
            next(Scorer(m).iter_blocks([text]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 256 * 8


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

    @pytest.mark.parametrize("shape, dtype", [((20,), np.float32), ((256, 1600), np.float64)])
    def test_in_place_softmax_has_the_bits_of_the_ndarray_reductions(self, shape, dtype):
        z = (np.random.default_rng(2).standard_normal(shape) * 10).astype(dtype)
        want = z - z.max(axis=-1, keepdims=True)
        np.exp(want, out=want)
        want /= want.sum(axis=-1, keepdims=True)
        got = _softmax_in_place(z.copy())
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    diff = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert not diff.size, (f"{diff.size} entries differ, first at {diff[0]}: "
                           f"{float(got.flat[diff[0]]).hex()} != {float(want.flat[diff[0]]).hex()}")


class TestBlockedScorer:
    """The scorer's row-blocked products over blocks of lines against one
    float64 ``out @ v`` and one softmax per sentence, bit for bit."""

    @pytest.mark.parametrize("n_labels", [1, 2, 3, 5, 127, 128, 129, 130, 257, 1601])
    @pytest.mark.parametrize("lines", [1, 7, 300])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([8, 40, 256]))
    def test_logits_and_probs_equal_per_row_matvec(self, n_labels, lines, seed, dim):
        rng = np.random.default_rng(seed)
        labels = tuple(f"l{i:04d}" for i in range(n_labels))
        out = (rng.standard_normal((n_labels, dim)) / np.sqrt(dim)).astype(np.float32)
        model = LidModel(Vocabulary((), {}, labels), FeatureConfig(bucket=1),
                         TrainConfig(dim=dim), np.zeros((1, dim), dtype=np.float32), out)
        scorer = Scorer(model)
        v = rng.standard_normal((lines, dim)) * rng.uniform(0.1, 30.0)
        want = np.array([scorer._out @ row for row in v])
        assert_same_bits(scorer._logits(v), want)
        assert_same_bits(scorer._probs(v), np.array([softmax(row) for row in want]))

    @pytest.mark.parametrize("n_labels", [1, 129, 1601])
    @pytest.mark.parametrize("dim", [1, 8, 256])
    def test_texts_score_in_blocks_as_one_at_a_time(self, n_labels, dim):
        """Blocks against the per-line path, predict_dist, bit for bit, and
        a Decider's ranks against predict's, pair for pair."""
        m = toy_model(labels=tuple(f"l{i:04d}" for i in range(n_labels)), dim=dim, seed=4)
        texts = [["w0 w1", "", "w2 zz w2", "  "][i % 4] + f" x{i}" * (i % 3)
                 for i in range(2 * lidkit.model.LINE_BLOCK + 5)]
        blocks = [(has, p.copy()) for has, p in Scorer(m).iter_blocks(texts)]
        assert [len(has) for has, _ in blocks] == [lidkit.model.LINE_BLOCK] * 2 + [5]
        has = np.concatenate([h for h, _ in blocks])
        got = np.concatenate([p for _, p in blocks])
        assert has.tolist() == [bool(featurize(t, m.vocab, m.feature_config)) for t in texts]
        want = [list(predict_dist(m, t).probs.values()) for t, h in zip(texts, has) if h]
        assert_same_bits(got, np.array(want))

        def hexed(rows):
            return [[(label, p.hex()) for label, p in pairs] for pairs in rows]

        ranked = Decider(m, 0.0).rank_batch(texts, 3)
        assert hexed(ranked) == hexed(predict(m, t, 3) for t in texts)

    def test_a_call_holds_the_features_of_one_block_at_a_time(self):
        """Four blocks of long lines peak near one block under tracemalloc:
        each block is featurized on its own, not the whole call's texts."""
        rng = random.Random(3)
        block = lidkit.model.LINE_BLOCK
        texts = [" ".join("".join(rng.choices("abcdefghijklmnop", k=8)) for _ in range(30))
                 for _ in range(4 * block)]
        scorer = Scorer(toy_model(bucket=5000, seed=2))

        def peak(lines):
            tracemalloc.start()
            try:
                for _ in scorer.iter_blocks(lines):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(texts[:block])
        assert peak(texts) < 1.25 * one

    def test_blocks_match_an_independent_oracle(self):
        """Blocks of texts against a mean, ``out @ v`` and softmax per text,
        bit for bit, through one Scorer whose buffers must grow: blank lines
        at block edges, a batch of only blank lines, then a batch with more
        lines per block and a wider bag than the first."""
        labels = tuple(f"l{i:03d}" for i in range(130))
        m = toy_model(labels=labels, dim=8, seed=6)

        def oracle(text):
            ids, mults = _bag_arrays(featurize(text, m.vocab, m.feature_config))
            v = ((m.input_embeddings[ids].astype(np.float64) * mults[:, None]).sum(axis=0)
                 / mults.sum())
            return softmax(m.output_weights.astype(np.float64) @ v)

        rng = random.Random(8)
        block = lidkit.model.LINE_BLOCK
        edges = {0, block - 1, block, 2 * block - 1, 2 * block}
        wide = [" ".join(rng.choices(["w0", "w1", "w2", "zz"], k=rng.randint(1, 4)) +
                         [f"x{i}"] * (i % 3)) if i not in edges else " " * (i % 2)
                for i in range(2 * block + 9)]
        wide[7] = " ".join(f"y{j} w1" for j in range(40))  # the widest bag
        batches = [["w0 w0", "", "zz w1 zz"], ["", "  ", ""] * 100, wide]

        def widest(texts):
            return max(len(featurize(t, m.vocab, m.feature_config).counts) for t in texts)

        assert widest(wide) > widest(batches[0])
        scorer = Scorer(m)
        for texts in batches:
            blocks = [(has, p.copy()) for has, p in scorer.iter_blocks(texts)]
            assert [len(has) for has, _ in blocks] == [
                len(texts[i : i + block]) for i in range(0, len(texts), block)]
            has = np.concatenate([h for h, _ in blocks])
            assert has.tolist() == [bool(featurize(t, m.vocab, m.feature_config))
                                    for t in texts]
            got = np.concatenate([p for _, p in blocks])
            want = np.array([oracle(t) for t, h in zip(texts, has) if h]).reshape(-1, 130)
            assert_same_bits(got, want)


class TestAlignedLayers:
    """The Scorer's float64 output layer and the training table start on a
    64-byte boundary, whichever block the allocator hands out."""

    # 96 bytes come from glibc's heap; 200 KiB is above its default 128 KiB
    # mmap threshold, and a block it maps starts 16 bytes past a page
    @pytest.mark.parametrize("n_labels, dim", [(3, 4), (200, 128)])
    def test_scorer_output_layer(self, n_labels, dim):
        m = toy_model(labels=tuple(f"l{i:03d}" for i in range(n_labels)), dim=dim)
        scorer = Scorer(m)
        assert scorer._out.ctypes.data % 64 == 0
        assert scorer._out.tobytes() == m.output_weights.astype(np.float64).tobytes()

    @pytest.mark.parametrize("bucket, dim", [(10, 2), (5000, 16)])
    def test_training_table(self, bucket, dim):
        corpus = synthetic_corpus(n_langs=2, lines_per_lang=20, seed=3)
        m = train(corpus, FeatureConfig(min_count=1, bucket=bucket), TrainConfig(dim=dim, epochs=1))
        assert m.input_embeddings.ctypes.data % 64 == 0
        assert m.input_embeddings.flags.c_contiguous and m.input_embeddings.flags.writeable

    def test_logits_equal_those_of_an_unaligned_layer_bit_for_bit(self):
        m = toy_model(labels=tuple(f"l{i:04d}" for i in range(1601)), dim=256, seed=11)
        scorer = Scorer(m)
        raw = np.empty(scorer._out.nbytes + 128, dtype=np.uint8)
        start = -raw.ctypes.data % 64 + 16
        unaligned = raw[start : start + scorer._out.nbytes].view(np.float64)
        unaligned = unaligned.reshape(scorer._out.shape)
        unaligned[...] = m.output_weights
        assert unaligned.ctypes.data % 64 == 16
        v = np.random.default_rng(11).standard_normal((300, 256))
        want = np.empty((300, 1601))
        for r0, r1 in scorer._row_blocks:
            np.matmul(unaligned[r0:r1], v[:, :, None], out=want[:, r0:r1, None])
        assert_same_bits(scorer._logits(v), want)


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
        # every SGD step goes through _loss_and_grads with the bag's gathered
        # f32 rows and stored weights; the public function on those rows and
        # the bag's raw multiplicities must return the same bits, so the
        # gradient checks cover training
        corpus = synthetic_corpus(n_langs=3, lines_per_lang=20, seed=5)
        fc = FeatureConfig(min_count=1, bucket=300)
        vocab = build_vocab(corpus, fc)
        # keyed by the weights train stores; bags with the same weights here
        # have proportional multiplicities, which the public function maps
        # to the same weights
        mults_of = {}
        for line in corpus:
            mults = _bag_arrays(featurize(line.text, vocab, fc))[1]
            mults_of[(mults / mults.sum()).astype(np.float32).tobytes()] = mults
        step = lidkit.model._loss_and_grads
        calls = []

        def recorded_step(rows, out, weights, gold):
            # train updates rows and scales the gradients in place, so
            # copies are kept
            args = (rows.copy(), out.copy(), weights, gold)
            got = step(rows, out, weights, gold)
            calls.append((*args, (got[0], got[1].copy(), got[2].copy())))
            return got

        monkeypatch.setattr(lidkit.model, "_loss_and_grads", recorded_step)
        train(corpus, fc, TrainConfig(dim=4, epochs=2, seed=1))
        monkeypatch.undo()
        assert len(calls) == 2 * len(corpus)
        for rows, out, weights, gold, got in calls:
            want = example_loss_and_grads(rows, out, np.arange(len(rows)),
                                          mults_of[weights.tobytes()], gold)
            assert weights.dtype == rows.dtype == np.float32
            assert got[0] == want[0]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got[1:], want[1:]))


class TestStepDraws:
    """The training steps' draws, made in chunks, are the whole-run draws.

    They rest on a property of numpy's Generator over PCG64:
    ``integers(0, highs)`` over an array of bounds takes, element by element,
    what one scalar ``integers(0, high)`` call takes, including nothing for a
    bound of 1.
    """

    @staticmethod
    def whole_draws(seed, p, sizes, total):
        # one language draw for the whole run, then one scalar draw per step
        rng = np.random.default_rng(seed)
        langs = rng.choice(len(sizes), size=total, p=p)
        starts = np.cumsum(sizes) - sizes
        picks = [int(starts[l] + rng.integers(0, sizes[l])) for l in langs]
        return picks, rng.bit_generator.state

    @pytest.mark.parametrize("sizes", [[1], [5], [3, 1, 40], [1000, 2, 7, 1, 300]])
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunked_draws_equal_whole_draws(self, monkeypatch, sizes, seed, chunk):
        sizes = np.array(sizes, dtype=np.int64)
        p = np.random.default_rng(len(sizes)).dirichlet(np.ones(len(sizes)))
        total = 9001
        want, want_state = self.whole_draws(seed, p, sizes, total)
        monkeypatch.setattr(lidkit.model, "DRAW_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        langs = rng.choice(len(sizes), size=total, p=p)
        # the identity order, so each draw is its position in the pools
        got = list(_draw_examples(rng, langs, np.arange(sizes.sum()), sizes))
        assert got == want
        assert rng.bit_generator.state == want_state


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
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_draw_chunk_size_leaves_the_model_bytes_alone(self, tmp_path, monkeypatch):
        # three unbalanced languages: 50, 30 and 10 lines
        corpus = synthetic_corpus(n_langs=3, lines_per_lang=50, seed=7)
        corpus = corpus[:80] + corpus[100:110]
        fc = FeatureConfig(min_count=1, bucket=800)
        tc = TrainConfig(dim=6, epochs=3, seed=4)
        data = []
        for chunk in (1, 7, lidkit.model.DRAW_CHUNK):
            monkeypatch.setattr(lidkit.model, "DRAW_CHUNK", chunk)
            path = tmp_path / f"{chunk}.bin"
            save_model(train(corpus, fc, tc), str(path))
            data.append(path.read_bytes())
        assert data[0] == data[1] == data[2]

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


class TestTrainMemory:
    @pytest.mark.parametrize("dim, bucket", [(16, 5000), (100, 3001)])
    def test_initial_table_is_one_uniform_draw(self, monkeypatch, dim, bucket):
        # the table is drawn through a buffer smaller than it; its values
        # must be those of one Generator.uniform call over the whole table,
        # whatever the rounding of the numpy at hand
        corpus = synthetic_corpus(n_langs=2, lines_per_lang=20, seed=3)
        drawn = []
        draw = lidkit.model._uniform_table

        def recorded_draw(*args):
            table = draw(*args)
            drawn.append(table.copy())  # before training moves it
            return table

        monkeypatch.setattr(lidkit.model, "_uniform_table", recorded_draw)
        train(corpus, FeatureConfig(min_count=1, bucket=bucket), TrainConfig(dim=dim, epochs=1, seed=9))
        (table,) = drawn
        assert table.size > lidkit.model.TABLE_DRAW and table.size % lidkit.model.TABLE_DRAW
        want = np.random.default_rng(9).uniform(-1 / dim, 1 / dim, table.shape).astype(np.float32)
        assert table.tobytes() == want.tobytes()

    def test_peak_grows_with_the_packed_features(self):
        # two-word lines over one lexicon: the vocabulary and the table are
        # the same for both corpora, and a few hundred bytes of Python
        # objects per line would outweigh each line's features
        rng = random.Random(5)
        lexicon = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 6)))
                   for _ in range(100)]

        def corpus(n):
            return [LabeledLine(f"l{i % 4}", " ".join(rng.choices(lexicon, k=2)))
                    for i in range(n)]

        fc = FeatureConfig(min_count=1, bucket=20_000)
        tc = TrainConfig(dim=16, epochs=1, seed=1)

        def peak(lines):
            tracemalloc.start()
            try:
                train(lines, fc, tc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 3000
        small, large = corpus(n), corpus(4 * n)
        train(corpus(50), fc, tc)  # numpy's one-time allocations
        slope = (peak(large) - peak(small)) / (3 * n)
        vocab = build_vocab(large, fc)
        n_ids = len(featurize_batch([line.text for line in large], vocab, fc).ids)
        # 8 B per intp id and 4 per float32 weight, then an offset and a gold
        packed = (12 * n_ids + 16 * len(large)) / len(large)
        assert slope <= 1.25 * packed


def model_over(emb, out):
    """A model with no words whose bucket rows are ``emb``."""
    labels = tuple(f"l{i:03d}" for i in range(len(out)))
    config = FeatureConfig(min_count=1, bucket=len(emb))
    return LidModel(Vocabulary((), {}, labels), config, TrainConfig(dim=emb.shape[1]), emb, out)


class TestFiniteWeights:
    # slices hold whole rows; 3 does not divide _CHECK_SLICE, so a slice ends
    # before _CHECK_SLICE elements
    DIM = 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "before_boundary", "after_boundary", "last",
                                       "output"])
    def test_a_non_finite_weight_is_rejected_naming_its_row(self, dtype, value, where):
        step = lidkit.model._CHECK_SLICE // self.DIM  # rows per slice
        emb = np.zeros((2 * step + 5, self.DIM), dtype)
        out = np.zeros((4, self.DIM), dtype)
        if where == "output":
            out.reshape(-1)[7] = value
            name, row = "output_weights", 2
        else:
            flat = {"first": 0, "before_boundary": step * self.DIM - 1,
                    "after_boundary": step * self.DIM, "last": emb.size - 1}[where]
            emb.reshape(-1)[flat] = value
            name, row = "input_embeddings", flat // self.DIM
        with pytest.raises(ValueError, match=rf"^non-finite weight in {name} row {row}$"):
            model_over(emb, out)

    def test_the_first_bad_row_is_named(self):
        step = lidkit.model._CHECK_SLICE // self.DIM
        emb = np.ones((3 * step, self.DIM), np.float32)
        out = np.ones((2, self.DIM), np.float32)
        emb[2 * step + 1, 0] = np.inf
        emb[step + 4, 2] = np.nan
        out[0, 0] = -np.inf
        with pytest.raises(ValueError, match=rf"input_embeddings row {step + 4}$"):
            model_over(emb, out)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_finite_weights_pass(self, dtype):
        info, f32 = np.finfo(dtype), np.finfo(np.float32)
        values = np.array([info.smallest_subnormal, -info.smallest_subnormal, -0.0, 0.0,
                           info.tiny, f32.max, -f32.max, info.max, -info.max], dtype)
        # a table of maxima, whose sum overflows, spanning several slices
        emb = np.resize(values, (lidkit.model._CHECK_SLICE, self.DIM))
        model_over(emb, np.resize(values, (len(values), self.DIM)))

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.float32, np.float64]),
        slice_size=st.integers(1, 20),
    )
    def test_rejects_what_isfinite_rejects(self, data, dtype, slice_size):
        width = 32 if dtype == np.float32 else 64
        matrix = data.draw(hnp.arrays(
            dtype, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
            elements=st.floats(width=width, allow_nan=True, allow_infinity=True)))
        with mock.patch.object(lidkit.model, "_CHECK_SLICE", slice_size):
            if np.isfinite(matrix).all():
                _check_finite("m", matrix)
            else:
                row = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
                with pytest.raises(ValueError, match=rf"^non-finite weight in m row {row}$"):
                    _check_finite("m", matrix)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["input_embeddings", "output_weights"])
    def test_load_rejects_a_non_finite_weight_under_a_valid_checksum(self, tmp_path, value, name):
        model = toy_model()
        getattr(model, name)[1, 2] = value  # save_model does not check
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        with pytest.raises(CorruptModel, match=rf"non-finite weight in {name} row 1$"):
            load_model(path)

    def test_no_temporary_grows_with_the_table(self, tmp_path):
        emb = np.full((1 << 16, 256), 0.25, np.float32)  # 64 MiB
        out = np.full((4, 256), -0.5, np.float32)
        tracemalloc.start()
        try:
            model = model_over(emb, out)
            built = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 1 << 20
        path = str(tmp_path / "m.bin")
        tracemalloc.start()
        try:
            save_model(model, path)
            saved = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert saved < 1 << 20
        del model, emb
        tracemalloc.start()
        try:
            loaded = load_model(path)
            read = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.input_embeddings.nbytes == 64 << 20
        assert read < os.path.getsize(path) + (1 << 20)


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

    def test_invalid_utf8_label_with_valid_checksum(self, tmp_path):
        import struct
        import zlib

        model, _ = self.build()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = bytearray(path.read_bytes())
        label = model.labels[0].encode("utf-8")
        at = blob.index(struct.pack("<I", len(label)) + label) + 4
        blob[at : at + len(label)] = b"\xff" * len(label)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModel, match="bad string"):
            load_model(str(path))

    @pytest.mark.parametrize("edit, message", [
        ("bad_utf8", "bad string in model file"),
        ("long_word", "unexpected end of model file"),
        ("extra_word", "unexpected end of model file"),
        ("missing_word", "trailing bytes in model file"),
        ("extra_byte", "trailing bytes in model file"),
    ])
    def test_a_bad_word_table_is_corrupt_under_a_valid_checksum(self, tmp_path, edit, message):
        import struct
        import zlib

        path = tmp_path / "m.bin"
        save_model(toy_model(), str(path))  # words w0, w1, w2, each of frequency 10
        blob = bytearray(path.read_bytes())

        def at(word):
            record = struct.pack("<I", 2) + word + struct.pack("<Q", 10)
            assert blob.count(record) == 1
            return blob.index(record)

        count = at(b"w0") - 8
        assert struct.unpack_from("<Q", blob, count) == (3,)
        if edit == "bad_utf8":
            blob[at(b"w1") + 4 : at(b"w1") + 6] = b"\xff\xfe"
        elif edit == "long_word":
            struct.pack_into("<I", blob, at(b"w2"), 200)
        elif edit in ("extra_word", "missing_word"):
            struct.pack_into("<Q", blob, count, 4 if edit == "extra_word" else 2)
        else:
            blob.insert(at(b"w2") + 14, 0)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModel, match=f"^{message}"):
            load_model(str(path))

    def test_loaded_arrays_own_their_data(self, tmp_path):
        model, _ = self.build()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        for array in (loaded.input_embeddings, loaded.output_weights):
            assert array.flags.owndata and array.flags.writeable and array.base is None

    def test_header_claiming_a_huge_bucket_is_corrupt(self, tmp_path):
        import struct
        import zlib

        model, _ = self.build()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = bytearray(path.read_bytes())
        # magic, version, min_count, min_count_label, word_ngrams, then bucket
        at = 8 + 4 + 8 + 8 + 4
        assert struct.unpack_from("<Q", blob, at) == (400,)
        struct.pack_into("<Q", blob, at, 2**60)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModel, match="unexpected end"):
            load_model(str(path))

    def test_loads_from_a_pipe(self, tmp_path):
        import threading

        model, corpus = self.build()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            loaded = load_model(str(fifo))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert predict(loaded, corpus[0].text, k=3) == predict(model, corpus[0].text, k=3)

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        import types
        import zlib

        model, _ = self.build()
        (tmp_path / "ref").mkdir()
        save_model(model, str(tmp_path / "ref" / "m.bin"))
        ref = (tmp_path / "ref" / "m.bin").read_bytes()
        path = tmp_path / "m.bin"
        path.write_bytes(b"an older model")
        path.chmod(0o640)
        written, temporaries = [0], []

        def crc32(data, value=0):  # fails past half the file, in the first matrix
            written[0] += len(data)
            if written[0] > len(ref) // 2:
                temporaries.extend(p.name for p in tmp_path.iterdir() if p.name != "ref")
                raise OSError("no space left on device")
            return zlib.crc32(data, value)

        monkeypatch.setattr(lidkit.model, "zlib", types.SimpleNamespace(crc32=crc32))
        with pytest.raises(OSError, match="no space"):
            save_model(model, str(path))
        assert len(temporaries) == 2  # the old file and the partly written one
        assert sorted(os.listdir(tmp_path)) == ["m.bin", "ref"]
        assert path.read_bytes() == b"an older model"
        monkeypatch.undo()
        save_model(model, str(path))
        assert path.read_bytes() == ref
        assert path.stat().st_mode & 0o777 == 0o640
        assert sorted(os.listdir(tmp_path)) == ["m.bin", "ref"]

    def test_saves_into_a_pipe(self, tmp_path):
        import threading

        model, corpus = self.build()
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        fifo = tmp_path / "m.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        save_model(model, str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [path.read_bytes()]
        assert fifo.is_fifo() and sorted(os.listdir(tmp_path)) == ["m.bin", "m.fifo"]
        (tmp_path / "piped.bin").write_bytes(got[0])
        loaded = load_model(str(tmp_path / "piped.bin"))
        assert predict(loaded, corpus[0].text, k=3) == predict(model, corpus[0].text, k=3)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"GL")
        with pytest.raises(UnsupportedFormat):
            load_model(str(path))

    def test_config_header_matches_the_packed_layout(self, tmp_path):
        import dataclasses
        import struct

        fc = FeatureConfig(min_count=3, min_count_label=1, word_ngrams=2, bucket=7,
                           minn=1, maxn=6)
        tc = TrainConfig(dim=3, epochs=1, lr=0.123456789, inv_temperature=1.0, seed=2**64 - 1)
        assert all(getattr(fc, f.name) != f.default for f in dataclasses.fields(fc))
        assert all(getattr(tc, f.name) != f.default
                   for f in dataclasses.fields(tc) if f.name != "loss")
        vocab = Vocabulary((), {}, ("aa", "bb"))
        model = LidModel(vocab, fc, tc, np.zeros((7, 3), np.float32), np.zeros((2, 3), np.float32))
        path = str(tmp_path / "m.bin")
        save_model(model, path)
        header = (struct.pack("<QQIQII", 3, 1, 2, 7, 1, 6)
                  + struct.pack("<IId", 3, 1, 0.123456789)
                  + struct.pack("<I", 7) + b"softmax"
                  + struct.pack("<dQ", 1.0, 2**64 - 1))
        with open(path, "rb") as fh:
            assert fh.read(12 + len(header))[12:] == header
        loaded = load_model(path)
        assert (loaded.feature_config, loaded.train_config) == (fc, tc)
        for cls in (FeatureConfig, TrainConfig):
            names = [name for name, _ in lidkit.model._CONFIG_FIELDS[cls]]
            assert set(names) == {f.name for f in dataclasses.fields(cls)}
            assert len(names) == len(set(names))

    def test_und_label_is_reserved(self, tmp_path):
        import struct
        import zlib

        with pytest.raises(ValueError, match="'und' is reserved"):
            toy_model(labels=("aaa", UNDETERMINED))
        model = toy_model(labels=("aaa", "bbb"))
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = bytearray(path.read_bytes())
        label = struct.pack("<I", 3) + b"bbb"
        assert blob.count(label) == 1
        at = blob.index(label) + 4
        blob[at : at + 3] = UNDETERMINED.encode("ascii")
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModel, match="'und' is reserved"):
            load_model(str(path))

    @pytest.mark.parametrize("labels", [("a\tb", "c"), ("", "c")])
    def test_label_that_is_empty_or_holds_whitespace_is_rejected(self, tmp_path, labels):
        import struct
        import zlib

        with pytest.raises(ValueError, match="bad label"):
            toy_model(labels=labels)
        path = tmp_path / "m.bin"
        save_model(toy_model(labels=("aab", "c")), str(path))
        blob = path.read_bytes()
        label = struct.pack("<I", 3) + b"aab"
        assert blob.count(label) == 1
        bad = labels[0].encode("ascii")
        blob = blob.replace(label, struct.pack("<I", len(bad)) + bad)[:-4]
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(CorruptModel, match="bad label"):
            load_model(str(path))
