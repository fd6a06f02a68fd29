import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit.corpus import LabeledLine
from lidkit.errors import NoLabels
from lidkit.features import (
    FeatureBag,
    FeatureConfig,
    build_vocab,
    char_ngrams,
    featurize,
    hash_ngram,
    tokenize,
)

FNV_BASIS = 2166136261
FNV_PRIME = 16777619


def small_config(**kw):
    defaults = dict(min_count=1, bucket=1000, minn=2, maxn=5)
    defaults.update(kw)
    return FeatureConfig(**defaults)


class TestTokenize:
    def test_collapses_runs(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_any_whitespace(self):
        assert tokenize("a\tb\nc d") == "a b c d".split()


class TestCharNgrams:
    def test_spec_order_for_ab(self):
        assert char_ngrams("ab", 2, 5) == ["<a", "<ab", "<ab>", "ab", "ab>", "b>"]

    def test_single_char_word(self):
        assert char_ngrams("a", 2, 2) == ["<a", "a>"]

    def test_long_word_excludes_whole_wrap(self):
        grams = char_ngrams("abcdef", 2, 3)
        assert "<abcdef>" not in grams
        assert max(len(g) for g in grams) == 3

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            char_ngrams("x", 3, 2)

    @given(
        st.text(alphabet="abcde日本", min_size=0, max_size=12),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_count_formula(self, word, minn, extra):
        maxn = minn + extra
        grams = char_ngrams(word, minn, maxn)
        wrapped_len = len(word) + 2
        expected = sum(
            wrapped_len - k + 1 for k in range(minn, min(maxn, wrapped_len) + 1)
        )
        assert len(grams) == expected
        wrapped = f"<{word}>"
        assert all(g in wrapped for g in grams)


class TestHashNgram:
    def test_empty_string_is_basis(self):
        assert hash_ngram("", 2**32) == FNV_BASIS
        assert hash_ngram("", 1000) == FNV_BASIS % 1000

    def test_one_byte_formula(self):
        for ch in "az0é"[:3]:
            b = ch.encode("utf-8")[0]
            expected = ((FNV_BASIS ^ b) * FNV_PRIME) % 2**32
            assert hash_ngram(ch, 2**32) == expected

    def test_known_vectors(self):
        # standard FNV-1a 32-bit test values
        assert hash_ngram("a", 2**32) == 0xE40C292C
        assert hash_ngram("foobar", 2**32) == 0xBF9CF968

    def test_multibyte_utf8(self):
        h = FNV_BASIS
        for b in "中".encode("utf-8"):
            h = ((h ^ b) * FNV_PRIME) % 2**32
        assert hash_ngram("中", 2**32) == h

    @given(st.text(max_size=20), st.integers(min_value=1, max_value=10**6))
    def test_range(self, s, bucket):
        assert 0 <= hash_ngram(s, bucket) < bucket


class TestBuildVocab:
    def test_min_count_filters(self):
        lines = [LabeledLine("eng", "the " * 1500)] + [
            LabeledLine("eng", "rare word")
        ] * 3
        vocab = build_vocab(lines, FeatureConfig(min_count=1000))
        assert [w for w, _ in vocab.words] == ["the"]
        assert vocab.words[0][1] == 1500

    def test_min_count_one_keeps_all(self):
        lines = [LabeledLine("eng", "alpha beta beta")]
        vocab = build_vocab(lines, small_config())
        assert dict(vocab.words) == {"alpha": 1, "beta": 2}

    def test_ordering_by_freq_then_lex(self):
        lines = [LabeledLine("x", "bb aa aa cc cc")]
        vocab = build_vocab(lines, small_config())
        assert [w for w, _ in vocab.words] == ["aa", "cc", "bb"]
        assert vocab.word_index == {"aa": 0, "cc": 1, "bb": 2}

    def test_labels_sorted_and_filtered(self):
        lines = [LabeledLine("zzz", "a"), LabeledLine("aaa", "b"), LabeledLine("zzz", "c")]
        vocab = build_vocab(lines, small_config())
        assert vocab.labels == ("aaa", "zzz")
        vocab = build_vocab(lines, small_config(min_count_label=2))
        assert vocab.labels == ("zzz",)

    def test_no_labels_error(self):
        lines = [LabeledLine("eng", "hi there")]
        with pytest.raises(NoLabels):
            build_vocab(lines, small_config(min_count_label=10))

    def test_matches_counter_oracle(self):
        rng = random.Random(3)
        words = [f"w{i}" for i in range(50)]
        lines = [
            LabeledLine("l", " ".join(rng.choices(words, k=8))) for _ in range(400)
        ]
        freq = Counter(w for l in lines for w in l.text.split())
        vocab = build_vocab(lines, small_config(min_count=20))
        assert dict(vocab.words) == {w: c for w, c in freq.items() if c >= 20}


class TestFeaturize:
    def test_empty_text(self):
        vocab = build_vocab([LabeledLine("l", "word")], small_config())
        bag = featurize("", vocab, small_config())
        assert not bag and len(bag) == 0

    def test_in_vocab_word(self):
        config = small_config()
        vocab = build_vocab([LabeledLine("l", "cat")], config)
        bag = featurize("cat", vocab, config)
        expected = Counter({vocab.word_index["cat"]: 1})
        for gram in char_ngrams("cat", config.minn, config.maxn):
            expected[vocab.size + hash_ngram(gram, config.bucket)] += 1
        assert bag.counts == expected

    def test_oov_word_gets_ngrams_only(self):
        config = small_config()
        vocab = build_vocab([LabeledLine("l", "cat")], config)
        bag = featurize("dog", vocab, config)
        assert all(i >= vocab.size for i in bag.counts)
        assert len(bag) == len(char_ngrams("dog", config.minn, config.maxn))

    def test_multiplicity(self):
        config = small_config()
        vocab = build_vocab([LabeledLine("l", "cat")], config)
        once = featurize("cat", vocab, config)
        twice = featurize("cat cat", vocab, config)
        assert twice.counts == {i: 2 * c for i, c in once.counts.items()}

    def test_ids_in_range(self):
        config = small_config(bucket=97)
        vocab = build_vocab([LabeledLine("l", "aa bb cc")], config)
        bag = featurize("aa bb なに unknown", vocab, config)
        assert all(0 <= i < vocab.size + config.bucket for i in bag.counts)

    def test_word_bigrams_add_hashed_features(self):
        config = small_config(word_ngrams=2)
        vocab = build_vocab([LabeledLine("l", "a b")], config)
        uni = featurize("a b", vocab, small_config())
        bi = featurize("a b", vocab, config)
        extra = Counter(bi.counts) - Counter(uni.counts)
        assert extra == {vocab.size + hash_ngram("a b", config.bucket): 1}

    @given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=8))
    @settings(max_examples=50)
    def test_bag_permutation_invariant(self, tokens):
        config = small_config()
        vocab = build_vocab([LabeledLine("l", "aa bb")], config)
        shuffled = list(tokens)
        random.Random(0).shuffle(shuffled)
        a = featurize(" ".join(tokens), vocab, config)
        b = featurize(" ".join(shuffled), vocab, config)
        assert a.counts == b.counts

    def test_memo_is_per_config(self):
        corpus = [LabeledLine("l", "cat dog")]
        wide, narrow = small_config(bucket=1000), small_config(bucket=7)
        vocab = build_vocab(corpus, wide)
        featurize("cat bird", vocab, wide)
        fresh = build_vocab(corpus, wide)
        assert featurize("cat bird", vocab, narrow) == featurize("cat bird", fresh, narrow)

    def test_against_rederivation_oracle(self):
        rng = random.Random(11)
        config = small_config(bucket=503)
        words = [f"tok{i}" for i in range(30)]
        corpus = [
            LabeledLine("l", " ".join(rng.choices(words, k=6))) for _ in range(100)
        ]
        vocab = build_vocab(corpus, small_config(min_count=5, bucket=503))
        for _ in range(50):
            text = " ".join(rng.choices(words + ["zzz", "qqq"], k=rng.randint(1, 9)))
            expected: Counter[int] = Counter()
            for tok in text.split():
                if tok in vocab.word_index:
                    expected[vocab.word_index[tok]] += 1
                for gram in char_ngrams(tok, config.minn, config.maxn):
                    expected[vocab.size + hash_ngram(gram, config.bucket)] += 1
            assert featurize(text, vocab, config).counts == expected


class TestFeatureConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            FeatureConfig(minn=0)
        with pytest.raises(ValueError):
            FeatureConfig(minn=6, maxn=5)
        with pytest.raises(ValueError):
            FeatureConfig(bucket=0)
        with pytest.raises(ValueError):
            FeatureConfig(word_ngrams=0)

    def test_defaults(self):
        config = FeatureConfig()
        assert (config.min_count, config.min_count_label) == (1000, 0)
        assert (config.word_ngrams, config.bucket) == (1, 1_000_000)
        assert (config.minn, config.maxn) == (2, 5)
