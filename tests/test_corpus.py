import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidkit.corpus import (
    LabeledLine,
    contamination_rate,
    corpus_stats,
    dedup,
    detect_script,
    filter_by_script,
    parse_corpus_line,
    read_corpus,
    split_train_test,
    write_corpus,
    write_label_tsv,
)
from lidkit.errors import FormatError


def lines_of(*texts, label="eng"):
    return [LabeledLine(label, t) for t in texts]


class TestLabeledLine:
    def test_normalizes_nfc_and_trims(self):
        line = LabeledLine("eng", "  café  ")
        assert line.text == "café"

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            LabeledLine("eng", "   ")

    def test_rejects_whitespace_label(self):
        with pytest.raises(ValueError):
            LabeledLine("en g", "hello")
        with pytest.raises(ValueError):
            LabeledLine("", "hello")

    def test_rejects_reserved_und_label(self):
        with pytest.raises(ValueError):
            LabeledLine("und", "hello")
        with pytest.raises(FormatError):
            parse_corpus_line("__label__und hello", 1)


class TestDetectScript:
    def test_single_script(self):
        p = detect_script("hello world")
        assert p.dominant_script == "Latn"
        assert p.purity == 1.0
        assert p.per_script_letter_counts == {"Latn": 10}

    def test_no_letters(self):
        for text in ("", "123 .,!?", "   "):
            p = detect_script(text)
            assert p.dominant_script == "Zyyy"
            assert p.purity == 0.0

    def test_mixed_seven_cyrillic_three_latin(self):
        p = detect_script("абвгдеж abc")
        assert p.dominant_script == "Cyrl"
        assert p.purity == pytest.approx(0.7)
        assert p.per_script_letter_counts == {"Cyrl": 7, "Latn": 3}

    def test_digits_and_punctuation_ignored(self):
        assert detect_script("abc 123 !!!").purity == 1.0

    def test_common_script_letter_ignored(self):
        # U+02BC is a letter with script Common; it must not dilute purity
        p = detect_script("canʼt")
        assert p.purity == 1.0
        assert p.per_script_letter_counts == {"Latn": 4}

    def test_tie_breaks_lexicographically(self):
        p = detect_script("abяю")
        assert p.per_script_letter_counts == {"Latn": 2, "Cyrl": 2}
        assert p.dominant_script == "Cyrl"

    def test_han(self):
        assert detect_script("中文").dominant_script == "Hani"

    @given(st.text(), st.text(alphabet="0123456789 .,!?%-+"))
    def test_purity_invariant_under_nonletter_suffix(self, text, suffix):
        before = detect_script(text)
        after = detect_script(text + suffix)
        assert before.purity == after.purity
        assert before.dominant_script == after.dominant_script


class TestFilterByScript:
    def test_keeps_expected_script(self):
        kept, dropped = filter_by_script(
            lines_of("hello there friend"), {"eng": {"Latn"}}, 0.5
        )
        assert len(kept) == 1 and dropped == 0

    def test_drops_wrong_script(self):
        kept, dropped = filter_by_script(
            lines_of("привет мир"), {"eng": {"Latn"}}, 0.5
        )
        assert kept == [] and dropped == 1

    def test_purity_threshold(self):
        # 6 Latin vs 4 Cyrillic letters: dominant Latn at purity 0.6
        mixed = lines_of("abcdef гдеж")
        kept, _ = filter_by_script(mixed, {"eng": {"Latn"}}, 0.7)
        assert kept == []
        kept, _ = filter_by_script(mixed, {"eng": {"Latn"}}, 0.5)
        assert len(kept) == 1

    def test_unlisted_label_passes(self):
        lines = lines_of("привет мир", label="rus")
        kept, dropped = filter_by_script(lines, {"eng": {"Latn"}}, 1.0)
        assert kept == lines and dropped == 0

    def test_preserves_order_and_never_grows(self):
        lines = [
            LabeledLine("eng", "alpha beta"),
            LabeledLine("eng", "мир труд"),
            LabeledLine("eng", "gamma delta"),
        ]
        kept, dropped = filter_by_script(lines, {"eng": {"Latn"}}, 0.5)
        assert kept == [lines[0], lines[2]]
        assert len(kept) + dropped == len(lines)

    def test_rejects_bad_min_purity(self):
        with pytest.raises(ValueError):
            filter_by_script([], {}, 1.5)


class TestDedup:
    def test_basic(self):
        out = dedup(lines_of("a", "b", "a"))
        assert [l.text for l in out] == ["a", "b"]

    def test_empty(self):
        assert dedup([]) == []

    def test_global_across_labels(self):
        lines = [LabeledLine("eng", "same text"), LabeledLine("deu", "same text")]
        out = dedup(lines)
        assert out == [lines[0]]

    def test_nfc_equivalence_collapses(self):
        out = dedup(
            [LabeledLine("x", "café bar"), LabeledLine("x", "café bar")]
        )
        assert len(out) == 1

    def test_planted_duplicates_against_set_oracle(self):
        rng = random.Random(42)
        uniques = [f"sentence number {i} body" for i in range(900)]
        lines = [LabeledLine("lab", t) for t in uniques]
        for _ in range(100):
            lines.append(LabeledLine("lab", rng.choice(uniques)))
        rng.shuffle(lines)
        out = dedup(lines)
        assert len(out) == len({l.text for l in lines}) == 900

    @given(st.lists(st.text(alphabet="abc ", min_size=1).filter(str.strip)))
    def test_idempotent(self, texts):
        lines = [LabeledLine("l", t) for t in texts]
        once = dedup(lines)
        assert dedup(once) == once


class TestSplitTrainTest:
    def test_large_label_capped(self):
        lines = [LabeledLine("eng", f"line number {i} text") for i in range(10000)]
        train, test = split_train_test(lines, seed=1)
        assert len(train) == 8500
        assert len(test) == 1000

    def test_small_label_uncapped(self):
        lines = [LabeledLine("eng", f"tiny {i}") for i in range(10)]
        train, test = split_train_test(lines, seed=1)
        assert len(train) == 8
        assert len(test) == 2

    def test_deterministic(self):
        lines = [LabeledLine("x", f"s {i}") for i in range(500)]
        assert split_train_test(lines, seed=9) == split_train_test(lines, seed=9)

    def test_disjoint(self):
        lines = [LabeledLine("x", f"s {i}") for i in range(200)]
        train, test = split_train_test(lines, seed=3)
        assert not {l.text for l in train} & {l.text for l in test}

    def test_validates_fraction(self):
        with pytest.raises(ValueError):
            split_train_test([], train_fraction=1.0)
        with pytest.raises(ValueError):
            split_train_test([], test_cap=0)

    @given(
        st.dictionaries(
            st.sampled_from(["aaa", "bbb", "ccc"]),
            st.integers(min_value=1, max_value=80),
            min_size=1,
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_per_label_sizes(self, sizes, seed):
        lines = [
            LabeledLine(label, f"{label} sentence {i}")
            for label, n in sizes.items()
            for i in range(n)
        ]
        train, test = split_train_test(lines, test_cap=10, seed=seed)
        got_train = Counter(l.label for l in train)
        got_test = Counter(l.label for l in test)
        for label, n in sizes.items():
            n_train = int(n * 0.85)
            assert got_train[label] == n_train
            assert got_test[label] == min(10, n - n_train)


class TestContamination:
    def test_identical_long_sentence(self):
        lines = lines_of("one two three four five")
        assert contamination_rate(lines, lines) == {"eng": 1.0}

    def test_four_grams_split_across_train_sentences(self):
        test = lines_of("a b c d e")
        train = lines_of("x a b c d y", "x b c d e y")
        assert contamination_rate(test, train) == {"eng": 0.0}

    def test_short_sentence_never_contaminated(self):
        test = lines_of("a b c")
        assert contamination_rate(test, test) == {"eng": 0.0}

    def test_containment_not_just_equality(self):
        test = lines_of("two three four five")
        train = lines_of("one two three four five six")
        assert contamination_rate(test, train) == {"eng": 1.0}

    def test_self_contamination_for_long_sentences(self):
        lines = [
            LabeledLine("aa", "w1 w2 w3 w4 w5"),
            LabeledLine("aa", "v1 v2 v3 v4"),
            LabeledLine("bb", "u1 u2 u3 u4 u5 u6"),
        ]
        assert contamination_rate(lines, lines) == {"aa": 1.0, "bb": 1.0}

    def test_per_label_rates(self):
        train = lines_of("p q r s t")
        test = [
            LabeledLine("eng", "p q r s t"),
            LabeledLine("eng", "zz yy xx ww vv"),
            LabeledLine("deu", "no overlap here at all"),
        ]
        assert contamination_rate(test, train) == {"deu": 0.0, "eng": 0.5}


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert stats.per_label_counts == {} and stats.total == 0

    def test_counts(self):
        lines = lines_of("a b", "c d", "e f") + lines_of("g h", "i j", label="deu")
        stats = corpus_stats(lines)
        assert stats.per_label_counts == {"eng": 3, "deu": 2}
        assert stats.total == 5

    def test_matches_counter_oracle(self):
        rng = random.Random(7)
        lines = [
            LabeledLine(rng.choice("abcde"), f"text {i}") for i in range(10000)
        ]
        stats = corpus_stats(lines)
        assert stats.per_label_counts == dict(Counter(l.label for l in lines))


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "corpus.txt")
        lines = [LabeledLine("eng", "hello world"), LabeledLine("fra", "bonjour monde")]
        write_corpus(lines, path)
        assert read_corpus(path) == lines

    def test_rejects_missing_prefix(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("__label__eng fine\nnot labeled\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2"):
            read_corpus(str(path))

    def test_a_line_ends_only_at_newline(self, tmp_path):
        path = tmp_path / "cr.txt"
        path.write_bytes(b"__label__aaa xx yy\r zz\n__label__bbb ww\r\n")
        assert read_corpus(str(path)) == [LabeledLine("aaa", "xx yy\r zz"),
                                          LabeledLine("bbb", "ww")]

    def test_rejects_label_without_text(self):
        with pytest.raises(FormatError):
            parse_corpus_line("__label__eng", 1)
        with pytest.raises(FormatError):
            parse_corpus_line("__label__ text", 1)

    def test_write_label_tsv_sorted(self):
        import io

        buf = io.StringIO()
        write_label_tsv(buf, {"zzz": 1, "aaa": 0.5})
        assert buf.getvalue() == "aaa\t0.5\nzzz\t1\n"
