import pytest
from hypothesis import given
from hypothesis import strategies as st

from lidkit.decision import (
    DecisionConfig,
    LabelMap,
    LanguageHierarchy,
    decide,
    load_hierarchy,
    load_label_map,
    load_label_set,
    map_labels,
    rollup,
)
from lidkit.errors import EmptyScope, FormatError, UnmappedLabel
from lidkit.model import UNDETERMINED, PredictionDist


def dists(min_size=2, max_size=8):
    """Random probability distributions over short lowercase labels."""
    labels = st.lists(
        st.text(alphabet="abcdefgh", min_size=2, max_size=3),
        min_size=min_size,
        max_size=max_size,
        unique=True,
    )

    def normalize(pair):
        names, raws = pair
        total = sum(raws)
        return PredictionDist({n: r / total for n, r in zip(names, raws)})

    return labels.flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.lists(
                st.floats(0.01, 1.0), min_size=len(names), max_size=len(names)
            ),
        )
    ).map(normalize)


class TestDecide:
    def test_zero_threshold_is_argmax(self):
        dist = PredictionDist({"deu": 0.1, "eng": 0.7, "fra": 0.2})
        cfg = DecisionConfig(frozenset(dist.probs), 0.0)
        assert decide(dist, cfg) == "eng"

    def test_below_threshold_gives_undetermined(self):
        dist = PredictionDist({"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})
        cfg = DecisionConfig(frozenset(dist.probs), 0.5)
        assert decide(dist, cfg) == UNDETERMINED

    def test_restriction_picks_best_inside_base_set(self):
        dist = PredictionDist({"a": 0.5, "b": 0.3, "c": 0.2})
        cfg = DecisionConfig(frozenset({"b", "c"}), 0.25)
        assert decide(dist, cfg) == "b"

    def test_no_renormalization_after_restriction(self):
        # Renormalizing {b: .3, c: .2} would give b -> .6, well over the
        # threshold; raw masses must be compared instead.
        dist = PredictionDist({"a": 0.5, "b": 0.3, "c": 0.2})
        cfg = DecisionConfig(frozenset({"b", "c"}), 0.35)
        assert decide(dist, cfg) == UNDETERMINED

    def test_exact_threshold_is_kept(self):
        dist = PredictionDist({"a": 0.5, "b": 0.5})
        cfg = DecisionConfig(frozenset(dist.probs), 0.5)
        assert decide(dist, cfg) == "a"

    def test_tie_breaks_to_lexicographically_smallest(self):
        dist = PredictionDist({"zzz": 0.4, "mmm": 0.4, "aaa": 0.2})
        cfg = DecisionConfig(frozenset(dist.probs), 0.0)
        assert decide(dist, cfg) == "mmm"

    def test_missing_base_label_rejected(self):
        cfg = DecisionConfig(frozenset({"a", "ghost"}), 0.0)
        with pytest.raises(ValueError):
            decide(PredictionDist({"a": 1.0}), cfg)

    @given(dists(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_threshold_monotone(self, dist, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        base = frozenset(dist.probs)
        got_hi = decide(dist, DecisionConfig(base, hi))
        got_lo = decide(dist, DecisionConfig(base, lo))
        # Raising the threshold can only flip a decision to undetermined.
        if got_hi != UNDETERMINED:
            assert got_lo == got_hi

    @given(dists(min_size=3))
    def test_restricted_winner_agrees_with_manual_max(self, dist):
        names = sorted(dist.probs)
        base = frozenset(names[: len(names) - 1])
        got = decide(dist, DecisionConfig(base, 0.0))
        best = min(base, key=lambda l: (-dist.probs[l], l))
        assert got == best


class TestDecisionConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            DecisionConfig(frozenset(), 0.5)
        with pytest.raises(ValueError):
            DecisionConfig(frozenset({"a"}), -0.1)
        with pytest.raises(ValueError):
            DecisionConfig(frozenset({"a"}), 1.5)

    def test_for_model_without_base_set(self):
        cfg = DecisionConfig.for_model(["b", "a"], 0.3)
        assert cfg.base_set == frozenset({"a", "b"})
        assert cfg.theta == 0.3

    def test_for_model_with_base_set_intersects(self):
        cfg = DecisionConfig.for_model(["a", "b", "c"], 0.1, base_set={"b", "x"})
        assert cfg.base_set == frozenset({"b"})

    def test_for_model_disjoint_base_set(self):
        with pytest.raises(EmptyScope):
            DecisionConfig.for_model(["a", "b"], 0.1, base_set={"x", "y"})


class TestRollup:
    def test_varieties_fold_into_macro(self):
        h = LanguageHierarchy({"twi": "aka", "fat": "aka"})
        dist = PredictionDist({"aka": 0.3, "twi": 0.4, "fat": 0.1, "eng": 0.2})
        out = rollup(dist, h)
        assert out.probs == {"aka": 0.3 + 0.1 + 0.4, "eng": 0.2}

    def test_empty_hierarchy_is_identity(self):
        dist = PredictionDist({"a": 0.6, "b": 0.4})
        assert rollup(dist, LanguageHierarchy({})).probs == dist.probs

    def test_macro_absent_from_input_still_created(self):
        h = LanguageHierarchy({"prs": "fas", "pes": "fas"})
        out = rollup(PredictionDist({"prs": 0.7, "eng": 0.3}), h)
        assert out.probs == {"fas": 0.7, "eng": 0.3}

    def test_unlisted_labels_pass_through(self):
        h = LanguageHierarchy({"twi": "aka"})
        out = rollup(PredictionDist({"deu": 1.0}), h)
        assert out.probs == {"deu": 1.0}

    def test_mass_conserved_exactly(self):
        h = LanguageHierarchy({"twi": "aka", "fat": "aka", "prs": "fas"})
        dist = PredictionDist(
            {"twi": 0.1, "fat": 0.2, "aka": 0.3, "prs": 0.15, "x": 0.25}
        )
        out = rollup(dist, h)
        # Replicate the documented summation order (macrolanguage mass first,
        # then varieties sorted) and demand bit-identical group sums.
        aka = dist.probs["aka"] + dist.probs["fat"] + dist.probs["twi"]
        assert out.probs["aka"] == aka
        assert out.probs["fas"] == dist.probs["prs"]
        assert out.probs["x"] == dist.probs["x"]

    @given(dists(min_size=4))
    def test_output_never_contains_varieties(self, dist):
        names = sorted(dist.probs)
        h = LanguageHierarchy({names[0]: names[-1], names[1]: names[-1]})
        out = rollup(dist, h)
        assert names[0] not in out.probs and names[1] not in out.probs
        assert sum(out.probs.values()) == pytest.approx(
            sum(dist.probs.values()), abs=1e-9
        )

    def test_hierarchy_rejects_label_on_both_sides(self):
        with pytest.raises(ValueError):
            LanguageHierarchy({"a": "b", "b": "c"})

    def test_hierarchy_rejects_und_as_macrolanguage(self):
        with pytest.raises(ValueError, match="'und' is reserved"):
            LanguageHierarchy({"aaa": "und"})


class TestMapLabels:
    def test_consolidates(self):
        m = LabelMap({"pes": "fas", "prs": "fas", "fas": "fas"})
        assert map_labels(["pes", "prs", "fas"], m) == ["fas", "fas", "fas"]

    def test_undetermined_always_passes(self):
        m = LabelMap({})
        assert map_labels([UNDETERMINED], m, strict=True) == [UNDETERMINED]

    def test_strict_rejects_unknown(self):
        m = LabelMap({"a": "b"})
        with pytest.raises(UnmappedLabel):
            map_labels(["zzz"], m, strict=True)

    def test_lenient_passes_unknown_through(self):
        m = LabelMap({"a": "b"})
        assert map_labels(["zzz", "a"], m, strict=False) == ["zzz", "b"]

    @given(st.lists(st.sampled_from(["pes", "prs", "fas", "eng"])))
    def test_idempotent(self, labels):
        m = LabelMap({"pes": "fas", "prs": "fas"})
        once = map_labels(labels, m, strict=False)
        assert map_labels(once, m, strict=False) == once


class TestLoaders:
    def test_hierarchy_file(self, tmp_path):
        p = tmp_path / "h.tsv"
        p.write_text("# variety\tmacro\ntwi\taka\nfat\taka\n\nprs\tfas\n")
        h = load_hierarchy(str(p))
        assert h.macro_of == {"twi": "aka", "fat": "aka", "prs": "fas"}

    def test_hierarchy_file_rejects_two_sided_label(self, tmp_path):
        p = tmp_path / "h.tsv"
        p.write_text("a\tb\nb\tc\n")
        with pytest.raises(FormatError):
            load_hierarchy(str(p))

    def test_label_map_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("pes\tfas\n# comment line\nprs\tfas\n")
        m = load_label_map(str(p))
        assert m.rules == {"pes": "fas", "prs": "fas"}

    def test_duplicate_source_rejected(self, tmp_path):
        p = tmp_path / "dup.tsv"
        p.write_text("pes\tfas\npes\tprs\n")
        with pytest.raises(FormatError) as err:
            load_label_map(str(p))
        assert ":2:" in str(err.value)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("only-one-column\n")
        with pytest.raises(FormatError):
            load_hierarchy(str(p))

    def test_label_set_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("eng\n# skip\ndeu\n\neng\n")
        assert load_label_set(str(p)) == frozenset({"eng", "deu"})

    def test_label_set_rejects_embedded_whitespace(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("two words\n")
        with pytest.raises(FormatError):
            load_label_set(str(p))

    # a lone \r ends no line, as in every other reader
    def test_label_set_keeps_a_lone_carriage_return_inside_its_line(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(b"aaa\rbbb\n")
        with pytest.raises(FormatError, match="label contains whitespace"):
            load_label_set(str(p))

    def test_hierarchy_keeps_a_lone_carriage_return_inside_its_line(self, tmp_path):
        p = tmp_path / "h.tsv"
        p.write_bytes(b"aaa\tccc\rbbb\tccc\n")
        with pytest.raises(FormatError):
            load_hierarchy(str(p))

    def test_crlf_files_load_as_before(self, tmp_path):
        s, h = tmp_path / "s.txt", tmp_path / "h.tsv"
        s.write_bytes(b"eng\r\n# skip\r\n\r\ndeu\r\n")
        h.write_bytes(b"twi\taka\r\nprs\tfas\r\n")
        assert load_label_set(str(s)) == frozenset({"eng", "deu"})
        assert load_hierarchy(str(h)).macro_of == {"twi": "aka", "prs": "fas"}
