"""The array decision path against the per-label dict code it replaced.

The oracle below is the dict implementation of ``rollup`` and ``decide``
and the base-set ranking ``lidkit predict`` used before the array path.
Every result must match it bit for bit, on distributions built to have
exact ties, zero probabilities, macrolanguages that are not model labels
and base sets smaller than k.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidkit.decision import Decider, DecisionConfig, LanguageHierarchy, decide, rollup
from lidkit.errors import EmptyScope
from lidkit.features import FeatureConfig, Vocabulary
from lidkit.model import (
    LINE_BLOCK,
    UNDETERMINED,
    LidModel,
    PredictionDist,
    TrainConfig,
    top_k,
)

# --- oracle ------------------------------------------------------------------


def oracle_decide(dist: PredictionDist, config: DecisionConfig) -> str:
    best_label: str | None = None
    best_p = -1.0
    for label in sorted(config.base_set):
        try:
            p = dist.probs[label]
        except KeyError:
            raise ValueError(f"base set label {label!r} not in distribution") from None
        if p > best_p:
            best_label, best_p = label, p
    if best_p < config.theta:
        return UNDETERMINED
    assert best_label is not None
    return best_label


def oracle_rollup(dist: PredictionDist, hierarchy: LanguageHierarchy) -> PredictionDist:
    probs = dist.probs
    varieties: dict[str, list[str]] = {}
    for label in probs:
        macro = hierarchy.macro_of.get(label)
        if macro is not None:
            varieties.setdefault(macro, []).append(label)
    out_labels = set(varieties)
    out_labels.update(l for l in probs if l not in hierarchy.macro_of)
    out: dict[str, float] = {}
    for label in sorted(out_labels):
        acc = probs.get(label, 0.0)
        for v in sorted(varieties.get(label, ())):
            acc += probs[v]
        out[label] = acc
    return PredictionDist(out)


def oracle_rank(dist, hierarchy, config, k):
    """The base-set ranking of `lidkit predict` before the array path."""
    if hierarchy is not None:
        dist = oracle_rollup(dist, hierarchy)
    ranked = sorted(
        ((l, dist.probs[l]) for l in config.base_set), key=lambda lp: (-lp[1], lp[0])
    )
    top = oracle_decide(dist, config)
    return [(top, ranked[0][1])] + ranked[1:k]


# --- strategies ----------------------------------------------------------------

LABEL = st.text(alphabet="abcd", min_size=1, max_size=2)


def draw_probs(draw, n: int) -> np.ndarray:
    """A distribution over n labels with exact ties and zeros."""
    # small integer weights give exact ties, zeros and tied rollup sums
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    if draw(st.booleans()):
        return np.array(weights, dtype=np.float64) / sum(weights)
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    raw[np.array(weights) == 0] = 0.0
    return raw / raw.sum() if raw.sum() > 0 else np.array(weights, dtype=np.float64) / sum(weights)


@st.composite
def cases(draw):
    """A sorted label set, a distribution over it with ties and zeros, a
    flat hierarchy, a base set, k and theta."""
    labels = sorted(draw(st.sets(LABEL, min_size=1, max_size=9)))
    p = draw_probs(draw, len(labels))
    hierarchy = None
    if draw(st.booleans()):
        varieties = draw(st.sets(st.sampled_from(labels), max_size=len(labels) - 1))
        # macrolanguages: model labels that are not varieties, or names the
        # model does not know
        pool = [l for l in labels if l not in varieties] + ["x1", "x2"]
        hierarchy = LanguageHierarchy({v: draw(st.sampled_from(pool)) for v in sorted(varieties)})
    universe = {hierarchy.macro_of.get(l, l) for l in labels} if hierarchy else set(labels)
    base = draw(st.one_of(
        st.none(),
        st.sets(st.sampled_from(sorted(universe)), min_size=1) | st.just({"zz"} | universe),
    ))
    k = draw(st.integers(1, len(universe) + 2))
    values = sorted(set(p.tolist()))
    theta = draw(st.one_of(st.sampled_from([0.0, 1.0] + values), st.floats(0.0, 1.0)))
    return labels, p, hierarchy, base, k, theta


def tiny_model(labels) -> LidModel:
    vocab = Vocabulary((), {}, tuple(labels))
    emb = np.zeros((4, 2), dtype=np.float32)
    out = np.zeros((len(labels), 2), dtype=np.float32)
    return LidModel(vocab, FeatureConfig(bucket=4), TrainConfig(dim=2), emb, out)


def hexed(pairs):
    return [(label, float(p).hex()) for label, p in pairs]


# --- properties --------------------------------------------------------------------


@settings(max_examples=400)
@given(cases())
@example((["aa", "bb", "cc"], np.array([0.25, 0.375, 0.375]), None, None, 1, 0.0))  # k = 1, tied
# a hierarchy that folds no model label, and no base set: no plan
@example((["aa", "bb"], np.array([0.5, 0.5]), LanguageHierarchy({"cc": "zz"}), None, 2, 0.5))
# a base set of macrolanguages that are no model labels, tied after the fold
@example((["aa", "bb", "cc"], np.array([0.5, 0.25, 0.25]),
          LanguageHierarchy({"bb": "x1", "cc": "x2"}), {"x1", "x2"}, 3, 0.25))
def test_decider_matches_oracle_bit_for_bit(case):
    labels, p, hierarchy, base, k, theta = case
    universe = {hierarchy.macro_of.get(l, l) for l in labels} if hierarchy else labels
    config = DecisionConfig.for_model(universe, theta, base)  # the oracle's own scope
    decider = Decider(tiny_model(labels), theta, base, hierarchy)
    dist = PredictionDist(dict(zip(labels, p.tolist())))
    expected = oracle_rank(dist, hierarchy, config, k)
    assert hexed(decider.rank_probs(p, k)) == hexed(expected)
    assert decider.rank_probs(p, 1)[0][0] == expected[0][0]
    assert decider.und == 2 * (expected[0][0] == UNDETERMINED)


@settings(max_examples=400)
@given(cases(), st.randoms(use_true_random=False))
def test_adapters_match_oracle_bit_for_bit(case, rnd):
    labels, p, hierarchy, base, _, theta = case
    items = list(zip(labels, p.tolist()))
    rnd.shuffle(items)  # the adapters must not rely on key order
    dist = PredictionDist(dict(items))
    if hierarchy is not None:
        got, want = rollup(dist, hierarchy), oracle_rollup(dist, hierarchy)
        assert list(got.probs) == list(want.probs)
        assert hexed(got.probs.items()) == hexed(want.probs.items())
        dist = want
    keys = set(dist.probs)
    config = DecisionConfig(frozenset((base or set()) & keys or keys), theta)
    assert decide(dist, config) == oracle_decide(dist, config)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.integers(1, 35))
@example([2], 3)  # k > n, the last three with ties
@example([1, 1], 5)
@example([0, 3, 3], 4)
@example([1, 3, 3, 0, 3, 1, 1], 9)
def test_top_k_is_a_stable_full_sort(weights, k):
    p = np.array(weights, dtype=np.float64)
    want = sorted(range(len(p)), key=lambda i: (-p[i], i))[:k]
    assert top_k(p, k).tolist() == want


@st.composite
def block_cases(draw):
    """A case, the rows of a block of lines and which lines have features,
    split into the scorer's blocks."""
    labels, p, hierarchy, base, k, theta = draw(cases())
    rows = [p] + [draw_probs(draw, len(labels)) for _ in range(draw(st.integers(0, 11)))]
    has = draw(st.permutations([True] * len(rows) + [False] * draw(st.integers(0, 4))))
    size = draw(st.integers(1, len(has)))
    blocks, seen = [], 0
    for start in range(0, len(has), size):
        part = np.array(has[start : start + size])
        blocks.append((part, np.array(rows[seen : seen + part.sum()]).reshape(-1, len(labels))))
        seen += part.sum()
    return labels, rows, hierarchy, base, k, theta, blocks


@settings(max_examples=300)
@given(block_cases())
def test_batches_decide_and_rank_rows_as_single_rows(case):
    labels, rows, hierarchy, base, k, theta, blocks = case
    single, ranked, decided = (Decider(tiny_model(labels), theta, base, hierarchy)
                               for _ in range(3))
    for decider in (ranked, decided):
        decider._scorer.iter_blocks = lambda texts: iter(blocks)
    n = sum(len(has) for has, _ in blocks)
    missing = n - len(rows)
    rows = iter(rows)
    want = [hexed(single.rank_probs(next(rows), k) if h else [(UNDETERMINED, 1.0)])
            for has, _ in blocks for h in has]
    assert [hexed(pairs) for pairs in ranked.rank_batch([""] * n, k)] == want
    assert decided.decide_batch([""] * n) == [pairs[0][0] for pairs in want]
    for decider in (ranked, decided):
        assert (decider.lines, decider.no_feature, decider.und) == (
            n, missing, single.und + missing)


@given(st.lists(st.lists(st.integers(0, 3), min_size=12, max_size=12), min_size=1, max_size=8),
       st.integers(1, 30), st.integers(1, 14))
@example([[2] * 12, [0] * 12], 1, 3)  # k > n, with ties across and within rows
@example([[1, 1] + [0] * 10, [0, 1] + [0] * 10], 2, 5)
@example([[0, 3, 3] + [0] * 9, [3, 3, 3] + [0] * 9], 3, 4)
@example([[1, 3, 3, 0, 3, 1, 1] + [2] * 5, [0, 0, 0, 1, 0, 0, 0] + [2] * 5], 7, 14)
def test_top_k_of_a_block_is_each_row_stable_full_sort(weights, n, k):
    p = np.array(weights, dtype=np.float64)[:, : min(n, 12)]
    want = [sorted(range(p.shape[1]), key=lambda i: (-row[i], i))[:k] for row in p]
    assert top_k(p, k).tolist() == want


@given(st.integers(1, 12).flatmap(
           lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                              min_size=1, max_size=8)),
       st.booleans(), st.integers(1, 15))
@example([[2, 2]], True, 3)  # one row, k > n
@example([[0, 3, 3], [3, 3, 3]], False, 3)  # k = n, with ties across and within rows
@example([[1, 0, 0, 1]], False, 1)  # k = 1, tied at both ends
def test_top_k_leaves_its_input_as_it_was(weights, one_row, k):
    p = np.array(weights, dtype=np.float64) / 3
    if one_row:
        p = p[0]
    before = p.tobytes()
    want = [sorted(range(len(row)), key=lambda i: (-row[i], i))[:k] for row in np.atleast_2d(p)]
    got = top_k(p, k)
    assert got.ndim == p.ndim
    assert np.atleast_2d(got).tolist() == want
    assert p.tobytes() == before


def test_ranking_read_only_probabilities():
    labels = ["aa", "bb", "cc"]
    hierarchy = LanguageHierarchy({"cc": "zz"})
    for decider in (Decider(tiny_model(labels), 0.3),
                    Decider(tiny_model(labels), 0.3, {"aa", "bb", "zz"}, hierarchy)):
        p = np.array([0.25, 0.375, 0.375])
        frozen = p.copy()
        frozen.setflags(write=False)
        for k in (1, 2, 3):
            assert hexed(decider.rank_probs(frozen, k)) == hexed(decider.rank_probs(p.copy(), k))


def test_exact_tie_goes_to_the_smaller_label():
    labels = ["aa", "bb", "cc"]
    decider = Decider(tiny_model(labels), 0.0)
    p = np.array([0.25, 0.375, 0.375])
    assert decider.rank_probs(p, 3) == [("bb", 0.375), ("cc", 0.375), ("aa", 0.25)]


def test_tie_made_by_rollup_goes_to_the_smaller_macro():
    # cc's mass lands on the unknown macro "zz", tying it with "aa"
    labels = ["aa", "bb", "cc"]
    hierarchy = LanguageHierarchy({"cc": "zz"})
    decider = Decider(tiny_model(labels), 0.0, {"aa", "bb", "zz"}, hierarchy)
    assert decider.rank_probs(np.array([0.5, 0.0, 0.5]), 5) == [
        ("aa", 0.5), ("zz", 0.5), ("bb", 0.0)]


def test_scope_is_the_rolled_up_labels_in_the_base_set():
    # qq is no label, cc folds into zz, and zz is a label only through the
    # hierarchy
    labels = ["aa", "bb", "cc"]
    hierarchy = LanguageHierarchy({"cc": "zz"})
    decider = Decider(tiny_model(labels), 0.0, {"aa", "cc", "qq", "zz"}, hierarchy)
    assert decider.rank_probs(np.array([0.2, 0.5, 0.3]), 5) == [("zz", 0.3), ("aa", 0.2)]
    # cc is a model label, but a variety; qq no label
    with pytest.raises(EmptyScope, match="with the model's labels after the rollup$"):
        Decider(tiny_model(labels), 0.0, {"cc", "qq"}, hierarchy)
    with pytest.raises(EmptyScope, match="with the model$"):  # zz is no label without the hierarchy
        Decider(tiny_model(labels), 0.0, {"zz", "qq"})


def test_counts_lines_without_features_as_undetermined():
    labels = ["aa", "bb"]
    decider = Decider(tiny_model(labels), 0.0)
    assert decider.rank_batch([""], 2)[0] == [(UNDETERMINED, 1.0)]
    assert decider.decide_batch(["   "]) == [UNDETERMINED]
    assert (decider.lines, decider.no_feature, decider.und) == (2, 2, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_rejected_before_any_line_is_counted(k):
    labels = ["aa", "bb"]
    decider = Decider(tiny_model(labels), 0.0)
    for call in (lambda: decider.rank_batch(["", "x"], k),
                 lambda: decider.rank_batch(["x"], k)[0],
                 lambda: decider.rank_probs(np.array([0.5, 0.5]), k)):
        with pytest.raises(ValueError, match="k must be >= 1"):
            call()
    assert (decider.lines, decider.no_feature, decider.und) == (0, 0, 0)


@pytest.mark.parametrize("size", [1, 7, 40])
def test_batches_decide_and_rank_as_single_lines(size):
    rng = np.random.default_rng(3)
    labels = ["aa", "bb", "cc", "dd"]
    words = (("xy", 2), ("z", 1))
    vocab = Vocabulary(words, {"xy": 0, "z": 1}, tuple(labels))
    model = LidModel(vocab, FeatureConfig(min_count=1, word_ngrams=2, bucket=50),
                     TrainConfig(dim=3), rng.normal(size=(52, 3)).astype(np.float32),
                     rng.normal(size=(4, 3)).astype(np.float32))
    texts = [" ".join(rng.choice(["xy", "z", "q́", "\U0001F600w", "xy"], size=n))
             for n in rng.integers(0, 5, size=40)]
    hierarchy = LanguageHierarchy({"cc": "aa"})
    single, batched = (Decider(model, 0.3, {"aa", "bb", "dd"}, hierarchy) for _ in range(2))
    want = ([hexed(single.rank_batch([t], 2)[0]) for t in texts]
            + [single.rank_batch([t], 1)[0][0][0] for t in texts])
    chunks = [texts[i : i + size] for i in range(0, len(texts), size)]
    got = [hexed(pairs) for chunk in chunks for pairs in batched.rank_batch(chunk, 2)]
    got += [label for chunk in chunks for label in batched.decide_batch(chunk)]
    assert got == want
    assert (batched.lines, batched.no_feature, batched.und) == (
        single.lines, single.no_feature, single.und)
    assert single.no_feature > 0


def test_scoring_reuses_its_arrays_across_blocks():
    """tracemalloc sees numpy's buffers.  Building a Decider for a
    1,601-label model and ranking one line allocates a few label-sized rows,
    not a block of them; a warm Decider scores a block in far less than one
    block of float64 logits, and more blocks add only what their lines'
    features and results take.  `clean`'s Decider, with neither base set
    nor hierarchy, holds no label-sized block beside the probabilities."""
    labels = tuple(f"l{i:04d}" for i in range(1601))
    rng = np.random.default_rng(5)
    words = (("w0", 1), ("w1", 1), ("w2", 1))
    model = LidModel(Vocabulary(words, {"w0": 0, "w1": 1, "w2": 2}, labels),
                     FeatureConfig(min_count=1, bucket=50, minn=2, maxn=3), TrainConfig(dim=4),
                     rng.normal(size=(53, 4)).astype(np.float32),
                     rng.normal(size=(len(labels), 4)).astype(np.float32))
    hierarchy = LanguageHierarchy({labels[100 + v]: labels[v // 3] for v in range(300)})
    base = sorted({hierarchy.macro_of.get(l, l) for l in labels})[::2]
    row = 8 * len(labels)  # bytes of one float64 row of logits

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a Decider and its first line: buffers sized at construction would
    # take LINE_BLOCK rows each
    assert peak(lambda: Decider(model, 0.5, base, hierarchy).rank_batch(["w0 w1"], 3)) < 32 * row
    decider = Decider(model, 0.5, base, hierarchy)
    texts = ["w0 w1 w2", "w1", "", "w2 w2"] * (LINE_BLOCK // 4)
    decider.rank_batch(texts, 3)
    one, four = (peak(lambda: decider.rank_batch(texts * n, 3)) for n in (1, 4))
    assert one < LINE_BLOCK * row / 4
    assert four - one < 3 * LINE_BLOCK * 1024
    # neither a copy of them as base-set columns nor top-k's partition scratch
    plain = Decider(model, 0.5)
    assert peak(lambda: plain.decide_batch(texts)) < LINE_BLOCK * row


def test_a_base_set_is_taken_without_a_block_of_every_rolled_up_label():
    """The plan writes the base set's columns straight from the model's:
    beside the Scorer's block of logits, the first rank_batch of a full
    block holds less than half a block of the 1,301 rolled-up labels."""
    labels = tuple(f"l{i:04d}" for i in range(1601))
    rng = np.random.default_rng(5)
    words = (("w0", 1), ("w1", 1), ("w2", 1))
    model = LidModel(Vocabulary(words, {"w0": 0, "w1": 1, "w2": 2}, labels),
                     FeatureConfig(min_count=1, bucket=50, minn=2, maxn=3), TrainConfig(dim=4),
                     rng.normal(size=(53, 4)).astype(np.float32),
                     rng.normal(size=(len(labels), 4)).astype(np.float32))
    hierarchy = LanguageHierarchy({labels[100 + v]: labels[v // 3] for v in range(300)})
    rolled = sorted({hierarchy.macro_of.get(l, l) for l in labels})
    base = rolled[::131]
    assert (len(rolled), len(base)) == (1301, 10)
    decider = Decider(model, 0.5, base, hierarchy)
    texts = ["w0 w1 w2", "w1", "w2 w2", "w0"] * (LINE_BLOCK // 4)
    tracemalloc.start()
    try:
        decider.rank_batch(texts, 3)
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < LINE_BLOCK * 8 * (len(labels) + len(rolled) // 2)


def test_ranking_more_than_one_label_holds_no_second_scope_block():
    """top-k ranks the scope's columns in place: the first rank_batch of a
    full block at k = 3 peaks less than a quarter of a block of the scope's
    651 labels above the same call at k = 1."""
    labels = tuple(f"l{i:04d}" for i in range(1601))
    rng = np.random.default_rng(5)
    words = (("w0", 1), ("w1", 1), ("w2", 1))
    model = LidModel(Vocabulary(words, {"w0": 0, "w1": 1, "w2": 2}, labels),
                     FeatureConfig(min_count=1, bucket=50, minn=2, maxn=3), TrainConfig(dim=4),
                     rng.normal(size=(53, 4)).astype(np.float32),
                     rng.normal(size=(len(labels), 4)).astype(np.float32))
    hierarchy = LanguageHierarchy({labels[100 + v]: labels[v // 3] for v in range(300)})
    rolled = sorted({hierarchy.macro_of.get(l, l) for l in labels})
    base = rolled[::2]
    assert len(base) == 651
    texts = ["w0 w1 w2", "w1", "w2 w2", "w0"] * (LINE_BLOCK // 4)

    def peak(k):
        decider = Decider(model, 0.5, base, hierarchy)
        tracemalloc.start()
        try:
            decider.rank_batch(texts, k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(3) - peak(1) < LINE_BLOCK * 8 * len(base) / 4
