"""Golden outputs of `predict` and `clean`, compared byte for byte.

A small model is trained here from a seeded corpus, then `predict` and
`clean` run over a fixed input under several flag sets.  A second model,
trained with word bigrams on text with astral characters and combining
marks, runs `predict -k 3` and `clean` over about 2,100 lines: more than
two of the CLI's input chunks.  A third, planted model has 257 labels and
dim 40, so its output layer spans more than one row block of the scorer
(257 is one more than a multiple of 128); it runs `predict -k 3` with a
hierarchy, a base set and a threshold, and `clean`, over about 1,300
lines.  A fourth model, trained with word bigrams for two epochs over
about 6,600 lines of unbalanced labels, pins only its digest: its run
draws its training steps in several chunks.  Every printed
probability is a float repr, so the goldens pin the decision path bit for
bit: label order, tie breaks, the rollup summation order and the
probability printed on an `und` row.

The goldens hold exact BLAS results.  If the model digest check fails, the
platform trained a different model and the goldens do not apply to it.
Regenerate them, only for an intended output change and saying so in
CHANGES.md, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from typing import Sequence

import numpy as np
import pytest

import lidkit
from lidkit.cli import main
from lidkit.features import FeatureConfig, Vocabulary
from lidkit.model import LidModel, TrainConfig, save_model

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
LABELS = ["aaa", "bbb", "ccc", "ddd", "eee", "fff"]

# bbb folds into a macrolanguage the model knows; ccc and ddd into one it
# does not; fff is outside the hierarchy
HIERARCHY = "bbb\taaa\nccc\tzzz\nddd\tzzz\neee\tyyy\n"
# rolled up, the base set is {aaa, zzz}: smaller than -k 3; qqq is unknown
BASE_ROLLED = "aaa\nzzz\nqqq\n"
BASE_RAW = "aaa\nccc\n"

PREDICT_CASES = {
    "predict_default": [],
    "predict_k3": ["-k", "3"],
    "predict_theta": ["-theta", "0.6", "-k", "2"],
    "predict_hierarchy": ["-hierarchy", "{hierarchy}", "-k", "3"],
    "predict_base_set": ["-base-set", "{base_raw}", "-k", "3", "-theta", "0.3"],
    "predict_all": ["-hierarchy", "{hierarchy}", "-base-set", "{base_rolled}",
                    "-k", "3", "-theta", "0.5"],
}
CLEAN_CASES = {
    "clean_default": [],
    "clean_theta": ["-theta", "0.6"],
}

# the word-bigram set: (golden file, subcommand, flags)
BIGRAM_CASES = {
    "bigram_predict_k3.tsv": ("predict", ["-k", "3"]),
    "bigram_clean.txt": ("clean", []),
}
BIGRAM_LINES = 2100

# the planted set: (golden file, subcommand, flags)
PLANTED_CASES = {
    "planted_predict_k3.tsv": ("predict", ["-k", "3", "-hierarchy", "{hierarchy}",
                                           "-base-set", "{base_set}", "-theta", "0.3"]),
    "planted_clean.txt": ("clean", ["-theta", "0.3"]),
}
# the chunked set: training lines per label, unbalanced so that the
# language draws are far from uniform; two epochs of them are more than
# three draw chunks (model.DRAW_CHUNK steps), and an epoch ends inside one
CHUNKED_COUNTS = {"aaa": 2600, "bbb": 1700, "ccc": 1000, "ddd": 650, "eee": 450, "fff": 200}

PLANTED_LABELS = [f"p{i:03d}" for i in range(257)]
PLANTED_DIM = 40
PLANTED_LINES = 1300


def _lexicons(rng: random.Random) -> dict[str, list[str]]:
    # neighbouring labels share half their alphabet, so the model is unsure
    # between them and the distributions are far from one-hot
    out = {}
    for i, label in enumerate(LABELS):
        alphabet = [chr(0x4E00 + 10 * i + j) for j in range(20)]
        out[label] = ["".join(rng.choices(alphabet, k=rng.randint(2, 4))) for _ in range(25)]
    return out


def write_inputs(root: str) -> dict[str, str]:
    """Write the corpus, the input lines and the label files under root."""
    rng = random.Random(20231025)
    lex = _lexicons(rng)
    paths = {name: os.path.join(root, name + ext) for name, ext in (
        ("corpus", ".txt"), ("input", ".txt"), ("hierarchy", ".tsv"),
        ("base_rolled", ".txt"), ("base_raw", ".txt"))}
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for label in LABELS:
            for _ in range(40):
                fh.write(f"__label__{label} {' '.join(rng.choices(lex[label], k=rng.randint(2, 6)))}\n")
    lines = []
    for label in LABELS:
        lines += [" ".join(rng.choices(lex[label], k=rng.randint(1, 4))) for _ in range(3)]
    for a, b in zip(LABELS, LABELS[1:] + LABELS[:1]):
        lines.append(" ".join(rng.choices(lex[a], k=2) + rng.choices(lex[b], k=2)))
    # no features at all; then text in no training alphabet
    lines += ["", "   ", "hello world", "été x"]
    with open(paths["input"], "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    for name, text in (("hierarchy", HIERARCHY), ("base_rolled", BASE_ROLLED),
                       ("base_raw", BASE_RAW)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    paths["model"] = os.path.join(root, "model.bin")
    rc = run(["train", "-input", paths["corpus"], "-output", paths["model"],
              "-minCount", "1", "-bucket", "2000", "-dim", "8", "-epoch", "5",
              "-lr", "1.0", "-seed", "5"])[0]
    assert rc == 0
    return paths


def _bigram_lexicons(rng: random.Random) -> dict[str, list[str]]:
    # alphabets mix astral emoji (from U+1F600) and musical symbols (from
    # U+1D11E), Latin letters and the combining acute U+0301, which may start
    # a word; neighbouring labels share half their alphabet
    pool = ([chr(0x1F600 + j) for j in range(24)] + [chr(0x1D11E + j) for j in range(24)]
            + [chr(0x61 + j) for j in range(24)])
    out = {}
    for i, label in enumerate(LABELS):
        alphabet = pool[12 * i : 12 * i + 24] + ["\u0301"]
        out[label] = ["".join(rng.choices(alphabet, k=rng.randint(1, 5))) for _ in range(25)]
    return out


def write_bigram_inputs(root: str) -> dict[str, str]:
    """Write the word-bigram corpus and input lines under root; train its model."""
    rng = random.Random(20231026)
    lex = _bigram_lexicons(rng)
    paths = {"corpus": os.path.join(root, "corpus.txt"),
             "input": os.path.join(root, "input.txt"),
             "model": os.path.join(root, "model.bin")}
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for label in LABELS:
            for _ in range(40):
                fh.write(f"__label__{label} {' '.join(rng.choices(lex[label], k=rng.randint(2, 6)))}\n")
    lines = []
    for _ in range(BIGRAM_LINES):
        kind = rng.random()
        if kind < 0.04:
            lines.append(rng.choice(["", "  ", "\t"]))
            continue
        a, b = rng.sample(LABELS, 2)
        words = rng.choices(lex[a], k=rng.randint(1, 5))
        if kind < 0.4:
            words += rng.choices(lex[b], k=rng.randint(1, 3))
        if kind > 0.7:
            # a token repeated within the line, next to itself or apart
            words.insert(rng.randint(0, len(words)), rng.choice(words))
        lines.append(" ".join(words))
    with open(paths["input"], "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    rc = run(["train", "-input", paths["corpus"], "-output", paths["model"],
              "-minCount", "2", "-wordNgrams", "2", "-bucket", "3000", "-dim", "8",
              "-epoch", "4", "-lr", "0.5", "-seed", "9"])[0]
    assert rc == 0
    return paths


def write_chunked_inputs(root: str) -> dict[str, str]:
    """Write the chunked corpus under root and train its model: word bigrams,
    dim 8, two epochs of about 6,600 steps each."""
    rng = random.Random(20231028)
    lex = _lexicons(rng)
    rows = [f"__label__{label} {' '.join(rng.choices(lex[label], k=rng.randint(1, 6)))}\n"
            for label, n in CHUNKED_COUNTS.items() for _ in range(n)]
    rng.shuffle(rows)
    paths = {"corpus": os.path.join(root, "corpus.txt"), "model": os.path.join(root, "model.bin")}
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        fh.write("".join(rows))
    rc = run(["train", "-input", paths["corpus"], "-output", paths["model"],
              "-minCount", "2", "-wordNgrams", "2", "-bucket", "4000", "-dim", "8",
              "-epoch", "2", "-lr", "0.5", "-seed", "13"])[0]
    assert rc == 0
    return paths


def write_planted_inputs(root: str) -> dict[str, str]:
    """Write the planted model, its hierarchy, base set and input lines under root.

    Each label owns four words whose embeddings point along the label's
    output row; n-gram rows are noise.  A line of one label's words puts
    about half the mass on it and spreads the rest over the other 256.
    """
    rng = random.Random(20231027)
    nrng = np.random.default_rng(20231027)
    labels, dim = PLANTED_LABELS, PLANTED_DIM
    letters = "abcdefghijklmnopqrstuvwxyzäöüß"
    words = sorted({"".join(rng.choices(letters, k=rng.randint(3, 7)))
                    for _ in range(5 * len(labels))})
    rng.shuffle(words)
    lexicon = [words[4 * i : 4 * i + 4] for i in range(len(labels))]
    vocab_words = sorted(w for lex in lexicon for w in lex)
    word_id = {w: i for i, w in enumerate(vocab_words)}
    config = FeatureConfig(min_count=1, bucket=3000)
    u = nrng.standard_normal((len(labels), dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    emb = (0.1 * nrng.standard_normal((len(vocab_words) + config.bucket, dim))).astype(np.float32)
    for li, lex in enumerate(lexicon):
        for w in lex:
            emb[word_id[w]] += (30.0 * u[li]).astype(np.float32)
    out = (4.0 * u).astype(np.float32)
    vocab = Vocabulary(tuple((w, 1) for w in vocab_words), word_id, tuple(labels))
    paths = {name: os.path.join(root, name + ext) for name, ext in (
        ("model", ".bin"), ("input", ".txt"), ("hierarchy", ".tsv"), ("base_set", ".txt"))}
    save_model(LidModel(vocab, config, TrainConfig(dim=dim, seed=1), emb, out), paths["model"])

    # p200..p239 fold two by two into p000..p019, p240..p256 into macros
    # the model does not know
    macro_of = {labels[200 + i]: labels[i // 2] for i in range(40)}
    macro_of.update({labels[240 + i]: f"zz{i % 5}" for i in range(17)})
    rolled = sorted({macro_of.get(l, l) for l in labels})
    base = [l for l in rolled if rng.random() < 0.7] + ["qqq"]
    with open(paths["hierarchy"], "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v}\t{m}\n" for v, m in sorted(macro_of.items())))
    with open(paths["base_set"], "w", encoding="utf-8") as fh:
        fh.write("".join(l + "\n" for l in base))

    lines = []
    for _ in range(PLANTED_LINES):
        kind = rng.random()
        if kind < 0.04:
            lines.append(rng.choice(["", "  ", "\t"]))
            continue
        a, b = rng.sample(range(len(labels)), 2)
        line = rng.choices(lexicon[a], k=rng.randint(1, 5))
        if kind < 0.35:
            line += rng.choices(lexicon[b], k=rng.randint(1, 3))
        if kind > 0.9:
            # a word no label owns: only its n-grams count
            line.append("".join(rng.choices(letters, k=rng.randint(2, 6))))
        lines.append(" ".join(line))
    with open(paths["input"], "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return paths


def routed_output(paths: dict[str, str], command: str, flags: Sequence[str],
                  out_dir: str) -> str:
    """The output of one command over paths["input"]; for clean, the stdout
    followed by every routed file under a '--- name' header."""
    argv = [command, "-model", paths["model"], "-input", paths["input"],
            *(a.format(**paths) for a in flags)]
    if command == "clean":
        argv += ["-out-dir", out_dir]
    rc, out, _ = run(argv)
    assert rc == 0
    parts = [out]
    if command == "clean":
        for routed in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, routed), encoding="utf-8") as fh:
                parts.append(f"--- {routed}\n{fh.read()}")
    return "".join(parts)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def predict_output(paths: dict[str, str], case: str, extra: Sequence[str] = ()) -> tuple[str, str]:
    """The predict stdout and stderr."""
    flags = [a.format(**paths) for a in PREDICT_CASES[case]]
    rc, out, err = run(["predict", "-model", paths["model"], "-input", paths["input"],
                        *flags, *extra])
    assert rc == 0
    return out, err


def clean_output(paths: dict[str, str], case: str, out_dir: str,
                 extra: Sequence[str] = ()) -> tuple[str, str]:
    """The clean stdout followed by every routed file under a '--- name'
    header, and the stderr."""
    rc, out, err = run(["clean", "-model", paths["model"], "-input", paths["input"],
                        "-out-dir", out_dir, *CLEAN_CASES[case], *extra])
    assert rc == 0
    parts = [out]
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            parts.append(f"--- {name}\n{fh.read()}")
    return "".join(parts), err


def model_digest(paths: dict[str, str]) -> str:
    with open(paths["model"], "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest() + "\n"


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    paths = write_inputs(str(tmp_path_factory.mktemp("golden")))
    assert model_digest(paths) == golden("model.sha256"), "model differs from the goldens' model"
    return paths


@pytest.fixture(scope="module")
def bigram_paths(tmp_path_factory):
    paths = write_bigram_inputs(str(tmp_path_factory.mktemp("bigram")))
    assert model_digest(paths) == golden("bigram_model.sha256"), \
        "model differs from the goldens' model"
    return paths


@pytest.fixture(scope="module")
def planted_paths(tmp_path_factory):
    paths = write_planted_inputs(str(tmp_path_factory.mktemp("planted")))
    assert model_digest(paths) == golden("planted_model.sha256"), \
        "model differs from the goldens' model"
    return paths


def input_lines(paths: dict[str, str]) -> list[str]:
    with open(paths["input"], encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_stats(err: str, lines: list[str], decisions: list[str]) -> None:
    stats = json.loads(err)
    no_feature = sum(not line.split() for line in lines)
    assert {k: stats[k] for k in ("lines", "no_feature", "und")} == {
        "lines": len(lines), "no_feature": no_feature, "und": decisions.count("und")}
    assert no_feature > 0 and stats["elapsed_s"] > 0 and stats["lines_per_s"] > 0


@pytest.mark.parametrize("case", sorted(PREDICT_CASES))
def test_predict_matches_golden(paths, case):
    assert predict_output(paths, case)[0] == golden(case + ".tsv")


@pytest.mark.parametrize("case", sorted(CLEAN_CASES))
def test_clean_matches_golden(paths, case, tmp_path):
    assert clean_output(paths, case, str(tmp_path / "routed"))[0] == golden(case + ".txt")


@pytest.mark.parametrize("case", ["predict_all", "predict_theta"])
def test_predict_stats_leave_stdout_alone(paths, case):
    out, err = predict_output(paths, case, ["-stats"])
    assert out == golden(case + ".tsv")
    check_stats(err, input_lines(paths), [row.split("\t")[0] for row in out.splitlines()])


def test_clean_stats_leave_output_alone(paths, tmp_path):
    out, err = clean_output(paths, "clean_theta", str(tmp_path / "routed"), ["-stats"])
    assert out == golden("clean_theta.txt")
    und_rows = out.split("--- und.txt\n", 1)[1].splitlines()
    check_stats(err, input_lines(paths), ["und"] * len(und_rows))


@pytest.mark.parametrize("name", sorted(BIGRAM_CASES))
def test_bigram_output_matches_golden(bigram_paths, name, tmp_path):
    got = routed_output(bigram_paths, *BIGRAM_CASES[name], str(tmp_path / "routed"))
    assert got == golden(name)


def test_chunked_model_matches_golden(tmp_path):
    assert 2 * sum(CHUNKED_COUNTS.values()) > 3 * lidkit.model.DRAW_CHUNK
    paths = write_chunked_inputs(str(tmp_path))
    assert model_digest(paths) == golden("chunked_model.sha256")


def test_bigram_input_covers_the_batch_cases(bigram_paths):
    lines = input_lines(bigram_paths)
    text = "".join(lines)
    assert len(lines) > 2 * 1024
    assert all(ch in text for ch in ("\U0001F600", "\U0001D11E", "\u0301"))
    assert any(not line.split() for line in lines)
    assert any(len(set(line.split())) < len(line.split()) for line in lines)


@pytest.mark.parametrize("name", sorted(PLANTED_CASES))
def test_planted_output_matches_golden(planted_paths, name, tmp_path):
    got = routed_output(planted_paths, *PLANTED_CASES[name], str(tmp_path / "routed"))
    assert got == golden(name)


def test_planted_input_covers_the_block_cases(planted_paths):
    lines = input_lines(planted_paths)
    assert len(PLANTED_LABELS) % 128 == 1  # a one-row tail of the output layer
    assert PLANTED_DIM >= 32
    # past the 1,024-line read chunk, and past a 256-line block in the second
    assert len(lines) > 1024 + 256
    assert any(not line.split() for line in lines[:1024])
    assert any(not line.split() for line in lines[1024:])


def test_planted_predict_is_the_same_under_two_blas_threads(planted_paths):
    # a threaded OpenBLAS gemv splits the output layer by rows, so the
    # scorer's row blocks must give the same bits at those splits too
    _, flags = PLANTED_CASES["planted_predict_k3.tsv"]
    argv = [sys.executable, "-m", "lidkit.cli", "predict", "-model", planted_paths["model"],
            "-input", planted_paths["input"], *(a.format(**planted_paths) for a in flags)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(lidkit.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(argv, env=env, capture_output=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].decode("utf-8") == golden("planted_predict_k3.tsv")


def _write_goldens() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as root:
        paths = write_inputs(root)
        outputs = {"model.sha256": model_digest(paths)}
        for case in PREDICT_CASES:
            outputs[case + ".tsv"] = predict_output(paths, case)[0]
        for case in CLEAN_CASES:
            outputs[case + ".txt"] = clean_output(paths, case, os.path.join(root, case))[0]
    with tempfile.TemporaryDirectory() as root:
        paths = write_bigram_inputs(root)
        outputs["bigram_model.sha256"] = model_digest(paths)
        for name in BIGRAM_CASES:
            outputs[name] = routed_output(paths, *BIGRAM_CASES[name],
                                          os.path.join(root, "routed"))
    with tempfile.TemporaryDirectory() as root:
        outputs["chunked_model.sha256"] = model_digest(write_chunked_inputs(root))
    with tempfile.TemporaryDirectory() as root:
        paths = write_planted_inputs(root)
        outputs["planted_model.sha256"] = model_digest(paths)
        for name, (command, flags) in PLANTED_CASES.items():
            outputs[name] = routed_output(paths, command, flags, os.path.join(root, name))
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    _write_goldens()
