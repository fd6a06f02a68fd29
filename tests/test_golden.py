"""Golden outputs of `predict` and `clean`, compared byte for byte.

A small model is trained here from a seeded corpus, then `predict` and
`clean` run over a fixed input under several flag sets.  Every printed
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
import sys
import tempfile
from typing import Sequence

import pytest

from lidkit.cli import main

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


def _write_goldens() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as root:
        paths = write_inputs(root)
        outputs = {"model.sha256": model_digest(paths)}
        for case in PREDICT_CASES:
            outputs[case + ".tsv"] = predict_output(paths, case)[0]
        for case in CLEAN_CASES:
            outputs[case + ".txt"] = clean_output(paths, case, os.path.join(root, case))[0]
    for name, text in outputs.items():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    _write_goldens()
