"""Output checks behind ``failed``, the quality score, and output digests.

Every checked unit (an output row, a routed line, a train invocation, an
empty-input start) is one attempted operation; it fails when its check
does not hold.  Digests are recorded, not checked: a changed digest between
two result sets is flagged by the comparison, as the golden-file rule asks.
"""

from __future__ import annotations

import hashlib
import os

from gen import UND
from lidkit.evaluation import EvalScope, confusion, f1_macro


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_dir(path: str) -> str:
    """Digest of every file in a directory, by name."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(f"{name}\0{sha256_file(os.path.join(path, name))}\n".encode())
    return h.hexdigest()


def macro_f1(gold: list[str], pred: list[str]) -> float:
    """Macro-F1 over the labels that occur in ``gold`` (abstention excluded)."""
    scope = EvalScope(frozenset(g for g in gold if g != UND))
    return f1_macro(confusion(gold, pred, scope), scope)


def check_predict(
    path: str,
    n_lines: int,
    base_set: frozenset[str],
    k: int,
    expected: dict[int, str],
    tally: Tally,
) -> list[str]:
    """Check a predict TSV; returns the top label of each row.

    Each row must parse, name only base-set labels or und, carry
    probabilities in [0, 1] and hold min(k, |base set|) pairs.  For the
    sampled rows in ``expected`` the top label must match the in-process
    decision.
    """
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    tally.check(len(rows) == n_lines, f"{len(rows)} rows for {n_lines} lines",
                n=max(1, abs(len(rows) - n_lines)))
    pairs = min(k, len(base_set))
    tops: list[str] = []
    for i, row in enumerate(rows):
        fields = row.split("\t")
        ok = len(fields) == 2 * pairs
        labels = fields[0::2]
        ok = ok and (labels[0] in base_set or labels[0] == UND)
        ok = ok and all(l in base_set for l in labels[1:])
        try:
            ok = ok and all(0.0 <= float(p) <= 1.0 for p in fields[1::2])
        except ValueError:
            ok = False
        if i in expected:
            ok = ok and labels[0] == expected[i]
        tally.check(ok, f"row {i}: {row[:120]!r}")
        tops.append(labels[0])
    return tops


def check_clean(
    out_dir: str,
    stdout_path: str,
    texts: list[str],
    labels: frozenset[str],
    expected: dict[int, str],
    tally: Tally,
) -> list[str]:
    """Check a clean run; returns the label each input line was routed to.

    The routed files must hold exactly the input lines, each file in input
    order, under a model label or und; the stdout counts must match the
    files and sum to the input line count; sampled lines must be routed as
    the in-process decision says.
    """
    with open(stdout_path, encoding="utf-8") as fh:
        counts = {}
        for row in fh.read().splitlines():
            label, _, value = row.partition("\t")
            counts[label] = int(value) if value.isdigit() else -1
    files: dict[str, list[str]] = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                files[name[: -len(".txt")]] = fh.read().splitlines()
    tally.check(sum(counts.values()) == len(texts),
                f"stdout counts sum to {sum(counts.values())}, not {len(texts)}")
    tally.check(counts == {l: len(v) for l, v in files.items()},
                "stdout counts disagree with the routed files")
    tally.check(set(files) <= labels | {UND}, f"unknown routes {sorted(set(files) - labels)}")
    head = dict.fromkeys(files, 0)
    routed: list[str] = []
    for i, text in enumerate(texts):
        found = [l for l, pos in head.items() if pos < len(files[l]) and files[l][pos] == text]
        ok = len(found) == 1
        label = found[0] if ok else "?"
        if ok:
            head[label] += 1
        if i in expected:
            ok = ok and label == expected[i]
        tally.check(ok, f"line {i} routed to {found}")
        routed.append(label)
    leftover = sum(len(files[l]) - pos for l, pos in head.items())
    tally.check(leftover == 0, f"{leftover} routed lines match no input line", n=max(1, leftover))
    return routed


def repeat_token_frac(tokens: list[list[str]]) -> float:
    """Share of tokens whose word already occurred earlier in the stream."""
    seen: set[str] = set()
    repeats = total = 0
    for line in tokens:
        for word in line:
            total += 1
            if word in seen:
                repeats += 1
            else:
                seen.add(word)
    return repeats / total


def sample_indices(n: int) -> list[int]:
    """The lines whose decision is compared with the in-process one:
    every 25th, at most 200 of them."""
    return list(range(0, n, 25))[:200]
