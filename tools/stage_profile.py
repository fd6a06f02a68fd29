#!/usr/bin/env python3
"""Time each stage of ``Decider.rank_batch`` in process, on a planted model.

Generates the benchmark's predict-wide model, hierarchy, base set and input
(``perfbench/gen.py``, at the shape given) in a temporary directory, loads
them as ``lidkit predict`` does, and runs rank_batch's stages one after
another over the input, block by block as rank_batch runs them, each block
of LINE_BLOCK lines featurized and scored on its own:

    featurize             featurize_batch of a block
    sentence vectors      the block's weighted means of embedding rows
    logits                the row-blocked products with the output layer
    softmax+check         the in-place softmax and the distribution check
    scope columns         the Decider's column plan: the rollup, cut to the
                          base set
    top-k                 each line's top k of those columns

Each stage is printed in microseconds per line, the median over the passes,
beside rank_batch's own time over the same input, which also holds the
Python that turns each block into (label, probability) pairs; it is handed
the input BATCH_LINES lines at a time, as the CLI reads it.  A last row
gives rank_batch at k = 1: the same ranking pass, one argmax per rank, at
the k of ``clean`` (``decide_batch``) and of ``predict``'s default ``-k``.
Staged and whole passes alternate, so that a slow spell of the machine
shows in all of them.

The header line gives the address of the Scorer's float64 output layer mod
64, which should read 0.  The logits stage is OpenBLAS's gemv over that
layer, and at predict-wide's shape it was measured at about 54 us/line
when the layer starts 16 or 48 bytes past a 64-byte boundary, where glibc
puts a block it serves by mmap, against about 39 at 0 or 32, with the
same bits; the Scorer aligns the layer so.  The header also names the
``MALLOC_MMAP_THRESHOLD_`` the process runs under, or "unset": the page
faults of featurize follow glibc's heap thresholds, so compare its figures
only from the same setting.

Run from the repo root:

    python3 tools/stage_profile.py                  # predict-wide's shape
    python3 tools/stage_profile.py --labels 40 --dim 8 --bucket 500 --macros 4 --lines 300
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import gen  # noqa: E402
from lidkit.decision import Decider, load_hierarchy, load_label_set  # noqa: E402
from lidkit.features import BATCH_LINES, featurize_batch  # noqa: E402
from lidkit.model import LINE_BLOCK, _softmax_in_place, check_probs, load_model, top_k  # noqa: E402

STAGES = ("featurize", "sentence vectors", "logits", "softmax+check", "scope columns", "top-k")


def staged_pass(decider: Decider, texts: list[str], k: int) -> dict[str, float]:
    """Seconds spent in each stage of rank_batch over ``texts``."""
    scorer = decider._scorer
    model = scorer.model
    spent = dict.fromkeys(STAGES, 0.0)
    mark = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        spent[stage] += now - mark
        mark = now

    for start in range(0, len(texts), LINE_BLOCK):
        batch = featurize_batch(texts[start : start + LINE_BLOCK], model.vocab,
                                model.feature_config)
        lap("featurize")
        _, v = scorer._block_vectors(batch)
        lap("sentence vectors")
        z = scorer._logits(v)
        lap("logits")
        _softmax_in_place(z)
        check_probs(z, model.labels)
        lap("softmax+check")
        plan = decider._plan
        q = z if plan is None else plan.apply(z, out=decider._scope.rows(len(z)))
        lap("scope columns")
        top_k(q, k)
        lap("top-k")
    return spent


def rank_batch_pass(decider: Decider, texts: list[str], k: int) -> float:
    """Seconds rank_batch takes over ``texts``."""
    start = time.perf_counter()
    for i in range(0, len(texts), BATCH_LINES):
        decider.rank_batch(texts[i : i + BATCH_LINES], k)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> None:
    shape = gen.WideShape()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--labels", type=int, default=shape.labels)
    ap.add_argument("--dim", type=int, default=shape.dim)
    ap.add_argument("--bucket", type=int, default=shape.bucket)
    ap.add_argument("--macros", type=int, default=shape.macros)
    ap.add_argument("--lines", type=int, default=shape.lines)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=7, help="timed passes of each kind")
    args = ap.parse_args(argv)
    shape = gen.WideShape(args.labels, args.dim, args.bucket, args.macros, args.lines)

    with tempfile.TemporaryDirectory() as workdir:
        inputs = gen.wide_inputs(args.seed, shape, workdir)
        model = load_model(inputs.model_path)
        hierarchy = load_hierarchy(inputs.hierarchy_path)
        base_set = load_label_set(inputs.base_set_path)
    decider = Decider(model, gen.THETA, base_set, hierarchy)
    texts, k = inputs.texts, gen.PREDICT_K

    rank_batch_pass(decider, texts, k)  # sizes the buffers
    staged, whole, argmax = [], [], []
    for _ in range(args.passes):
        staged.append(staged_pass(decider, texts, k))
        whole.append(rank_batch_pass(decider, texts, k))
        argmax.append(rank_batch_pass(decider, texts, 1))

    def us_per_line(seconds: list[float]) -> float:
        return 1e6 * statistics.median(seconds) / len(texts)

    print(f"{shape.labels} labels, dim {shape.dim}, bucket {shape.bucket}, "
          f"{shape.macros} macrolanguages, {len(texts)} lines, seed {args.seed}, k {k}; "
          f"median of {args.passes} passes; "
          f"output layer at {decider._scorer._out.ctypes.data % 64} mod 64; "
          f"MALLOC_MMAP_THRESHOLD_ {os.environ.get('MALLOC_MMAP_THRESHOLD_', 'unset')}")
    print(f"{'stage':<20} {'us/line':>9}")
    total = 0.0
    for stage in STAGES:
        us = us_per_line([s[stage] for s in staged])
        total += us
        print(f"{stage:<20} {us:9.1f}")
    print(f"{'sum of stages':<20} {total:9.1f}")
    print(f"{f'rank_batch k={k}':<20} {us_per_line(whole):9.1f}")
    print(f"{'rank_batch k=1':<20} {us_per_line(argmax):9.1f}")


if __name__ == "__main__":
    main()
