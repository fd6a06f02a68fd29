"""Smoke test of tools/stage_profile.py at a tiny size."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("featurize", "sentence vectors", "logits", "softmax+check", "scope columns",
          "top-k", "sum of stages", "rank_batch k=3", "rank_batch k=1")


def test_prints_each_stage_per_line():
    # the header names the allocator setting the figures come from
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "stage_profile.py"), "--labels", "40",
         "--dim", "8", "--bucket", "500", "--macros", "4", "--lines", "300", "--passes", "2"],
        capture_output=True, text=True, timeout=60, check=True, env=env)
    header = run.stdout.splitlines()[0]
    assert header.endswith("; MALLOC_MMAP_THRESHOLD_ 131072")
    # and where the Scorer's output layer starts, which gemv's speed follows
    assert "; output layer at 0 mod 64; " in header
    rows = dict(line.rsplit(None, 1) for line in run.stdout.splitlines()[2:])
    assert [name.strip() for name in rows] == list(STAGES)
    us = {name.strip(): float(value) for name, value in rows.items()}
    assert all(value >= 0 for value in us.values())
    # each figure is rounded to 0.1
    assert abs(us["sum of stages"] - sum(us[name] for name in STAGES[:6])) < 0.5
