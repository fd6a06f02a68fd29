"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every generator is deterministic for a seed, and that every
workload runs end to end, untraced and traced, with all of its checks
passing and every metric reported.
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import proc  # noqa: E402

sys.path.insert(0, proc.SRC)
import gen  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    train=gen.TrainShape(lines_per_label=40, epochs=2, bucket=1000),
    wide=gen.WideShape(labels=60, dim=16, bucket=1000, macros=5, lines=60),
    crawl=gen.CrawlShape(bucket=1000, ranks=1 << 10, vocab_per_label=20, lines=200),
    setup_reps=1,
)

GENERATORS = {
    "train": lambda seed, d: gen.train_inputs(seed, TINY.train, d),
    "wide": lambda seed, d: gen.wide_inputs(seed, TINY.wide, d),
    "crawl": lambda seed, d: gen.crawl_inputs(seed, TINY.crawl, d),
}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generators_are_deterministic(kind, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    GENERATORS[kind](3, str(dirs[0]))
    GENERATORS[kind](3, str(dirs[1]))
    GENERATORS[kind](4, str(dirs[2]))
    first, again, other = (_files(d) for d in dirs)
    assert first == again
    assert first.keys() == other.keys() and first != other


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_with_checks_passing(name, traced, tmp_path):
    result = workloads.run_workload(name, 1, 0.1, traced, str(tmp_path), TINY)
    assert result.tally.failed == 0, result.tally.problems
    assert result.tally.attempted > 0
    units = proc.metric_units(traced)
    assert set(result.metrics) == set(units)
    assert all(math.isfinite(v) for v in result.metrics.values())
    if not traced:
        # at this size the per-line rate is within set-up noise; times are not
        assert all(result.metrics[m] > 0 for m in ("setup_s", "wall_s", "peak_rss_mb"))
