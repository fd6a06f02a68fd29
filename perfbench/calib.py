"""A fixed yardstick for the machine's speed at the moment of measuring.

On a small shared host the same code runs up to twice as fast in one
minute as in the next, because other tenants share the cores, the caches
and the memory bus.  Runs of the benchmark minutes apart would then differ
by more than any change worth measuring.  So every timed invocation of the
program is bracketed by runs of a yardstick: a fixed piece of work whose
mix resembles the workload's own.  The ``serve`` yardstick hashes words,
gathers rows from a 64 MiB table of dim 256, runs a 1,600-label matvec and
builds a dict of the probabilities, as `predict` does per line.  The
``train`` yardstick hashes words and runs SGD-shaped steps on a 64 MiB
table of dim 16 with 20 labels, as `train` does.  A yardstick's code and
inputs never change, so its time tracks only the machine, and a time
divided by it tracks only the program.

A ratio is turned back into seconds by multiplying with ``NOMINAL_S``, a
fixed round figure near a yardstick's time on a quiet 2-vCPU x86-64 host.
Calibrated seconds are the seconds the program would take on a machine on
which the yardstick takes exactly ``NOMINAL_S``.  They compare across runs
and commits on one kind of machine, not across machines.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.35  # seconds for one yardstick (UNITS units) at nominal speed
UNITS = 80

_LETTERS = "abcdefghijklmnopqrstuvwxyzäöüéèçñ"
_WORDS = 300
# serve: 1,600 labels, dim 256, rows gathered 60 at a time
_SERVE_ROWS, _SERVE_DIM, _SERVE_LABELS, _SERVE_BAG = 1 << 16, 256, 1600, 60
# train: 20 labels, dim 16, rows gathered 12 at a time
_TRAIN_ROWS, _TRAIN_DIM, _TRAIN_LABELS, _TRAIN_BAG, _TRAIN_STEPS = 1 << 20, 16, 20, 12, 200


class Yardstick:
    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(20231024)
        lengths = rng.integers(3, 9, _WORDS)
        self.words = ["".join(_LETTERS[i] for i in rng.integers(0, len(_LETTERS), n))
                      for n in lengths.tolist()]
        if kind == "serve":
            self.table = rng.standard_normal((_SERVE_ROWS, _SERVE_DIM), dtype=np.float32)
            self.out = rng.standard_normal((_SERVE_LABELS, _SERVE_DIM), dtype=np.float32)
            self.out /= np.float32(16)
            self.names = [f"w{i:04d}" for i in range(_SERVE_LABELS)]
            self._work = self._serve
        elif kind == "train":
            self.table = rng.uniform(-1.0, 1.0, (_TRAIN_ROWS, _TRAIN_DIM)).astype(np.float32)
            self.out = rng.uniform(-1.0, 1.0, (_TRAIN_LABELS, _TRAIN_DIM)).astype(np.float32)
            self.bags = rng.integers(0, _TRAIN_ROWS, (_TRAIN_STEPS, _TRAIN_BAG))
            self.gold = rng.integers(0, _TRAIN_LABELS, _TRAIN_STEPS).tolist()
            self._work = self._train
        else:
            raise ValueError(f"unknown yardstick {kind!r}")
        self.unit()  # touch the tables once, so the first timing is warm
        self.marks = [self.seconds()]

    def _hash_ids(self, rows: int) -> list[int]:
        ids = []
        for word in self.words:
            h = 2166136261
            for byte in word.encode("utf-8"):
                h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
            ids.append(h % rows)
        return ids

    def _serve(self) -> float:
        ids = self._hash_ids(_SERVE_ROWS)
        total = 0.0
        for start in range(0, _WORDS, _SERVE_BAG):
            v = self.table[ids[start : start + _SERVE_BAG]].mean(axis=0)
            logits = self.out @ v
            p = np.exp(logits - logits.max())
            p /= p.sum()
            dist = {name: float(x) for name, x in zip(self.names, p)}
            top = sorted(dist.items(), key=lambda kv: -kv[1])[:3]
            total += top[0][1]
        return total

    def _train(self) -> float:
        self._hash_ids(_TRAIN_ROWS)
        w = np.full(_TRAIN_BAG, 1.0 / _TRAIN_BAG, dtype=np.float32)
        lr = np.float32(0.0)  # the steps write back, but never change a value
        total = 0.0
        for ids, gold in zip(self.bags, self.gold):
            v = self.table[ids].T @ w
            logits = self.out @ v
            e = np.exp(logits - logits.max())
            p = e / e.sum()
            total -= float(np.log(max(float(p[gold]), 1e-30)))
            p[gold] -= 1.0
            dv = self.out.T @ p
            self.out -= lr * np.outer(p, v)
            self.table[ids] -= lr * np.outer(w, dv)
        return total

    def unit(self) -> float:
        """One unit of work; returns a checksum so nothing is optimised away."""
        return self._work()

    def seconds(self) -> float:
        """Wall time of UNITS units of work."""
        t0 = time.perf_counter()
        for _ in range(UNITS):
            self.unit()
        return time.perf_counter() - t0

    def mark(self) -> float:
        """Time the yardstick again, and return the factor that turns wall
        seconds measured since the previous mark into calibrated seconds."""
        self.marks.append(self.seconds())
        return NOMINAL_S / ((self.marks[-2] + self.marks[-1]) / 2)
