"""The three workloads, each as an untraced and a traced run.

Untraced runs give the end-to-end metrics.  They drive the real CLI as a
single child process, several times, until the run's seconds are spent,
and pool the invocations' throughput.  Every invocation is bracketed by the
yardstick of ``calib.py``, and its times are reported in calibrated
seconds: seconds at the yardstick's nominal speed.  Traced runs give the per-layer
metrics.  They alternate CLI runs with the same library calls in-process,
untimed per call, and then run those calls once more with a span around
every public call.  A layer a workload never calls reports 0.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field

import gen
from calib import Yardstick
from checks import (
    Tally,
    check_clean,
    check_predict,
    macro_f1,
    repeat_token_frac,
    sample_indices,
    sha256_dir,
    sha256_file,
)
from proc import run_cli
from spans import Trace, now

from lidkit.corpus import read_corpus
from lidkit.decision import DecisionConfig, decide, load_hierarchy, load_label_set, rollup
from lidkit.errors import LidkitError, NoFeatures
from lidkit.features import FeatureConfig, build_vocab, featurize
from lidkit.model import (
    PredictionDist,
    TrainConfig,
    load_model,
    predict,
    predict_dist,
    save_model,
    sentence_vector,
    softmax,
    train,
)

UND = gen.UND

# the traced span names that hold a workload's per-line library calls
LINE_SPANS = (
    "features.featurize",
    "model.sentence_vector",
    "model.softmax",
    "model.dist",
    "decision.rollup",
    "decision.decide",
)
TRAIN_ONLY = (
    "corpus.read_corpus_s",
    "features.build_vocab_s",
    "model.train_epoch_s",
    "model.train_setup_s",
    "model.save_model_s",
)
# accounting gaps above this share are flagged in the report
ACCOUNTING_TOLERANCE = 0.15
# alternated CLI and in-process passes per traced run, for the residual
RESIDUAL_PAIRS = 3


@dataclass(frozen=True)
class Sizes:
    train: gen.TrainShape = gen.TrainShape()
    wide: gen.WideShape = gen.WideShape()
    crawl: gen.CrawlShape = gen.CrawlShape()
    setup_reps: int = 2  # empty-input starts before each full CLI invocation


@dataclass
class Result:
    metrics: dict[str, float]
    tally: Tally
    details: dict[str, object] = field(default_factory=dict)
    trace: Trace | None = None


def _mib(path: str) -> float:
    return os.path.getsize(path) / (1 << 20)


def _room_for_another(start: float, seconds: float, rounds: list[float]) -> bool:
    """Whether one more round, as long as the median round so far, would
    end nearer the run's seconds than stopping now does, so that runs last
    ``seconds`` on average even when a round is long.  The first round
    always runs."""
    if not rounds:
        return True
    return time.perf_counter() - start + statistics.median(rounds) / 2 <= seconds


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --- predict-wide and clean-crawl ------------------------------------------


class ServeJob:
    """One `predict` or `clean` configuration over a generated input."""

    def __init__(self, kind: str, inputs: gen.ServeInputs, workdir: str):
        self.kind = kind
        self.inputs = inputs
        self.empty = os.path.join(workdir, "empty.txt")
        open(self.empty, "w").close()
        self.stdout = os.path.join(workdir, f"{kind}.out")
        self.out_dir = os.path.join(workdir, "routed")
        self.n = len(inputs.texts)

    def args(self) -> list[str]:
        i = self.inputs
        if self.kind == "predict":
            return ["predict", "-model", i.model_path, "-k", str(gen.PREDICT_K),
                    "-theta", repr(gen.THETA), "-hierarchy", i.hierarchy_path,
                    "-base-set", i.base_set_path]
        return ["clean", "-model", i.model_path, "-theta", repr(gen.THETA),
                "-out-dir", _fresh_dir(self.out_dir)]

    def setup_s(self, reps: int, tally: Tally) -> list[float]:
        """Wall times of the same command over empty input."""
        walls = []
        for _ in range(reps):
            run = run_cli(self.args(), self.empty, self.stdout)
            empty = os.path.getsize(self.stdout) == 0
            tally.check(run.returncode == 0 and empty,
                        f"empty-input {self.kind}: exit {run.returncode}")
            walls.append(run.wall_s)
        return walls

    def invoke(self, tally: Tally):
        """One CLI invocation over the whole input."""
        run = run_cli(self.args(), self.inputs.input_path, self.stdout)
        tally.check(run.returncode == 0, f"{self.kind} exited {run.returncode}")
        return run

    def check(self, tally: Tally, expected: dict[int, str]) -> tuple[list[str], str]:
        """Check the last invocation's output; returns its decisions and digest."""
        if self.kind == "predict":
            decisions = check_predict(self.stdout, self.n, self.config.base_set,
                                      gen.PREDICT_K, expected, tally)
            return decisions, sha256_file(self.stdout)
        decisions = check_clean(self.out_dir, self.stdout, self.inputs.texts,
                                frozenset(self.config.base_set), expected, tally)
        return decisions, sha256_dir(self.out_dir) + ":" + sha256_file(self.stdout)

    def load(self):
        """Load the model as the CLI does: model, hierarchy, decision config."""
        model = load_model(self.inputs.model_path)
        if self.kind == "clean":
            self.config = DecisionConfig.for_model(model.labels, gen.THETA)
            return model, None, self.config
        hierarchy = load_hierarchy(self.inputs.hierarchy_path)
        universe = frozenset(hierarchy.macro_of.get(l, l) for l in model.labels)
        base = load_label_set(self.inputs.base_set_path)
        self.config = DecisionConfig.for_model(universe, gen.THETA, base)
        return model, hierarchy, self.config


def _decide_line(text, model, hierarchy, config) -> str:
    """`decide(rollup(predict_dist(...)))`: the library calls `predict` and
    `clean` make for one line, untimed."""
    try:
        dist = predict_dist(model, text)
    except NoFeatures:
        return UND
    if hierarchy is not None:
        dist = rollup(dist, hierarchy)
    return decide(dist, config)


def serve_untraced(job: ServeJob, seconds: float, reps: int) -> Result:
    tally = Tally()
    model, hierarchy, config = job.load()
    expected = {
        i: _decide_line(job.inputs.texts[i], model, hierarchy, config)
        for i in sample_indices(job.n)
    }
    del model, hierarchy
    gc.collect()

    # empty-input starts are interleaved with the full invocations, so
    # that their median spans the whole run rather than its first seconds;
    # a yardstick before and after each round calibrates the round's times
    start = time.perf_counter()
    yard = Yardstick("serve")
    setups, walls, rss, cycles, digests = [], [], [], [], set()
    raw_setups, raw_walls = [], []
    decisions: list[str] = []
    while _room_for_another(start, seconds, cycles):
        t0 = time.perf_counter()
        starts = job.setup_s(reps, tally)
        run = job.invoke(tally)
        scale = yard.mark()
        got, digest = job.check(tally, expected)
        cycles.append(time.perf_counter() - t0)
        raw_setups += starts
        raw_walls.append(run.wall_s)
        setups += [s * scale for s in starts]
        walls.append(run.wall_s * scale)
        rss.append(run.peak_rss_mb)
        digests.add(digest)
        decisions = decisions or got
    tally.check(len(digests) == 1, "repeated invocations wrote different output")
    setup = statistics.median(setups)
    # pooled over the run's invocations: a median would follow whichever of
    # the shared machine's fast and slow spells held most invocations
    metrics = {
        "lines_per_s": job.n * len(walls) / (sum(walls) - setup * len(walls)),
        "setup_s": setup,
        "wall_s": statistics.mean(walls),
        "peak_rss_mb": statistics.median(rss),
        "macro_f1": macro_f1(job.inputs.gold, decisions),
    }
    details = {
        "invocations": len(walls),
        "lines": job.n,
        "walls_s": walls,
        "setups_s": setups,
        "lines_per_s_each": [job.n / (w - setup) for w in walls],
        "raw_walls_s": raw_walls,
        "raw_setups_s": raw_setups,
        "yardstick_s": yard.marks,
        "digests": {"output": sorted(digests), "model": sha256_file(job.inputs.model_path)},
    }
    return Result(metrics, tally, details)


def serve_traced(job: ServeJob, reps: int) -> Result:
    tally = Tally()
    # 1. the CLI and the same library calls in-process, both untraced and
    # each in-process loop from a fresh load, alternated so that the
    # machine's drift in speed falls on both alike; the residual is taken
    # from their medians.  Every CLI decision must match the loop's.
    setups, walls, loops = [], [], []
    for _ in range(RESIDUAL_PAIRS):
        setups += job.setup_s(reps, tally)
        walls.append(job.invoke(tally).wall_s)
        model, hierarchy, config = job.load()
        t0 = time.perf_counter()
        plain = [_decide_line(text, model, hierarchy, config) for text in job.inputs.texts]
        loops.append((time.perf_counter() - t0) / job.n * 1e6)
        job.check(tally, dict(enumerate(plain)))
        del model, hierarchy
        gc.collect()
    setup = statistics.median(setups)
    cli_runs = [(wall - setup) / job.n * 1e6 for wall in walls]
    cli_us, loop_us = statistics.median(cli_runs), statistics.median(loops)

    # 2. traced, from a fresh load so the featurize memo starts cold again
    trace = Trace()
    t = now()
    model = load_model(job.inputs.model_path)
    trace.add("model.load_model", t, now())
    hierarchy = load_hierarchy(job.inputs.hierarchy_path) if job.kind == "predict" else None
    traced, ids = _traced_lines(trace, job.inputs.texts, model, hierarchy, config)
    traced_us = sum(trace.durations_ns("bench.line")) / job.n / 1e3
    tally.check(traced == plain, "traced decisions differ from untraced ones")

    metrics = _line_metrics(trace, job.n, job.inputs.tokens, ids)
    # serving reads no corpus, builds no vocabulary, trains and saves nothing
    metrics.update(dict.fromkeys(TRAIN_ONLY, 0.0))
    metrics.update({
        "model.load_model_s": trace.durations_ns("model.load_model")[0] / 1e9,
        "model.file_mb": _mib(job.inputs.model_path),
        "decision.und_frac": traced.count(UND) / job.n,
        "cli.residual_us_per_line": cli_us - loop_us,
        "trace.overhead_frac": traced_us / loop_us - 1.0,
    })
    layer_us = sum(metrics[f"{name}_us_per_line"] for name in LINE_SPANS)
    details = {"cli_us_per_line": cli_us, "loop_us_per_line": loop_us,
               "cli_us_per_line_each": cli_runs, "loop_us_per_line_each": loops,
               "traced_us_per_line": traced_us, "layer_us_per_line": layer_us,
               "accounting_gap": _accounting_gap(
                   layer_us + metrics["cli.residual_us_per_line"], cli_us),
               "lines": job.n}
    return Result(metrics, tally, details, trace)


def _traced_lines(trace: Trace, texts, model, hierarchy, config, parent: int = -1):
    """Decide every line with a span around each public call."""
    vocab, fc, weights, labels = model.vocab, model.feature_config, model.output_weights, model.labels
    add = trace.add
    decisions: list[str] = []
    ids: list[int] = []
    for i, text in enumerate(texts):
        t0 = now()
        bag = featurize(text, vocab, fc)
        t1 = now()
        if not bag:
            root = add("bench.line", t0, t1, parent, i)
            add("features.featurize", t0, t1, root, i)
            decisions.append(UND)
            ids.append(0)
            continue
        v = sentence_vector(bag, model)
        t2 = now()
        probs = softmax(weights @ v)
        t3 = now()
        dist = PredictionDist({l: float(p) for l, p in zip(labels, probs)})
        t4 = now()
        if hierarchy is not None:
            dist = rollup(dist, hierarchy)
        t5 = now()
        label = decide(dist, config)
        t6 = now()
        root = add("bench.line", t0, t6, parent, i)
        add("features.featurize", t0, t1, root, i)
        add("model.sentence_vector", t1, t2, root, i)
        add("model.softmax", t2, t3, root, i)
        add("model.dist", t3, t4, root, i)
        if hierarchy is not None:
            add("decision.rollup", t4, t5, root, i)
        add("decision.decide", t5, t6, root, i)
        decisions.append(label)
        ids.append(len(bag))
    return decisions, ids


def _line_metrics(trace: Trace, n: int, tokens, ids: list[int]) -> dict[str, float]:
    own = trace.self_by_name_ns()
    metrics = {f"{name}_us_per_line": own.get(name, 0) / n / 1e3 for name in LINE_SPANS}
    per_line = trace.per_line_ns("features.featurize")
    q = max(1, n // 4)

    def us_per_token(lines: range) -> float:
        return sum(per_line.get(i, 0) for i in lines) / max(1, sum(len(tokens[i]) for i in lines))

    metrics.update({
        "features.repeat_token_frac": repeat_token_frac(tokens),
        "features.ids_per_line": sum(ids) / n,
        "features.featurize_late_over_early": us_per_token(range(n - q, n)) / us_per_token(range(q)),
    })
    return metrics


def _accounting_gap(explained_us: float, cli_us: float) -> float:
    """How far layer self times plus the CLI residual miss the CLI's per-line
    time, as a share of it.  The passes compared run seconds apart, so on a
    shared machine this gap also holds the drift between them; it is
    reported, not counted as a failed operation."""
    return abs(explained_us - cli_us) / cli_us


# --- train-narrow -----------------------------------------------------------

_EPOCH = re.compile(r"^epoch (\d+)/(\d+) ")


class TrainJob:
    def __init__(self, inputs: gen.TrainInputs, shape: gen.TrainShape, seed: int, workdir: str):
        self.inputs = inputs
        self.shape = shape
        self.seed = seed
        self.model_path = os.path.join(workdir, "trained.bin")
        self.inproc_path = os.path.join(workdir, "trained_inproc.bin")
        self.feature_config = FeatureConfig(min_count=1)
        if shape.bucket is not None:
            self.feature_config = FeatureConfig(min_count=1, bucket=shape.bucket)
        self.train_config = TrainConfig(dim=gen.TRAIN_DIM, epochs=shape.epochs,
                                        lr=gen.TRAIN_LR, seed=seed)

    def args(self) -> list[str]:
        s = self.shape
        args = ["train", "-input", self.inputs.train_path, "-output", self.model_path,
                "-dim", str(gen.TRAIN_DIM), "-epoch", str(s.epochs), "-minCount", "1",
                "-lr", repr(gen.TRAIN_LR), "-seed", str(self.seed)]
        if s.bucket is not None:
            args += ["-bucket", str(s.bucket)]
        return args

    def run(self, tally: Tally) -> dict[str, float] | None:
        """One `lidkit train`, timed from its epoch reports; None if it failed."""
        run = run_cli(self.args(), capture_stderr=True)
        reports = [t for t, line in run.stderr_lines if _EPOCH.match(line)]
        ok = tally.check(run.returncode == 0 and len(reports) == self.shape.epochs,
                         f"train exited {run.returncode} after {len(reports)} epoch reports")
        if not ok:
            return None
        try:
            load_model(self.model_path)  # verifies the CRC
            reload_error = ""
        except (LidkitError, OSError) as exc:
            reload_error = str(exc)
        tally.check(not reload_error, f"trained model does not reload: {reload_error}")
        epoch = (reports[-1] - reports[0]) / (len(reports) - 1)
        return {
            "steps_per_s": self.inputs.n_train / epoch,
            "timed_s": reports[-1] - reports[0],
            "setup_s": reports[0] - epoch,
            "wall_s": run.wall_s,
            "peak_rss_mb": run.peak_rss_mb,
            "epoch_s": epoch,
        }

    def score(self, model) -> float:
        gold = [label for label, _ in self.inputs.heldout]
        pred = [predict(model, text)[0][0] for _, text in self.inputs.heldout]
        return macro_f1(gold, pred)


def train_untraced(job: TrainJob, seconds: float) -> Result:
    tally = Tally()
    start = time.perf_counter()
    yard = Yardstick("train")
    runs, raw_runs, raw_walls, digests = [], [], [], []
    while _room_for_another(start, seconds, raw_walls):
        got = job.run(tally)
        if got is None:
            break
        scale = yard.mark()
        raw_walls.append(got["wall_s"])
        raw_runs.append(dict(got))
        got.update({k: got[k] * scale for k in ("timed_s", "setup_s", "wall_s", "epoch_s")})
        got["steps_per_s"] /= scale
        runs.append(got)
        digests.append(sha256_file(job.model_path))
    tally.check(len(set(digests)) <= 1, "the same corpus and seed trained different models")
    if not runs:
        return Result({}, tally)
    timed_steps = job.inputs.n_train * (job.shape.epochs - 1)
    metrics = {
        "lines_per_s": timed_steps * len(runs) / sum(r["timed_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.mean(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "macro_f1": job.score(load_model(job.model_path)),
    }
    details = {"invocations": len(runs), "steps_per_epoch": job.inputs.n_train,
               "runs": runs, "raw_runs": raw_runs, "yardstick_s": yard.marks,
               "digests": {"model": sorted(set(digests))}}
    return Result(metrics, tally, details)


def _train_job(job: TrainJob, trace: Trace | None):
    """read, build the vocabulary, featurize, train, save, reload, score.

    With a trace, every call gets a span and each epoch a child span of
    `model.train`, reconstructed from the progress callback.  Returns the
    epoch report times and the reloaded model's held-out decisions.
    """
    def span(name, parent=-1):
        return trace.open(name, parent) if trace else -1

    def end(index):
        if trace:
            trace.close(index)

    root = span("bench.job")
    s = span("corpus.read_corpus", root)
    corpus = read_corpus(job.inputs.train_path)
    end(s)
    s = span("features.build_vocab", root)
    vocab = build_vocab(corpus, job.feature_config)
    end(s)
    s = span("bench.featurize_pass", root)
    ids = []
    for i, line in enumerate(corpus):
        t0 = now()
        bag = featurize(line.text, vocab, job.feature_config)
        if trace:
            trace.add("features.featurize", t0, now(), s, i)
        ids.append(len(bag))
    end(s)
    reports: list[int] = []
    s_train = span("model.train", root)
    model = train(corpus, job.feature_config, job.train_config,
                  lambda epoch, epochs, loss: reports.append(now()))
    end(s_train)
    s = span("model.save_model", root)
    save_model(model, job.inproc_path)
    end(s)
    s = span("model.load_model", root)
    model = load_model(job.inproc_path)
    end(s)
    config = DecisionConfig.for_model(model.labels, 0.0)
    texts = [text for _, text in job.inputs.heldout]
    if trace:
        epoch = (reports[-1] - reports[0]) // (len(reports) - 1)
        for k, t in enumerate(reports):
            trace.add("model.train_epoch", reports[k - 1] if k else t - epoch, t, s_train)
        score = trace.open("bench.score", root)
        decisions, _ = _traced_lines(trace, texts, model, None, config, score)
        trace.close(score)
        end(root)
    else:
        decisions = [_decide_line(text, model, None, config) for text in texts]
    return reports, decisions, corpus, ids


def train_traced(job: TrainJob) -> Result:
    tally = Tally()
    # the CLI and the same job in-process, both untraced, alternated as in
    # serve_traced; epoch times and job times are taken as medians
    cli_epochs, loop_epochs, loop_jobs = [], [], []
    for _ in range(RESIDUAL_PAIRS):
        cli = job.run(tally)
        if cli is None:
            return Result({}, tally)
        cli_epochs.append(cli["epoch_s"])
        t0 = time.perf_counter()
        reports, plain, _, _ = _train_job(job, None)
        loop_jobs.append(time.perf_counter() - t0)
        loop_epochs.append((reports[-1] - reports[0]) / (len(reports) - 1) / 1e9)
        gc.collect()
    loop_s = statistics.median(loop_jobs)

    trace = Trace()
    _, traced, corpus, ids = _train_job(job, trace)
    tally.check(traced == plain, "traced held-out decisions differ from untraced ones")
    tally.check(sha256_file(job.inproc_path) == sha256_file(job.model_path),
                "in-process training wrote a different model than the CLI")

    steps = job.inputs.n_train
    n_heldout = len(job.inputs.heldout)
    own = trace.self_by_name_ns()
    epochs = trace.durations_ns("model.train_epoch")
    epoch_s = sum(epochs) / len(epochs) / 1e9
    (train_span,) = [i for i, (n, *_) in enumerate(trace.spans)
                     if trace.names[n] == "model.train"]
    first_epoch_start = min(start for n, start, _, parent, _ in trace.spans
                            if parent == train_span)
    tokens = [line.text.split() for line in corpus]
    featurize_ns = trace.per_line_ns("features.featurize")
    n = len(corpus)
    q = max(1, n // 4)

    def us_per_token(lines: range) -> float:
        return sum(featurize_ns[i] for i in lines) / sum(len(tokens[i]) for i in lines)

    cli_step_us = statistics.median(cli_epochs) / steps * 1e6
    plain_step_us = statistics.median(loop_epochs) / steps * 1e6
    traced_s = trace.durations_ns("bench.job")[0] / 1e9
    metrics = {
        name: own.get(name, 0) / n_heldout / 1e3
        for name in ("model.sentence_vector", "model.softmax", "model.dist",
                     "decision.rollup", "decision.decide")
    }
    metrics = {f"{k}_us_per_line": v for k, v in metrics.items()}
    metrics.update({
        "corpus.read_corpus_s": own["corpus.read_corpus"] / 1e9,
        "features.build_vocab_s": own["features.build_vocab"] / 1e9,
        # featurize as training setup pays it, over the training corpus
        "features.featurize_us_per_line": sum(featurize_ns.values()) / n / 1e3,
        "features.repeat_token_frac": repeat_token_frac(tokens),
        "features.ids_per_line": sum(ids) / n,
        "features.featurize_late_over_early": us_per_token(range(n - q, n)) / us_per_token(range(q)),
        "model.train_epoch_s": epoch_s,
        "model.train_setup_s": (first_epoch_start - trace.spans[train_span][1]) / 1e9,
        "model.save_model_s": own["model.save_model"] / 1e9,
        "model.load_model_s": own["model.load_model"] / 1e9,
        "model.file_mb": _mib(job.model_path),
        "decision.und_frac": traced.count(UND) / n_heldout,
        "cli.residual_us_per_line": cli_step_us - plain_step_us,
        "trace.overhead_frac": traced_s / loop_s - 1.0,
    })
    details = {"cli_us_per_step": cli_step_us, "loop_us_per_step": plain_step_us,
               "untraced_job_s": loop_s, "traced_job_s": traced_s,
               "accounting_gap": _accounting_gap(
                   epoch_s / steps * 1e6 + metrics["cli.residual_us_per_line"], cli_step_us)}
    return Result(metrics, tally, details, trace)


# --- entry -------------------------------------------------------------------

WORKLOADS = ("train-narrow", "predict-wide", "clean-crawl")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 workdir: str, sizes: Sizes = Sizes()) -> Result:
    """Generate the inputs for ``name`` from ``seed``, then measure."""
    if name == "train-narrow":
        job = TrainJob(gen.train_inputs(seed, sizes.train, workdir), sizes.train, seed, workdir)
        return train_traced(job) if traced else train_untraced(job, seconds)
    if name == "predict-wide":
        job = ServeJob("predict", gen.wide_inputs(seed, sizes.wide, workdir), workdir)
    elif name == "clean-crawl":
        job = ServeJob("clean", gen.crawl_inputs(seed, sizes.crawl, workdir), workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return serve_traced(job, sizes.setup_reps) if traced else serve_untraced(
        job, seconds, sizes.setup_reps)


def shares(trace: Trace) -> dict[str, float]:
    """Each span name's share of all self time in the trace."""
    own = trace.self_by_name_ns()
    total = sum(own.values()) or 1
    return {name: t / total for name, t in sorted(own.items(), key=lambda kv: -kv[1])}
