"""Command-line interface: train, predict, clean, eval, contam, calib.

Hyperparameter flags use the single-dash names conventional for supervised
text classifiers (-minCount, -minn, -maxn, -bucket, -dim, -epoch, -lr,
-wordNgrams, -loss, -minCountLabel).  Every subcommand also accepts
``-config FILE``: a flat UTF-8 ``key=value`` file whose keys are the flag
names with dashes replaced by underscores (e.g. ``minCount=1``,
``out_dir=clean/``); other keys are ignored.  Explicit flags override
config-file values, which override the declared defaults.

Exit codes: 0 success, 1 usage or validation problem, 2 data error
(malformed corpus/model/report inputs), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import itertools
import json
import os
import sys
import time
from collections import Counter
from typing import IO, Callable, Iterator

from . import __version__
from .corpus import LABEL_PREFIX, contamination_rate, read_corpus, write_label_tsv
from .decision import (
    Decider,
    Scenario,
    _content_lines,
    _pairs_to_map,
    _read_pair_lines,
    load_hierarchy,
    load_label_map,
    load_label_set,
    map_labels,
)
from .errors import FormatError, InputMismatch, LidkitError
from .evaluation import (
    EvalScope,
    confusion,
    reliability,
    skew_testset,
    write_calibration,
    write_report,
)
from .features import BATCH_LINES, FeatureConfig
from .model import (
    MODEL_FORMAT_VERSION,
    UNDETERMINED,
    TrainConfig,
    load_model,
    save_model,
    train,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; our contract reserves 2 for data
    # errors, so route usage failures through the normal error path instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, line in _content_lines(path):
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise FormatError(f"{path}:{lineno}: expected key=value")
        cfg[key.strip()] = value.strip()
    return cfg


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _check_theta(theta: float) -> float:
    if not 0.0 <= theta <= 1.0:
        raise _UsageError(f"theta must be in [0, 1], got {theta}")
    return theta


@contextlib.contextmanager
def _serve(args, decider: Decider) -> Iterator[Iterator[list[str]]]:
    """The serve loop of `predict` and `clean` around their per-chunk work.

    Yields the lines of ``-input`` (else stdin), BATCH_LINES at a time; both
    are decoded as strict UTF-8, whatever the locale, and in both a line
    ends at ``\n``, which is stripped.  It closes the input, never stdin,
    however the body ends.  When the body ends normally and ``-stats`` is
    set, it writes one JSON line on stderr: what ``decider`` read and
    decided and at what rate, timed from opening the input to the end of
    the body.
    """
    start = time.perf_counter()
    stream = open(args.input, encoding="utf-8", newline="\n") if args.input else sys.stdin
    if stream is sys.stdin and isinstance(stream, io.TextIOWrapper):
        stream.reconfigure(encoding="utf-8", errors="strict", newline="\n")
    try:
        lines = (raw.rstrip("\n") for raw in stream)
        yield iter(lambda: list(itertools.islice(lines, BATCH_LINES)), [])
    finally:
        if stream is not sys.stdin:
            stream.close()
    if args.stats:
        elapsed = time.perf_counter() - start
        print(json.dumps({
            "lines": decider.lines,
            "no_feature": decider.no_feature,
            "und": decider.und,
            "elapsed_s": round(elapsed, 6),
            "lines_per_s": round(decider.lines / elapsed, 1) if elapsed > 0 else 0.0,
        }), file=sys.stderr)


def _read_label_column(path: str) -> list[str]:
    """First-column labels of a TSV, one per ``\n``-ended line; corpus-format
    lines shed their prefix."""
    labels: list[str] = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if line.startswith(LABEL_PREFIX):
                label = line.split(maxsplit=1)[0][len(LABEL_PREFIX) :]
            else:
                label = line.split("\t", 1)[0].strip()
            if not label:
                raise FormatError(f"{path}:{lineno}: empty label")
            labels.append(label)
    return labels


def _read_skew_factors(path: str) -> dict[str, int]:
    """label<TAB>factor lines; each factor is an integer of at least 1."""
    rows = _read_pair_lines(path)
    for lineno, _, factor in rows:
        if not (factor.isascii() and factor.isdigit() and int(factor) >= 1):
            raise FormatError(f"{path}:{lineno}: factor must be an integer >= 1")
    return {label: int(factor) for label, factor in _pairs_to_map(path, rows).items()}


# train flag -> (config class, field, cast, help); the defaults live in the dataclasses
_TRAIN_FLAGS: dict[str, tuple[type, str, Callable, str]] = {
    "minCount": (FeatureConfig, "min_count", int, "minimal word occurrences"),
    "minCountLabel": (FeatureConfig, "min_count_label", int, "minimal label occurrences"),
    "wordNgrams": (FeatureConfig, "word_ngrams", int, "max word n-gram length"),
    "bucket": (FeatureConfig, "bucket", int, "number of hash buckets"),
    "minn": (FeatureConfig, "minn", int, "min char n-gram length"),
    "maxn": (FeatureConfig, "maxn", int, "max char n-gram length"),
    "dim": (TrainConfig, "dim", int, "embedding dimension"),
    "epoch": (TrainConfig, "epochs", int, "training epochs"),
    "lr": (TrainConfig, "lr", float, "initial learning rate"),
    "loss": (TrainConfig, "loss", str, "loss function, only softmax"),
    "alpha": (TrainConfig, "inv_temperature", float, "language up-sampling exponent 1/T"),
    "seed": (TrainConfig, "seed", int, "RNG seed"),
}


def _config_from_flags(cls: type, args):
    """``cls`` from the parsed train options that it owns."""
    return cls(**{name: getattr(args, flag)
                  for flag, (owner, name, _, _) in _TRAIN_FLAGS.items() if owner is cls})


# --- subcommands ------------------------------------------------------------


def cmd_train(args) -> int:
    if not args.input or not args.output:
        raise _UsageError("train needs -input and -output")
    feature_config = _config_from_flags(FeatureConfig, args)
    train_config = _config_from_flags(TrainConfig, args)
    corpus = read_corpus(args.input)

    def progress(epoch: int, epochs: int, avg_loss: float) -> None:
        print(f"epoch {epoch}/{epochs} avg-loss {avg_loss:.4f}", file=sys.stderr)

    model = train(corpus, feature_config, train_config, progress)
    save_model(model, args.output)
    print(f"trained {len(model.labels)} labels -> {args.output}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    if not args.model:
        raise _UsageError("predict needs -model")
    theta = _check_theta(args.theta)
    if args.k < 1:
        raise _UsageError("k must be >= 1")

    model = load_model(args.model)
    hierarchy = load_hierarchy(args.hierarchy) if args.hierarchy else None
    base_set = load_label_set(args.base_set) if args.base_set else None
    decider = Decider(model, theta, base_set, hierarchy)

    with _serve(args, decider) as chunks:
        for chunk in chunks:
            sys.stdout.write("".join("\t".join(f"{l}\t{p}" for l, p in pairs) + "\n"
                                     for pairs in decider.rank_batch(chunk, args.k)))
    return 0


def _open_label_file(out_dir: str, label: str) -> IO[str]:
    """``<label>.txt`` in ``out_dir``, opened for writing; LidkitError when
    the label cannot name a file there."""
    unusable = LidkitError(f"model label {label!r} is not usable as a filename")
    if "/" in label or "\\" in label or "\x00" in label or label in (".", ".."):
        raise unusable
    try:
        return open(os.path.join(out_dir, label + ".txt"), "w", encoding="utf-8")
    except OSError as exc:
        if exc.errno != errno.ENAMETOOLONG:
            raise
        raise unusable from None


def cmd_clean(args) -> int:
    if not args.model or not args.out_dir:
        raise _UsageError("clean needs -model and -out-dir")
    theta = _check_theta(args.theta)

    model = load_model(args.model)
    decider = Decider(model, theta)
    counts: Counter[str] = Counter()
    files: dict[str, IO[str]] = {}

    def route(label: str, text: str) -> None:
        fh = files.get(label)
        if fh is None:
            os.makedirs(args.out_dir, exist_ok=True)  # lazily, so empty input makes nothing
            fh = files[label] = _open_label_file(args.out_dir, label)
        fh.write(text + "\n")
        counts[label] += 1

    with _serve(args, decider) as chunks:
        try:
            for chunk in chunks:
                for line, label in zip(chunk, decider.decide_batch(chunk)):
                    route(label, line)
        finally:
            for fh in files.values():
                fh.close()
        write_label_tsv(sys.stdout, counts)
    return 0


def cmd_eval(args) -> int:
    if not args.gold or not args.pred:
        raise _UsageError("eval needs -gold and -pred")
    try:  # argparse checks choices on flags, not on a config file's value
        scenario = Scenario(args.scenario)
    except ValueError:
        raise _UsageError(f"scenario must be one of "
                          f"{[s.value for s in Scenario]}, got {args.scenario!r}") from None

    gold = _read_label_column(args.gold)
    pred = _read_label_column(args.pred)
    if len(gold) != len(pred):
        raise InputMismatch(
            f"{args.gold} has {len(gold)} rows but {args.pred} has {len(pred)}"
        )
    if args.map:
        label_map = load_label_map(args.map)
        gold = map_labels(gold, label_map, strict=args.strict_labels)
        pred = map_labels(pred, label_map, strict=args.strict_labels)

    if args.skew:
        rows = skew_testset(list(zip(gold, pred)), _read_skew_factors(args.skew),
                            label=lambda row: row[0])
        gold, pred = [g for g, _ in rows], [p for _, p in rows]

    benchmark = {l for l in gold if l != UNDETERMINED}
    if scenario is Scenario.SET_KNOWN:
        if args.model_labels:
            model_labels = set(load_label_set(args.model_labels))
            if args.map:
                model_labels = set(map_labels(sorted(model_labels), label_map, strict=False))
        else:
            model_labels = {l for l in pred if l != UNDETERMINED}
        scope = EvalScope(frozenset(benchmark & model_labels))
    else:
        scope = EvalScope(frozenset(benchmark))
    write_report(sys.stdout, confusion(gold, pred, scope), scope)
    return 0


def cmd_contam(args) -> int:
    if not args.test or not args.train:
        raise _UsageError("contam needs -test and -train")
    rates = contamination_rate(read_corpus(args.test), read_corpus(args.train))
    write_label_tsv(sys.stdout, rates)
    return 0


def cmd_calib(args) -> int:
    if not args.gold or not args.pred:
        raise _UsageError("calib needs -gold and -pred")
    if args.bins < 1:
        raise _UsageError("bins must be >= 1")

    gold = _read_label_column(args.gold)
    pred_labels: list[str] = []
    confidences: list[float] = []
    with open(args.pred, encoding="utf-8", newline="\n") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) < 2:
                raise FormatError(f"{args.pred}:{lineno}: expected 'label<TAB>prob'")
            try:
                conf = float(parts[1])
            except ValueError:
                raise FormatError(f"{args.pred}:{lineno}: bad probability") from None
            if not 0.0 <= conf <= 1.0:
                raise FormatError(f"{args.pred}:{lineno}: probability out of [0, 1]")
            pred_labels.append(parts[0])
            confidences.append(conf)
    bins = reliability(pred_labels, confidences, gold, args.bins)
    write_calibration(sys.stdout, bins)
    return 0


# --- wiring -----------------------------------------------------------------


class _Commands(_Parser):
    """The top-level parser.  ``parse`` makes a ``-config`` file's values the
    subcommand's defaults, which argparse casts and checks as it does flags;
    flags beat them, and they beat the declared defaults.  That changes the
    subcommand parser, so build a fresh one per command line."""

    def __init__(self) -> None:
        super().__init__(prog="lidkit", allow_abbrev=False,
                         description="Train, run, and evaluate a language identifier.")
        self.subcommands = self.add_subparsers(dest="command", required=True,
                                               parser_class=_Parser)

    def command(self, name: str, func: Callable[..., int], help: str) -> _Parser:
        p = self.subcommands.add_parser(name, allow_abbrev=False, help=help)
        p.add_argument("-config", help="key=value config file (flags override it)")
        p.set_defaults(func=func)
        return p

    def parse(self, argv: list[str]) -> argparse.Namespace:
        args = self.parse_args(argv)
        if not args.config:
            return args
        defaults = {}
        for key, value in _load_config(args.config).items():
            if key in ("command", "config", "func") or not hasattr(args, key):
                continue
            if isinstance(getattr(args, key), bool):  # a switch has no type to cast with
                try:
                    value = _parse_bool(value)
                except ValueError as exc:
                    raise _UsageError(
                        f"{args.config}: bad config value for {key}: {exc}") from None
            defaults[key] = value
        self.subcommands.choices[args.command].set_defaults(**defaults)
        try:
            return self.parse_args(argv)
        except _UsageError as exc:
            raise _UsageError(f"{args.config}: bad config value: {exc}") from None


def _add_theta_flag(p: argparse.ArgumentParser, below: str) -> None:
    p.add_argument("-theta", type=float, default=0.0,
                   help=f"confidence threshold; below it {below} (default %(default)s)")


def _add_stats_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("-stats", action="store_true",
                   help="write a JSON line of line counts and lines/s to stderr")


def build_parser() -> _Commands:
    parser = _Commands()

    p = parser.command("train", cmd_train, "train a classifier and write a model file")
    p.add_argument("-input", help="labeled training corpus")
    p.add_argument("-output", help="model file to write")
    for flag, (cls, name, cast, text) in _TRAIN_FLAGS.items():
        p.add_argument(f"-{flag}", type=cast, default=getattr(cls(), name),
                       help=f"{text} (default %(default)s)")

    p = parser.command("predict", cmd_predict, "label sentences line by line as TSV")
    p.add_argument("-model", help="model file")
    p.add_argument("-input", help="sentences, one per line (default stdin)")
    _add_theta_flag(p, "emit 'und'")
    p.add_argument("-k", type=int, default=1,
                   help="emit the k most probable labels with their probabilities "
                        "(default %(default)s)")
    p.add_argument("-base-set", dest="base_set",
                   help="file of benchmark labels to restrict predictions to")
    p.add_argument("-hierarchy",
                   help="variety<TAB>macrolanguage file; consolidates before deciding")
    _add_stats_flag(p)

    p = parser.command("clean", cmd_clean, "route lines into per-language files")
    p.add_argument("-model", help="model file")
    p.add_argument("-input", help="sentences, one per line (default stdin)")
    p.add_argument("-out-dir", dest="out_dir", help="directory for <label>.txt files")
    _add_theta_flag(p, "route to und.txt")
    _add_stats_flag(p)

    p = parser.command("eval", cmd_eval, "score a prediction file against gold labels")
    p.add_argument("-gold", help="gold labels (first TSV column, or a labeled corpus)")
    p.add_argument("-pred", help="predicted labels (first TSV column)")
    p.add_argument("-map", help="source<TAB>target relabeling applied to both sides")
    p.add_argument("-scenario", choices=[s.value for s in Scenario],
                   default=Scenario.SET_KNOWN.value,
                   help="set-known scores benchmark ∩ model labels; "
                        "set-unknown scores the full benchmark (default %(default)s)")
    p.add_argument("-model-labels", dest="model_labels",
                   help="file listing the model's labels (default: labels seen in -pred)")
    p.add_argument("-skew", help="label<TAB>factor file; replicates gold rows")
    p.add_argument("-strict-labels", dest="strict_labels", action="store_true",
                   help="fail on labels missing from -map")

    p = parser.command("contam", cmd_contam, "per-label train/test contamination rates")
    p.add_argument("-test", help="labeled test corpus")
    p.add_argument("-train", help="labeled training corpus")

    p = parser.command("calib", cmd_calib, "reliability bins from predictions with confidences")
    p.add_argument("-gold", help="gold labels (first TSV column)")
    p.add_argument("-pred", help="label<TAB>prob predictions (as from predict)")
    p.add_argument("-bins", type=int, default=10, help="number of bins (default %(default)s)")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] in (["--version"], ["-version"]):
        print(f"lidkit {__version__} (model format v{MODEL_FORMAT_VERSION})")
        return 0
    try:
        args = build_parser().parse(argv)  # fresh: parse sets a config file's defaults
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except LidkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
