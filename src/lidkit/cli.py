"""Command-line interface: train, predict, clean, eval, contam, calib.

Hyperparameter flags use the single-dash names conventional for supervised
text classifiers (-minCount, -minn, -maxn, -bucket, -dim, -epoch, -lr,
-wordNgrams, -loss, -minCountLabel).  Every subcommand also accepts
``-config FILE``: a flat UTF-8 ``key=value`` file whose keys are the flag
names with dashes replaced by underscores (e.g. ``minCount=1``,
``out_dir=clean/``).  Explicit flags override config-file values, which
override the built-in defaults.

Exit codes: 0 success, 1 usage or validation problem, 2 data error
(malformed corpus/model/report inputs), 3 I/O failure.
"""

from __future__ import annotations

import argparse
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
    DecisionConfig,
    Scenario,
    load_hierarchy,
    load_label_map,
    load_label_set,
    map_labels,
)
from .errors import FormatError, InputMismatch, LidkitError
from .evaluation import (
    EvalScope,
    confusion,
    intersect_scope,
    reliability,
    write_calibration,
    write_report,
)
from .features import FeatureConfig
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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


def _resolve(args, cfg: dict[str, str], name: str, cast: Callable, default):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, name)
    if value is not None:
        return value
    if name in cfg:
        try:
            return cast(cfg[name])
        except ValueError as exc:
            raise _UsageError(f"bad config value {name}={cfg[name]!r}: {exc}") from None
    return default


def _check_theta(theta: float) -> float:
    if not 0.0 <= theta <= 1.0:
        raise _UsageError(f"theta must be in [0, 1], got {theta}")
    return theta


def _open_input(path: str | None) -> IO[str]:
    return open(path, encoding="utf-8") if path else sys.stdin


def _iter_lines(stream: IO[str]) -> Iterator[str]:
    for raw in stream:
        yield raw.rstrip("\n")


def _report_stats(decider: Decider, start: float) -> None:
    """One JSON line on stderr: what a predict or clean run read and decided."""
    elapsed = time.perf_counter() - start
    stats = {
        "lines": decider.lines,
        "no_feature": decider.no_feature,
        "und": decider.und,
        "elapsed_s": round(elapsed, 6),
        "lines_per_s": round(decider.lines / elapsed, 1) if elapsed > 0 else 0.0,
    }
    print(json.dumps(stats), file=sys.stderr)


def _read_label_column(path: str) -> list[str]:
    """First-column labels of a TSV; corpus-format lines shed their prefix."""
    labels: list[str] = []
    with open(path, encoding="utf-8") as fh:
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
    factors: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected 'label<TAB>factor'")
            label, factor_str = parts
            try:
                factor = int(factor_str)
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: factor must be an integer"
                ) from None
            if factor < 1:
                raise FormatError(f"{path}:{lineno}: factor must be >= 1")
            if label in factors:
                raise FormatError(f"{path}:{lineno}: duplicate label {label!r}")
            factors[label] = factor
    return factors


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


def _config_from_flags(cls: type, args, cfg: dict[str, str]):
    """``cls`` from the train flags or config keys given; unset fields keep defaults."""
    given = {name: _resolve(args, cfg, flag, cast, None)
             for flag, (owner, name, cast, _) in _TRAIN_FLAGS.items() if owner is cls}
    return cls(**{name: value for name, value in given.items() if value is not None})


# --- subcommands ------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    corpus_path = _resolve(args, cfg, "input", str, None)
    model_path = _resolve(args, cfg, "output", str, None)
    if not corpus_path or not model_path:
        raise _UsageError("train needs -input and -output")
    feature_config = _config_from_flags(FeatureConfig, args, cfg)
    train_config = _config_from_flags(TrainConfig, args, cfg)
    corpus = read_corpus(corpus_path)

    def progress(epoch: int, epochs: int, avg_loss: float) -> None:
        print(f"epoch {epoch}/{epochs} avg-loss {avg_loss:.4f}", file=sys.stderr)

    model = train(corpus, feature_config, train_config, progress)
    save_model(model, model_path)
    print(f"trained {len(model.labels)} labels -> {model_path}", file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    model_path = _resolve(args, cfg, "model", str, None)
    if not model_path:
        raise _UsageError("predict needs -model")
    theta = _check_theta(_resolve(args, cfg, "theta", float, 0.0))
    k = _resolve(args, cfg, "k", int, 1)
    if k < 1:
        raise _UsageError("k must be >= 1")
    input_path = _resolve(args, cfg, "input", str, None)
    hierarchy_path = _resolve(args, cfg, "hierarchy", str, None)
    base_set_path = _resolve(args, cfg, "base_set", str, None)
    stats = _resolve(args, cfg, "stats", _parse_bool, False)

    model = load_model(model_path)
    hierarchy = load_hierarchy(hierarchy_path) if hierarchy_path else None
    # varieties are consolidated before the base-set restriction applies,
    # so the decision universe is the rolled-up label inventory
    universe: frozenset[str] = frozenset(
        hierarchy.macro_of.get(l, l) for l in model.labels
    ) if hierarchy else frozenset(model.labels)
    base_set = load_label_set(base_set_path) if base_set_path else None
    decider = Decider(model, DecisionConfig.for_model(universe, theta, base_set), hierarchy)

    start = time.perf_counter()
    stream = _open_input(input_path)
    try:
        for line in _iter_lines(stream):
            pairs = decider.rank(line, k)
            sys.stdout.write("\t".join(f"{l}\t{p}" for l, p in pairs) + "\n")
    finally:
        if stream is not sys.stdin:
            stream.close()
    if stats:
        _report_stats(decider, start)
    return 0


def _safe_filename(label: str) -> str:
    if "/" in label or "\\" in label or label in (".", ".."):
        raise LidkitError(f"model label {label!r} is not usable as a filename")
    return label + ".txt"


def cmd_clean(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    model_path = _resolve(args, cfg, "model", str, None)
    out_dir = _resolve(args, cfg, "out_dir", str, None)
    if not model_path or not out_dir:
        raise _UsageError("clean needs -model and -out-dir")
    theta = _check_theta(_resolve(args, cfg, "theta", float, 0.0))
    input_path = _resolve(args, cfg, "input", str, None)
    stats = _resolve(args, cfg, "stats", _parse_bool, False)

    model = load_model(model_path)
    decider = Decider(model, DecisionConfig.for_model(model.labels, theta))
    counts: Counter[str] = Counter()
    files: dict[str, IO[str]] = {}

    def route(label: str, text: str) -> None:
        fh = files.get(label)
        if fh is None:
            os.makedirs(out_dir, exist_ok=True)  # lazily, so empty input makes nothing
            fh = open(os.path.join(out_dir, _safe_filename(label)), "w", encoding="utf-8")
            files[label] = fh
        fh.write(text + "\n")
        counts[label] += 1

    start = time.perf_counter()
    stream = _open_input(input_path)
    try:
        for line in _iter_lines(stream):
            route(decider.decide(line), line)
    finally:
        for fh in files.values():
            fh.close()
        if stream is not sys.stdin:
            stream.close()
    write_label_tsv(sys.stdout, counts)
    if stats:
        _report_stats(decider, start)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    gold_path = _resolve(args, cfg, "gold", str, None)
    pred_path = _resolve(args, cfg, "pred", str, None)
    if not gold_path or not pred_path:
        raise _UsageError("eval needs -gold and -pred")
    scenario_str = _resolve(args, cfg, "scenario", str, Scenario.SET_KNOWN.value)
    try:
        scenario = Scenario(scenario_str)
    except ValueError:
        raise _UsageError(f"scenario must be one of "
                          f"{[s.value for s in Scenario]}, got {scenario_str!r}") from None
    map_path = _resolve(args, cfg, "map", str, None)
    skew_path = _resolve(args, cfg, "skew", str, None)
    model_labels_path = _resolve(args, cfg, "model_labels", str, None)
    strict = _resolve(args, cfg, "strict_labels", _parse_bool, False)

    gold = _read_label_column(gold_path)
    pred = _read_label_column(pred_path)
    if len(gold) != len(pred):
        raise InputMismatch(
            f"{gold_path} has {len(gold)} rows but {pred_path} has {len(pred)}"
        )
    if map_path:
        label_map = load_label_map(map_path)
        gold = map_labels(gold, label_map, strict=strict)
        pred = map_labels(pred, label_map, strict=strict)

    if skew_path:
        factors = _read_skew_factors(skew_path)
        inflated_gold: list[str] = []
        inflated_pred: list[str] = []
        for g, p in zip(gold, pred):
            n = factors.get(g, 1)
            inflated_gold.extend([g] * n)
            inflated_pred.extend([p] * n)
        gold, pred = inflated_gold, inflated_pred

    benchmark = {l for l in gold if l != UNDETERMINED}
    if scenario is Scenario.SET_KNOWN:
        if model_labels_path:
            model_labels = set(load_label_set(model_labels_path))
            if map_path:
                model_labels = set(map_labels(sorted(model_labels), label_map, strict=False))
        else:
            model_labels = {l for l in pred if l != UNDETERMINED}
        scope = intersect_scope(model_labels, model_labels, benchmark)
    else:
        scope = EvalScope(frozenset(benchmark))
    write_report(sys.stdout, confusion(gold, pred, scope), scope)
    return 0


def cmd_contam(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    test_path = _resolve(args, cfg, "test", str, None)
    train_path = _resolve(args, cfg, "train", str, None)
    if not test_path or not train_path:
        raise _UsageError("contam needs -test and -train")
    rates = contamination_rate(read_corpus(test_path), read_corpus(train_path))
    write_label_tsv(sys.stdout, rates)
    return 0


def cmd_calib(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    gold_path = _resolve(args, cfg, "gold", str, None)
    pred_path = _resolve(args, cfg, "pred", str, None)
    if not gold_path or not pred_path:
        raise _UsageError("calib needs -gold and -pred")
    n_bins = _resolve(args, cfg, "bins", int, 10)
    if n_bins < 1:
        raise _UsageError("bins must be >= 1")

    gold = _read_label_column(gold_path)
    pred_labels: list[str] = []
    confidences: list[float] = []
    with open(pred_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.rstrip("\n").split("\t")
            if len(parts) < 2:
                raise FormatError(f"{pred_path}:{lineno}: expected 'label<TAB>prob'")
            try:
                conf = float(parts[1])
            except ValueError:
                raise FormatError(f"{pred_path}:{lineno}: bad probability") from None
            if not 0.0 <= conf <= 1.0:
                raise FormatError(f"{pred_path}:{lineno}: probability out of [0, 1]")
            pred_labels.append(parts[0])
            confidences.append(conf)
    bins = reliability(pred_labels, confidences, gold, n_bins)
    write_calibration(sys.stdout, bins)
    return 0


# --- wiring -----------------------------------------------------------------


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("-config", help="key=value config file (flags override it)")


def _add_stats_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("-stats", action="store_true", default=None,
                   help="write a JSON line of line counts and lines/s to stderr")


def build_parser() -> _Parser:
    parser = _Parser(prog="lidkit", allow_abbrev=False,
                     description="Train, run, and evaluate a language identifier.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", allow_abbrev=False,
                       help="train a classifier and write a model file")
    p.add_argument("-input", help="labeled training corpus")
    p.add_argument("-output", help="model file to write")
    for flag, (cls, name, cast, text) in _TRAIN_FLAGS.items():
        p.add_argument(f"-{flag}", type=cast, help=f"{text} (default {getattr(cls(), name)})")
    _add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", allow_abbrev=False,
                       help="label sentences line by line as TSV")
    p.add_argument("-model", help="model file")
    p.add_argument("-input", help="sentences, one per line (default stdin)")
    p.add_argument("-theta", type=float,
                   help="confidence threshold; below it emit 'und' (default 0)")
    p.add_argument("-k", type=int, help="emit the top k (label, prob) pairs (default 1)")
    p.add_argument("-base-set", dest="base_set",
                   help="file of benchmark labels to restrict predictions to")
    p.add_argument("-hierarchy",
                   help="variety<TAB>macrolanguage file; consolidates before deciding")
    _add_stats_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("clean", allow_abbrev=False,
                       help="route lines into per-language files")
    p.add_argument("-model", help="model file")
    p.add_argument("-input", help="sentences, one per line (default stdin)")
    p.add_argument("-out-dir", dest="out_dir", help="directory for <label>.txt files")
    p.add_argument("-theta", type=float,
                   help="confidence threshold; below it route to und.txt (default 0)")
    _add_stats_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("eval", allow_abbrev=False,
                       help="score a prediction file against gold labels")
    p.add_argument("-gold", help="gold labels (first TSV column, or a labeled corpus)")
    p.add_argument("-pred", help="predicted labels (first TSV column)")
    p.add_argument("-map", help="source<TAB>target relabeling applied to both sides")
    p.add_argument("-scenario", choices=[s.value for s in Scenario],
                   help="set-known scores benchmark ∩ model labels; "
                        "set-unknown scores the full benchmark (default set-known)")
    p.add_argument("-model-labels", dest="model_labels",
                   help="file listing the model's labels (default: labels seen in -pred)")
    p.add_argument("-skew", help="label<TAB>factor file; replicates gold rows")
    p.add_argument("-strict-labels", dest="strict_labels", action="store_true",
                   default=None, help="fail on labels missing from -map")
    _add_config_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("contam", allow_abbrev=False,
                       help="per-label train/test contamination rates")
    p.add_argument("-test", help="labeled test corpus")
    p.add_argument("-train", help="labeled training corpus")
    _add_config_flag(p)
    p.set_defaults(func=cmd_contam)

    p = sub.add_parser("calib", allow_abbrev=False,
                       help="reliability bins from predictions with confidences")
    p.add_argument("-gold", help="gold labels (first TSV column)")
    p.add_argument("-pred", help="label<TAB>prob predictions (as from predict)")
    p.add_argument("-bins", type=int, help="number of bins (default 10)")
    _add_config_flag(p)
    p.set_defaults(func=cmd_calib)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] in (["--version"], ["-version"]):
        print(f"lidkit {__version__} (model format v{MODEL_FORMAT_VERSION})")
        return 0
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
