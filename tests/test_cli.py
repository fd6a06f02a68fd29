import io
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import lidkit
from lidkit.cli import _TRAIN_FLAGS, main
from lidkit.features import FeatureConfig
from lidkit.model import TrainConfig, load_model, save_model

pytestmark = pytest.mark.usefixtures("capsys")


def make_corpus(path, n_langs=3, lines_per_lang=80, seed=0):
    """Languages over disjoint alphabets; trivially separable."""
    rng = random.Random(seed)
    names = ["aaa", "bbb", "ccc", "ddd"][:n_langs]
    with open(path, "w", encoding="utf-8") as fh:
        for lang, name in enumerate(names):
            alphabet = [chr(0x4E00 + 64 * lang + i) for i in range(20)]
            lexicon = [
                "".join(rng.choices(alphabet, k=rng.randint(2, 5)))
                for _ in range(30)
            ]
            for _ in range(lines_per_lang):
                text = " ".join(rng.choices(lexicon, k=rng.randint(3, 8)))
                fh.write(f"__label__{name} {text}\n")
    return names


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus.txt")
    make_corpus(corpus)
    strong = str(root / "strong.bin")
    weak = str(root / "weak.bin")
    base = ["-input", corpus, "-minCount", "1", "-bucket", "2000", "-seed", "7"]
    assert main(["train", *base, "-output", strong, "-dim", "8", "-epoch", "3"]) == 0
    assert main(
        ["train", *base, "-output", weak, "-dim", "4", "-epoch", "1", "-lr", "0.01"]
    ) == 0
    return {"root": root, "corpus": corpus, "strong": strong, "weak": weak}


def corpus_rows(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            head, text = line.rstrip("\n").split(" ", 1)
            rows.append((head[len("__label__"):], text))
    return rows


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestTrain:
    def test_writes_model_and_reports_progress(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "m.bin")
        rc, _, err = run(
            capsys,
            ["train", "-input", workdir["corpus"], "-output", out,
             "-minCount", "1", "-dim", "4", "-epoch", "2", "-bucket", "500"],
        )
        assert rc == 0
        assert os.path.getsize(out) > 0
        assert err.count("avg-loss") == 2
        assert "trained 3 labels" in err

    def test_deterministic_output_bytes(self, workdir, tmp_path, capsys):
        args = ["train", "-input", workdir["corpus"], "-minCount", "1",
                "-dim", "4", "-epoch", "1", "-bucket", "500", "-seed", "3"]
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        assert main([*args, "-output", a]) == 0
        assert main([*args, "-output", b]) == 0
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_missing_corpus_is_io_error(self, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            ["train", "-input", str(tmp_path / "nope.txt"),
             "-output", str(tmp_path / "m.bin")],
        )
        assert rc == 3
        assert "i/o error" in err

    def test_bad_flag_value_is_usage_error(self, workdir, tmp_path, capsys):
        rc, _, err = run(
            capsys,
            ["train", "-input", workdir["corpus"],
             "-output", str(tmp_path / "m.bin"), "-dim", "0", "-minCount", "1"],
        )
        assert rc == 1

    def test_reserved_und_label_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "und.txt"
        corpus.write_text("__label__eng hello\n__label__und hello there\n")
        rc, _, err = run(
            capsys,
            ["train", "-input", str(corpus), "-output", str(tmp_path / "m.bin"),
             "-minCount", "1"],
        )
        assert rc == 2
        assert "line 2" in err and "reserved" in err
        assert not (tmp_path / "m.bin").exists()

    def test_lines_of_labels_below_min_count_label_are_skipped(self, workdir, tmp_path, capsys):
        corpus = tmp_path / "rare.txt"
        text = Path(workdir["corpus"]).read_text(encoding="utf-8")
        corpus.write_text(text + "__label__zzz one rare line\n", encoding="utf-8")
        out = tmp_path / "m.bin"
        rc, _, err = run(
            capsys,
            ["train", "-input", str(corpus), "-output", str(out), "-minCount", "1",
             "-minCountLabel", "2", "-dim", "4", "-epoch", "1", "-bucket", "500"],
        )
        assert rc == 0, err
        assert load_model(str(out)).labels == ("aaa", "bbb", "ccc")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_1_before_the_second_epoch(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.bin"
        # numpy warnings go through the warnings module, which pytest would
        # capture apart from stderr; record them to see what stderr would show
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _, err = run(
                capsys,
                ["train", "-input", workdir["corpus"], "-output", str(out), "-minCount", "1",
                 "-dim", "4", "-epoch", "3", "-bucket", "500", "-lr", "1e30"],
            )
        assert rc == 1
        assert re.search(r"training diverged at step \d+", err)
        assert err.count("avg-loss") < 2
        assert not out.exists()
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("flag, default", [
        ("minCount", FeatureConfig().min_count),
        ("minCountLabel", FeatureConfig().min_count_label),
        ("wordNgrams", FeatureConfig().word_ngrams),
        ("bucket", FeatureConfig().bucket),
        ("minn", FeatureConfig().minn),
        ("maxn", FeatureConfig().maxn),
        ("dim", TrainConfig().dim),
        ("epoch", TrainConfig().epochs),
        ("lr", TrainConfig().lr),
        ("loss", TrainConfig().loss),
        ("alpha", TrainConfig().inv_temperature),
        ("seed", TrainConfig().seed),
        # the other subcommands' options, as "command -flag"
        ("predict -theta", 0.0),
        ("predict -k", 1),
        ("clean -theta", 0.0),
        ("eval -scenario", "set-known"),
        ("calib -bins", 10),
    ])
    def test_help_names_the_dataclass_default(self, flag, default, capsys):
        command, _, flag = flag.rpartition(" -")
        with pytest.raises(SystemExit):
            main([command or "train", "-h"])
        out = capsys.readouterr().out
        options = " ".join(out[out.index("-h, --help"):].split())
        # the metavar is the flag in capitals, or the {choices}
        match = re.search(rf"-{flag} (?:{flag.upper()}|{{[^}}]*}}) [^()]*\(default ([^)]*)\)",
                          options)
        assert match and match.group(1) == str(default)

    def test_readme_table_lists_every_flag_with_its_dataclass_default(self):
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("\n### train\n", 1)[1].split("\n### ", 1)[0]
        documented = {}
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`-"):
                # a row may pair flags, as "`-minn` / `-maxn` | 2 / 5"
                flags = [flag.strip("` ")[1:] for flag in cells[0].split("/")]
                defaults = [default.strip() for default in cells[1].split("/")]
                assert len(flags) == len(defaults), line
                documented.update(zip(flags, defaults))
        assert sorted(documented) == sorted(_TRAIN_FLAGS)
        for flag, (cls, name, _, _) in _TRAIN_FLAGS.items():
            assert documented[flag] == str(getattr(cls(), name)), flag

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("no label prefix here\n")
        rc, _, err = run(
            capsys,
            ["train", "-input", str(bad), "-output", str(tmp_path / "m.bin"),
             "-minCount", "1"],
        )
        assert rc == 2
        assert "error" in err


class TestPredict:
    def test_labels_training_sentences(self, workdir, tmp_path, capsys):
        rows = corpus_rows(workdir["corpus"])
        sentences = tmp_path / "in.txt"
        sentences.write_text("".join(t + "\n" for _, t in rows), encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences)],
        )
        assert rc == 0
        predicted = [line.split("\t")[0] for line in out.splitlines()]
        agree = sum(p == g for p, (g, _) in zip(predicted, rows))
        assert agree / len(rows) >= 0.99

    def test_zero_theta_never_undetermined(self, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.txt"
        sentences.write_text("x\ny y\nz z z\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences),
             "-theta", "0"],
        )
        assert rc == 0
        assert all(l.split("\t")[0] != "und" for l in out.splitlines())

    def test_high_theta_yields_undetermined(self, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.txt"
        sentences.write_text("anything at all\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["weak"], "-input", str(sentences),
             "-theta", "1.0"],
        )
        assert rc == 0
        label, prob = out.splitlines()[0].split("\t")
        assert label == "und"
        assert 0.0 < float(prob) < 1.0  # the failed base-set maximum

    def test_top_k_emits_k_pairs(self, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.txt"
        sentences.write_text("w\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences),
             "-k", "2"],
        )
        fields = out.splitlines()[0].split("\t")
        assert rc == 0 and len(fields) == 4
        assert float(fields[1]) >= float(fields[3])

    def test_blank_line_gets_full_mass_sentinel(self, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.txt"
        sentences.write_text("\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences)],
        )
        assert rc == 0
        assert out == "und\t1.0\n"

    def test_reads_stdin_by_default(self, workdir, capsys, monkeypatch):
        rows = corpus_rows(workdir["corpus"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(rows[0][1] + "\n"))
        rc, out, _ = run(capsys, ["predict", "-model", workdir["strong"]])
        assert rc == 0
        assert out.split("\t")[0] == rows[0][0]

    def test_base_set_restricts_decisions(self, workdir, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("ccc\n", encoding="utf-8")
        rows = corpus_rows(workdir["corpus"])
        sentences = tmp_path / "in.txt"
        sentences.write_text(rows[0][1] + "\n", encoding="utf-8")  # an aaa line
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences),
             "-base-set", str(base)],
        )
        assert rc == 0
        assert out.split("\t")[0] == "ccc"  # only candidate at theta 0

    def test_base_set_with_theta_abstains_on_raw_mass(self, workdir, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_text("ccc\n", encoding="utf-8")
        rows = corpus_rows(workdir["corpus"])
        sentences = tmp_path / "in.txt"
        sentences.write_text(rows[0][1] + "\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences),
             "-base-set", str(base), "-theta", "0.9"],
        )
        assert rc == 0
        assert out.split("\t")[0] == "und"

    def test_base_set_with_a_lone_carriage_return_is_data_error(self, workdir, tmp_path, capsys):
        base = tmp_path / "base.txt"
        base.write_bytes(b"aaa\rbbb\n")  # one line, whose label holds a \r
        rc, out, err = run(
            capsys, ["predict", "-model", workdir["strong"], "-base-set", str(base)]
        )
        assert rc == 2
        assert out == ""
        assert "label contains whitespace" in err

    def test_hierarchy_folds_varieties(self, workdir, tmp_path, capsys):
        hier = tmp_path / "h.tsv"
        hier.write_text("bbb\taaa\n", encoding="utf-8")
        rows = corpus_rows(workdir["corpus"])
        bbb_text = next(t for g, t in rows if g == "bbb")
        sentences = tmp_path / "in.txt"
        sentences.write_text(bbb_text + "\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences),
             "-hierarchy", str(hier), "-k", "2"],
        )
        assert rc == 0
        fields = out.splitlines()[0].split("\t")
        assert fields[0] == "aaa"  # bbb's mass lands on its macrolanguage
        assert {fields[0], fields[2]} == {"aaa", "ccc"}

    def test_hierarchy_into_und_is_data_error(self, workdir, tmp_path, capsys):
        hier = tmp_path / "h.tsv"
        hier.write_text("aaa\tund\n", encoding="utf-8")
        aaa_text = next(t for g, t in corpus_rows(workdir["corpus"]) if g == "aaa")
        sentences = tmp_path / "in.txt"
        sentences.write_text(aaa_text + "\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(sentences),
             "-hierarchy", str(hier)],
        )
        assert rc == 2
        assert out == ""

    def test_base_set_of_folded_varieties_is_data_error(self, workdir, tmp_path, capsys):
        hier = tmp_path / "h.tsv"
        hier.write_text("bbb\taaa\n", encoding="utf-8")
        base = tmp_path / "base.txt"
        base.write_text("bbb\n", encoding="utf-8")  # a model label, folded into aaa
        rc, out, err = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-hierarchy", str(hier),
             "-base-set", str(base)],
        )
        assert rc == 2
        assert out == ""
        assert "base set shares no labels with the model's labels after the rollup" in err

    def test_theta_out_of_range_is_usage_error(self, workdir, capsys):
        rc, _, _ = run(
            capsys, ["predict", "-model", workdir["strong"], "-theta", "1.01"]
        )
        assert rc == 1

    def test_corrupt_model_is_data_error(self, workdir, tmp_path, capsys):
        blob = bytearray(Path(workdir["strong"]).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        rc, _, err = run(capsys, ["predict", "-model", str(bad)])
        assert rc == 2
        assert "error" in err

    def test_non_finite_weight_is_data_error(self, workdir, tmp_path, capsys):
        model = load_model(workdir["strong"])
        model.input_embeddings[5, 1] = float("nan")  # save_model does not check
        bad = str(tmp_path / "nan.bin")
        save_model(model, bad)
        rc, out, err = run(capsys, ["predict", "-model", bad])
        assert rc == 2 and out == ""
        assert "non-finite weight in input_embeddings row 5" in err

    def test_missing_model_is_io_error(self, tmp_path, capsys):
        rc, _, _ = run(capsys, ["predict", "-model", str(tmp_path / "no.bin")])
        assert rc == 3


class TestClean:
    def test_partitions_input(self, workdir, tmp_path, capsys):
        rows = corpus_rows(workdir["corpus"])
        texts = [t for _, t in rows][:120] + [""]  # blank goes to und.txt
        sentences = tmp_path / "in.txt"
        sentences.write_text("".join(t + "\n" for t in texts), encoding="utf-8")
        out_dir = tmp_path / "routed"
        rc, out, _ = run(
            capsys,
            ["clean", "-model", workdir["strong"], "-input", str(sentences),
             "-out-dir", str(out_dir)],
        )
        assert rc == 0
        counts = dict(
            (l.split("\t")[0], int(l.split("\t")[1])) for l in out.splitlines()
        )
        assert sum(counts.values()) == len(texts)
        routed = []
        for name in os.listdir(out_dir):
            with open(out_dir / name, encoding="utf-8") as fh:
                lines = [l.rstrip("\n") for l in fh]
            assert counts[name.removesuffix(".txt")] == len(lines)
            routed.extend(lines)
        assert sorted(routed) == sorted(texts)
        with open(out_dir / "und.txt") as fh:
            assert "" in [l.rstrip("\n") for l in fh]

    def test_impossible_theta_routes_everything_to_und(self, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.txt"
        sentences.write_text("one line\nanother line\n", encoding="utf-8")
        out_dir = tmp_path / "routed"
        rc, out, _ = run(
            capsys,
            ["clean", "-model", workdir["weak"], "-input", str(sentences),
             "-out-dir", str(out_dir), "-theta", "1.0"],
        )
        assert rc == 0
        assert os.listdir(out_dir) == ["und.txt"]
        assert out == "und\t2\n"

    def test_empty_input_creates_nothing(self, workdir, tmp_path, capsys):
        sentences = tmp_path / "in.txt"
        sentences.write_text("", encoding="utf-8")
        out_dir = tmp_path / "routed"
        rc, out, _ = run(
            capsys,
            ["clean", "-model", workdir["strong"], "-input", str(sentences),
             "-out-dir", str(out_dir)],
        )
        assert rc == 0
        assert out == ""
        assert not out_dir.exists()


# longer than the 255-byte file name limit of common file systems
LONG_LABEL = "b" * 300


@pytest.fixture(scope="module")
def unsafe_models(workdir):
    """Per unsafe label, a model trained with bbb renamed to that label."""
    with open(workdir["corpus"], encoding="utf-8") as fh:
        corpus = fh.read()
    models = {}
    for i, label in enumerate(["b/c", "b\x00c", LONG_LABEL]):
        path = workdir["root"] / f"unsafe{i}.txt"
        path.write_text(corpus.replace("__label__bbb ", f"__label__{label} "), encoding="utf-8")
        models[label] = str(workdir["root"] / f"unsafe{i}.bin")
        assert main(["train", "-input", str(path), "-output", models[label], "-minCount", "1",
                     "-bucket", "2000", "-seed", "7", "-dim", "8", "-epoch", "3"]) == 0
    return models


class TestServeLoop:
    """`predict` and `clean` share one loop: how it reads the input in
    chunks, closes it and reports."""

    def long_input(self, workdir):
        # more than two BATCH_LINES chunks, blank lines among them, and a
        # line with a "\r" inside and one ending in "\r": lines end at "\n"
        texts = [t for _, t in corpus_rows(workdir["corpus"])] + [""]
        crs = [texts[0] + "\r" + texts[1], texts[2] + "\r"]
        return "".join(t + "\n" for t in (texts * 11)[:2498] + crs)

    def serve(self, capsys, monkeypatch, argv, text, source):
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        else:
            with open("in.txt", "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = argv + ["-input", "in.txt"]
        rc, out, err = run(capsys, argv + ["-stats"])
        assert rc == 0
        assert source != "stdin" or not sys.stdin.closed
        stats = json.loads(err)
        return out, {key: stats[key] for key in ("lines", "no_feature", "und")}

    def test_stdin_and_input_file_give_the_same_output(self, workdir, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = self.long_input(workdir)
        argv = ["predict", "-model", workdir["strong"], "-k", "2", "-theta", "0.8"]
        out, stats = self.serve(capsys, monkeypatch, argv, text, "stdin")
        assert self.serve(capsys, monkeypatch, argv, text, "file") == (out, stats)
        assert len(out.splitlines()) == stats["lines"] == 2500
        assert 0 < stats["no_feature"] < stats["und"] < 2500
        rows = out.splitlines()
        assert stats["und"] == sum(row.split("\t")[0] == "und" for row in rows)
        assert stats["no_feature"] == rows.count("und\t1.0")

        routed = {}
        for source in ("stdin", "file"):
            out_dir = tmp_path / source
            argv = ["clean", "-model", workdir["strong"], "-theta", "0.8",
                    "-out-dir", str(out_dir)]
            result = self.serve(capsys, monkeypatch, argv, text, source)
            files = {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
            routed[source] = result, files
        assert routed["stdin"] == routed["file"]
        (_, clean_stats), files = routed["file"]
        assert clean_stats == stats
        assert "und.txt" in files and len(files) > 1

    def cli(self, argv, stdin, **env):
        """The CLI in a child process whose stdin is the bytes ``stdin``,
        with ``env`` over the environment and no PYTHONIOENCODING of it."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(lidkit.__file__)))
        base = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        base.pop("PYTHONIOENCODING", None)
        return subprocess.run([sys.executable, "-m", "lidkit.cli", *argv], input=stdin,
                              env={**base, **env}, capture_output=True, timeout=60)

    @pytest.mark.parametrize("command", ["predict", "clean"])
    def test_bytes_that_are_not_utf8_on_stdin_are_a_data_error(self, workdir, tmp_path,
                                                              command):
        argv = [command, "-model", workdir["strong"]]
        if command == "clean":
            argv += ["-out-dir", str(tmp_path / "routed")]
        run = self.cli(argv, b"hello\n\xff\xfe bad\n", LC_ALL="C")
        assert run.returncode == 2
        assert run.stderr.decode().startswith("data error:")

    def test_stdin_is_read_as_utf8_whatever_the_io_encoding(self, workdir, tmp_path):
        rows = corpus_rows(workdir["corpus"])
        text = "".join(t + "\n" for _, t in rows[::40]) + "h\u00e9llo w\u00f6rld\nb\u00f6njour\n"
        sentences = tmp_path / "in.txt"
        sentences.write_text(text, encoding="utf-8")
        argv = ["predict", "-model", workdir["strong"], "-k", "2"]
        piped, named = (self.cli(argv + extra, stdin, PYTHONIOENCODING="latin-1")
                        for extra, stdin in (([], text.encode()),
                                             (["-input", str(sentences)], b"")))
        assert piped.returncode == named.returncode == 0
        assert len(piped.stdout.splitlines()) == text.count("\n")
        assert piped.stdout == named.stdout

    @pytest.mark.parametrize("label", ["b/c", "b\x00c", pytest.param(LONG_LABEL, id="b*300")])
    def test_unsafe_label_is_a_data_error_that_closes_every_file(
            self, unsafe_models, workdir, tmp_path, capsys, monkeypatch, label):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("lidkit.cli.open", recording_open, raising=False)
        rows = corpus_rows(workdir["corpus"])
        # an aaa line opens aaa.txt before a bbb line meets the unsafe label
        text = next(t for g, t in rows if g == "aaa") + "\n" + next(
            t for g, t in rows if g == "bbb") + "\n"
        sentences = tmp_path / "in.txt"
        sentences.write_text(text, encoding="utf-8")
        argv = ["clean", "-model", unsafe_models[label], "-out-dir", str(tmp_path / "routed")]
        rc, out, err = run(capsys, argv + ["-input", str(sentences)])
        assert rc == 2 and out == ""
        assert "is not usable as a filename" in err
        assert [os.path.basename(fh.name) for fh in opened] == ["in.txt", "aaa.txt"]
        assert all(fh.closed for fh in opened)

        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, argv)[0] == 2
        assert not sys.stdin.closed


def macro_row(report):
    for line in report.splitlines():
        if line.startswith("__macro__\t"):
            return line.split("\t")
    raise AssertionError(f"no macro row in {report!r}")


class TestEval:
    def write(self, tmp_path, name, labels):
        p = tmp_path / name
        p.write_text("".join(l + "\n" for l in labels), encoding="utf-8")
        return str(p)

    def test_perfect_predictions(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["aa", "bb", "aa"])
        pred = self.write(tmp_path, "pred.txt", ["aa", "bb", "aa"])
        rc, out, _ = run(capsys, ["eval", "-gold", gold, "-pred", pred])
        assert rc == 0
        row = macro_row(out)
        assert float(row[5]) == 1.0  # macro F1
        assert float(row[6]) == 0.0  # macro FPR

    def test_gold_may_be_corpus_format(self, tmp_path, capsys):
        gold = self.write(
            tmp_path, "gold.txt", ["__label__aa some text", "__label__bb more"]
        )
        pred = self.write(tmp_path, "pred.txt", ["aa", "bb"])
        rc, out, _ = run(capsys, ["eval", "-gold", gold, "-pred", pred])
        assert rc == 0
        assert float(macro_row(out)[5]) == 1.0

    def test_map_consolidates_both_sides(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["pes", "prs", "fas"])
        pred = self.write(tmp_path, "pred.txt", ["fas", "fas", "pes"])
        map_file = tmp_path / "map.tsv"
        map_file.write_text("pes\tfas\nprs\tfas\nfas\tfas\n", encoding="utf-8")
        rc, out, _ = run(
            capsys, ["eval", "-gold", gold, "-pred", pred, "-map", str(map_file)]
        )
        assert rc == 0
        assert float(macro_row(out)[5]) == 1.0

    def test_strict_labels_rejects_unmapped(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["eng"])
        pred = self.write(tmp_path, "pred.txt", ["eng"])
        map_file = tmp_path / "map.tsv"
        map_file.write_text("pes\tfas\n", encoding="utf-8")
        rc, _, err = run(
            capsys,
            ["eval", "-gold", gold, "-pred", pred, "-map", str(map_file),
             "-strict-labels"],
        )
        assert rc == 2
        assert "eng" in err

    def test_misaligned_files_are_data_error(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["aa", "bb"])
        pred = self.write(tmp_path, "pred.txt", ["aa"])
        rc, _, _ = run(capsys, ["eval", "-gold", gold, "-pred", pred])
        assert rc == 2

    def test_scenarios_change_the_scope(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["aa", "aa", "bb"])
        pred = self.write(tmp_path, "pred.txt", ["aa", "aa", "aa"])
        rc, known, _ = run(
            capsys,
            ["eval", "-gold", gold, "-pred", pred, "-scenario", "set-known"],
        )
        assert rc == 0
        rc, unknown, _ = run(
            capsys,
            ["eval", "-gold", gold, "-pred", pred, "-scenario", "set-unknown"],
        )
        assert rc == 0
        # set-known scopes to pred ∩ gold = {aa}; set-unknown scores all of
        # gold, so the never-predicted bb drags the macro average down.
        assert [l.split("\t")[0] for l in known.splitlines()[1:]] == ["aa", "__macro__"]
        assert float(macro_row(unknown)[5]) < float(macro_row(known)[5])

    def test_model_labels_file_narrows_known_scope(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["aa", "bb"])
        pred = self.write(tmp_path, "pred.txt", ["aa", "bb"])
        labels = tmp_path / "labels.txt"
        labels.write_text("aa\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["eval", "-gold", gold, "-pred", pred, "-model-labels", str(labels)],
        )
        assert rc == 0
        assert [l.split("\t")[0] for l in out.splitlines()[1:]] == ["aa", "__macro__"]

    @pytest.mark.parametrize("pred_labels, model_labels", [
        (["und", "und"], None),  # all abstentions: no model label seen
        (["aa", "bb"], ""),  # an empty -model-labels file
        (["cc", "cc"], None),  # predictions disjoint from the gold labels
    ])
    def test_empty_known_scope_is_data_error(self, tmp_path, capsys, pred_labels,
                                             model_labels):
        gold = self.write(tmp_path, "gold.txt", ["aa", "bb"])
        pred = self.write(tmp_path, "pred.txt", pred_labels)
        argv = ["eval", "-gold", gold, "-pred", pred, "-scenario", "set-known"]
        if model_labels is not None:
            labels = tmp_path / "labels.txt"
            labels.write_text(model_labels, encoding="utf-8")
            argv += ["-model-labels", str(labels)]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ")  # a data error, not "invalid value"

    def test_skew_replicates_gold_rows(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["aa", "aa", "bb"])
        pred = self.write(tmp_path, "pred.txt", ["aa", "aa", "aa"])
        skew = tmp_path / "skew.tsv"
        skew.write_text("bb\t3\n", encoding="utf-8")
        rc, out, _ = run(
            capsys,
            ["eval", "-gold", gold, "-pred", pred, "-skew", str(skew),
             "-scenario", "set-unknown"],
        )
        assert rc == 0
        aa_row = next(l for l in out.splitlines() if l.startswith("aa\t"))
        _, tp, fp, fn, tn, _, _, cl = aa_row.split("\t")
        assert (int(tp), int(fp)) == (2, 3)
        assert float(cl) == pytest.approx(2 / 5)

    @pytest.mark.parametrize("rows, needle", [
        ("bb\t0\n", "skew.tsv:1: factor must be an integer >= 1"),
        ("# comment\n\nbb\t+3\n", "skew.tsv:3: factor must be an integer >= 1"),
        ("bb\t\u0663\n", "skew.tsv:1: factor must be an integer >= 1"),  # an Arabic-Indic 3
        ("bb\t3\nbb\t2\n", "skew.tsv:2: duplicate source label 'bb'"),
        ("bb 3\n", "skew.tsv:1: expected"),
    ])
    def test_bad_skew_file_is_data_error(self, tmp_path, capsys, rows, needle):
        gold = self.write(tmp_path, "gold.txt", ["aa", "bb"])
        skew = tmp_path / "skew.tsv"
        skew.write_text(rows, encoding="utf-8")
        rc, _, err = run(capsys, ["eval", "-gold", gold, "-pred", gold, "-skew", str(skew)])
        assert rc == 2 and needle in err

    def test_undetermined_stays_out_of_scope(self, tmp_path, capsys):
        gold = self.write(tmp_path, "gold.txt", ["aa", "bb"])
        pred = self.write(tmp_path, "pred.txt", ["aa", "und"])
        rc, out, _ = run(
            capsys,
            ["eval", "-gold", gold, "-pred", pred, "-scenario", "set-unknown"],
        )
        assert rc == 0
        labels = [l.split("\t")[0] for l in out.splitlines()[1:]]
        assert labels == ["aa", "bb", "__macro__"]
        bb_row = out.splitlines()[2].split("\t")
        assert bb_row[:5] == ["bb", "0", "0", "1", "1"]  # und = false negative


class TestContam:
    def test_reports_per_label_rates(self, tmp_path, capsys):
        train = tmp_path / "train.txt"
        train.write_text(
            "__label__aa alpha beta gamma delta epsilon\n"
            "__label__bb one two three four\n",
            encoding="utf-8",
        )
        test = tmp_path / "test.txt"
        test.write_text(
            "__label__aa alpha beta gamma delta\n"  # contained -> contaminated
            "__label__bb five six seven eight\n",   # disjoint  -> clean
            encoding="utf-8",
        )
        rc, out, _ = run(
            capsys, ["contam", "-test", str(test), "-train", str(train)]
        )
        assert rc == 0
        assert out == "aa\t1.0\nbb\t0.0\n"


class TestCalib:
    def test_bins_output(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("aa\nbb\n", encoding="utf-8")
        pred = tmp_path / "pred.txt"
        pred.write_text("aa\t0.3\naa\t0.9\n", encoding="utf-8")
        rc, out, _ = run(
            capsys, ["calib", "-gold", str(gold), "-pred", str(pred), "-bins", "2"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "bin_lo\tbin_hi\tmean_conf\taccuracy\tn"
        assert len(lines) == 3
        assert lines[1].split("\t")[4] == "1"

    def test_bad_probability_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("aa\n", encoding="utf-8")
        pred = tmp_path / "pred.txt"
        pred.write_text("aa\t1.5\n", encoding="utf-8")
        rc, _, _ = run(capsys, ["calib", "-gold", str(gold), "-pred", str(pred)])
        assert rc == 2


class TestConfigFile:
    def test_flags_override_config(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "# training defaults\ndim=4\nminCount=1\nepoch=1\nbucket=500\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "m.bin")
        rc, _, _ = run(
            capsys,
            ["train", "-input", workdir["corpus"], "-output", out,
             "-config", str(cfg), "-dim", "8"],
        )
        assert rc == 0
        model = load_model(out)
        assert model.train_config.dim == 8  # flag wins
        assert model.feature_config.min_count == 1  # config beats default
        assert model.train_config.epochs == 1

    def test_config_supplies_required_paths(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "m.bin")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            f"input={workdir['corpus']}\noutput={out}\n"
            "minCount=1\ndim=4\nepoch=1\nbucket=500\n",
            encoding="utf-8",
        )
        rc, _, _ = run(capsys, ["train", "-config", str(cfg)])
        assert rc == 0
        assert os.path.exists(out)

    def test_bad_config_value_is_usage_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("dim=abc\n", encoding="utf-8")
        rc, _, err = run(
            capsys,
            ["train", "-input", workdir["corpus"],
             "-output", str(tmp_path / "m.bin"), "-config", str(cfg)],
        )
        assert rc == 1
        assert "dim" in err

    def test_malformed_config_line_is_data_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("just a bare word\n", encoding="utf-8")
        rc, _, _ = run(
            capsys,
            ["train", "-input", workdir["corpus"],
             "-output", str(tmp_path / "m.bin"), "-config", str(cfg)],
        )
        assert rc == 2


@pytest.fixture(scope="module")
def config_inputs(workdir):
    """Input files for every option of predict, clean, eval, contam and calib."""
    root = workdir["root"] / "config-inputs"
    root.mkdir()
    texts = [t for _, t in corpus_rows(workdir["corpus"])]
    files = {
        "in.txt": texts[::20] + ["x", ""],
        "in2.txt": texts[5::30],
        "base.txt": ["ccc"],
        "base2.txt": ["aaa"],
        "hier.tsv": ["bbb\taaa"],
        "hier2.tsv": ["ccc\taaa"],
        "gold.txt": ["aa", "aa", "bb", "cc", "dd", "ee"],
        "pred.txt": ["aa", "bb", "bb", "aa", "dd", "aa"],
        "map.tsv": ["dd\tcc"],
        "map2.tsv": ["bb\taa"],
        "skew.tsv": ["bb\t3"],
        "skew2.tsv": ["aa\t2"],
        "labels.txt": ["aa", "bb"],
        "labels2.txt": ["aa"],
        "probs.txt": ["aa\t0.3", "aa\t0.9", "bb\t0.6", "cc\t0.55", "dd\t0.1", "ee\t0.7"],
        "probs2.txt": ["aa\t0.8", "bb\t0.2", "bb\t0.6", "cc\t0.95", "dd\t0.4", "aa\t1"],
        "train.txt": ["__label__aa alpha beta gamma delta epsilon",
                      "__label__bb one two three four five"],
        "test.txt": ["__label__aa alpha beta gamma delta", "__label__bb six seven eight nine",
                     "__label__bb one two three four"],
    }
    for name, lines in files.items():
        (root / name).write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    return {name: str(root / name) for name in files} | workdir


# (command, [(config key, flag arguments, config value, another value)]); in
# each case every option changes the output, and a flag beats the other value
CONFIG_CASES = [
    ("predict", [("model", ["-model", "strong"], "strong", "weak"),
                 ("input", ["-input", "in.txt"], "in.txt", "in2.txt"),
                 ("theta", ["-theta", "0.9"], "0.9", "0.2"),
                 ("k", ["-k", "2"], "2", "3"),
                 ("hierarchy", ["-hierarchy", "hier.tsv"], "hier.tsv", "hier2.tsv"),
                 ("stats", ["-stats"], "true", "false")]),
    ("predict", [("model", ["-model", "strong"], "strong", "weak"),
                 ("input", ["-input", "in.txt"], "in.txt", "in2.txt"),
                 ("base_set", ["-base-set", "base.txt"], "base.txt", "base2.txt")]),
    ("clean", [("model", ["-model", "strong"], "strong", "weak"),
               ("input", ["-input", "in.txt"], "in.txt", "in2.txt"),
               ("out_dir", ["-out-dir", "routed"], "routed", "other"),
               ("theta", ["-theta", "0.9"], "0.9", "0.2"),
               ("stats", ["-stats"], "yes", "no")]),
    ("eval", [("gold", ["-gold", "gold.txt"], "gold.txt", "pred.txt"),
              ("pred", ["-pred", "pred.txt"], "pred.txt", "gold.txt"),
              ("map", ["-map", "map.tsv"], "map.tsv", "map2.tsv"),
              ("scenario", ["-scenario", "set-unknown"], "set-unknown", "set-known"),
              ("skew", ["-skew", "skew.tsv"], "skew.tsv", "skew2.tsv")]),
    ("eval", [("gold", ["-gold", "gold.txt"], "gold.txt", "pred.txt"),
              ("pred", ["-pred", "pred.txt"], "pred.txt", "gold.txt"),
              ("model_labels", ["-model-labels", "labels.txt"], "labels.txt", "labels2.txt")]),
    ("eval", [("gold", ["-gold", "gold.txt"], "gold.txt", "pred.txt"),
              ("pred", ["-pred", "pred.txt"], "pred.txt", "gold.txt"),
              ("map", ["-map", "map.tsv"], "map.tsv", "map2.tsv"),
              ("strict_labels", ["-strict-labels"], "on", "off")]),
    ("contam", [("test", ["-test", "test.txt"], "test.txt", "train.txt"),
                ("train", ["-train", "train.txt"], "train.txt", "test.txt")]),
    ("calib", [("gold", ["-gold", "gold.txt"], "gold.txt", "pred.txt"),
               ("pred", ["-pred", "probs.txt"], "probs.txt", "probs2.txt"),
               ("bins", ["-bins", "2"], "2", "3")]),
]


class TestConfigEveryCommand:
    """A config file drives predict, clean, eval, contam and calib as flags do."""

    @pytest.fixture(autouse=True)
    def setup(self, config_inputs, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        self.inputs, self.tmp_path, self.capsys, self.monkeypatch = (
            config_inputs, tmp_path, capsys, monkeypatch)
        self.runs = 0

    def path(self, value):
        return self.inputs.get(value, value)

    def outcome(self, command, flags, config=None):
        """Exit code, stdout, the -stats lines without timings (else all of
        stderr) and the files written, run in a fresh directory so that
        relative -out-dir values do not meet."""
        self.runs += 1
        cwd = self.tmp_path / f"run{self.runs}"
        cwd.mkdir()
        self.monkeypatch.chdir(cwd)
        argv = [command, *(self.path(a) for a in flags)]
        if config is not None:
            (cwd / "lidkit.cfg").write_text(
                "".join(f"{k}={self.path(v)}\n" for k, v in config.items()), encoding="utf-8")
            argv += ["-config", "lidkit.cfg"]
        rc, out, err = run(self.capsys, argv)
        stats = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        for line in stats:
            del line["elapsed_s"], line["lines_per_s"]
        files = {str(p.relative_to(cwd)): p.read_text(encoding="utf-8")
                 for p in sorted(cwd.rglob("*")) if p.is_file() and p.name != "lidkit.cfg"}
        return rc, out, stats or err, files

    @pytest.mark.parametrize("command, options", CONFIG_CASES)
    def test_each_option_from_the_file_equals_its_flag(self, command, options):
        flags = [a for _, args, _, _ in options for a in args]
        want = self.outcome(command, flags)
        assert want[0] in (0, 2), want  # 2: the -strict-labels case's unmapped label
        for key, args, value, _ in options:
            rest = [a for k, a2, _, _ in options if k != key for a in a2]
            assert self.outcome(command, rest, {key: value}) == want, key
            assert self.outcome(command, rest) != want, f"{key} changes nothing"
        everything = {key: value for key, _, value, _ in options}
        assert self.outcome(command, [], everything) == want

    @pytest.mark.parametrize("command, options", CONFIG_CASES)
    def test_a_flag_overrides_the_file(self, command, options):
        flags = [a for _, args, _, _ in options for a in args]
        want = self.outcome(command, flags)
        for key, _, _, other in options:
            assert self.outcome(command, flags, {key: other}) == want, key
        others = {key: other for key, _, _, other in options}
        assert self.outcome(command, flags, others) == want

    @pytest.mark.parametrize("command, options", CONFIG_CASES)
    def test_reserved_and_unknown_keys_are_ignored(self, command, options):
        config = {key: value for key, _, value, _ in options}
        want = self.outcome(command, [], config)
        config.update(func="nope", command="train", config="missing.cfg", frobnicate="1")
        assert self.outcome(command, [], config) == want

    @pytest.mark.parametrize("spelling, on", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("false", False), ("No", False), ("OFF", False),
    ])
    def test_switches_read_bool_spellings(self, spelling, on):
        inputs = {"model": "strong", "input": "in.txt"}
        _, _, stats, _ = self.outcome("predict", [], inputs | {"stats": spelling})
        assert isinstance(stats, list) is on
        rc, *_ = self.outcome("eval", [], {"gold": "gold.txt", "pred": "pred.txt",
                                           "map": "map.tsv", "strict_labels": spelling})
        assert rc == (2 if on else 0)

    # a value that cannot be cast names the config file; one out of range
    # gets the same message as from a flag
    @pytest.mark.parametrize("command, config, needle, names_file", [
        ("predict", {"model": "strong", "stats": "maybe"}, "stats", True),
        ("eval", {"gold": "gold.txt", "pred": "pred.txt", "strict_labels": "2"},
         "strict_labels", True),
        ("predict", {"model": "strong", "k": "abc"}, "-k", True),
        ("predict", {"model": "strong", "k": "0"}, "k must be >= 1", False),
        ("clean", {"model": "strong", "out_dir": "o", "theta": "high"}, "-theta", True),
        ("clean", {"model": "strong", "out_dir": "o", "theta": "1.5"}, "theta must be in [0, 1]",
         False),
        ("eval", {"gold": "gold.txt", "pred": "pred.txt", "scenario": "all"}, "scenario must be",
         False),
        ("calib", {"gold": "gold.txt", "pred": "probs.txt", "bins": "2.5"}, "-bins", True),
        ("calib", {"gold": "gold.txt", "pred": "probs.txt", "bins": "0"}, "bins must be >= 1",
         False),
    ])
    def test_bad_value_is_a_usage_error_naming_it(self, command, config, needle, names_file):
        rc, out, err, files = self.outcome(command, [], config)
        assert (rc, out, files) == (1, "", {})
        assert err.startswith("usage error: ") and needle in err
        assert ("lidkit.cfg" in err) is names_file

    def test_a_config_leaves_no_defaults_for_the_next_call(self):
        flags = ["-model", "strong", "-input", "in.txt"]
        want = self.outcome("predict", flags)
        configured = self.outcome("predict", flags, {"k": "2", "theta": "0.9", "stats": "on"})
        assert configured != want
        assert self.outcome("predict", flags) == want


class TestTopLevel:
    def test_version_flags(self, capsys):
        for flag in ("--version", "-version"):
            rc, out, _ = run(capsys, [flag])
            assert rc == 0
            assert out.startswith("lidkit ")
            assert "model format v1" in out

    def test_no_arguments_is_usage_error(self, capsys):
        rc, _, err = run(capsys, [])
        assert rc == 1
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run(capsys, ["frobnicate"])
        assert rc == 1

    def test_unknown_flag(self, workdir, capsys):
        rc, _, _ = run(capsys, ["predict", "-model", workdir["strong"], "-nope"])
        assert rc == 1

    def test_undecodable_input_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe garbage \xff\n")
        rc, _, _ = run(
            capsys,
            ["predict", "-model", workdir["strong"], "-input", str(bad)],
        )
        assert rc == 2
