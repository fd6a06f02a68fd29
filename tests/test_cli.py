import io
import os
import random
import re
import sys

import pytest

from lidkit.cli import main
from lidkit.features import FeatureConfig
from lidkit.model import TrainConfig, load_model

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
        assert open(a, "rb").read() == open(b, "rb").read()

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
        text = open(workdir["corpus"], encoding="utf-8").read()
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
        rc, _, err = run(
            capsys,
            ["train", "-input", workdir["corpus"], "-output", str(out), "-minCount", "1",
             "-dim", "4", "-epoch", "3", "-bucket", "500", "-lr", "1e30"],
        )
        assert rc == 1
        assert re.search(r"training diverged at step \d+", err)
        assert err.count("avg-loss") < 2
        assert not out.exists()

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
    ])
    def test_help_names_the_dataclass_default(self, flag, default, capsys):
        with pytest.raises(SystemExit):
            main(["train", "-h"])
        out = capsys.readouterr().out
        options = " ".join(out[out.index("-h, --help"):].split())
        match = re.search(rf"-{flag} {flag.upper()} [^()]*\(default ([^)]*)\)", options)
        assert match and match.group(1) == str(default)

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

    def test_theta_out_of_range_is_usage_error(self, workdir, capsys):
        rc, _, _ = run(
            capsys, ["predict", "-model", workdir["strong"], "-theta", "1.01"]
        )
        assert rc == 1

    def test_corrupt_model_is_data_error(self, workdir, tmp_path, capsys):
        blob = bytearray(open(workdir["strong"], "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        rc, _, err = run(capsys, ["predict", "-model", str(bad)])
        assert rc == 2
        assert "error" in err

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
        assert "" in [l.rstrip("\n") for l in open(out_dir / "und.txt")]

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
