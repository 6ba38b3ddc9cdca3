import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from outcentr import bench, cli, data
from outcentr.bench import (
    ConfigError,
    RunConfig,
    RunError,
    emit_report,
    load_run_config,
    load_synth_spec,
    run_experiment,
)
from outcentr.cli import main
from outcentr.data import DataError, load_csv, normalize_minmax, write_csv
from outcentr.detectors import DISTANCE_METRICS
from outcentr.ranking import attribute_rank, export_rank, load_rank, rank_diff, write_rank_diff_csv
from outcentr.synth import SynthSpec, generate


SYNTH_CONFIG = """\
[data]
source = synth
n = 240
m = 20
contamination = 0.1
n_informative = 4
separation = 4.0

[run]
reducers = none, outcentr, pca, grp
detectors = iforest, lof
seeds = 0, 1
t_fraction = 0.10
split = 0.8
output = {out}

[iforest]
n_trees = 30

[lof]
k_neighbors = 10
"""


def write_config(tmp_path, text=None, **fmt):
    path = tmp_path / "run.ini"
    fmt.setdefault("out", str(tmp_path / "results"))
    path.write_text((text or SYNTH_CONFIG).format(**fmt))
    return path


def with_byte_order_mark(path):
    """A copy of a UTF-8 file with a byte-order mark in front, as Notepad and Excel save it."""
    marked = path.with_name("bom-" + path.name)
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return marked


def test_every_reader_drops_a_byte_order_mark(tmp_path):
    spec = tmp_path / "spec.ini"
    spec.write_text("[synth]\nn = 60\nm = 8\ncontamination = 0.1\nseed = 4\n")
    rank = tmp_path / "rank.csv"
    export_rank(attribute_rank([0.4, 0.9, 0.4], ("a1", "a2", "a3"), t=2), rank)
    for load, path in ((load_run_config, write_config(tmp_path)), (load_synth_spec, spec),
                       (load_rank, rank)):
        assert load(with_byte_order_mark(path)) == load(path), path.name


def synth_run_config(tmp_path, **overrides):
    defaults = dict(
        source="synth",
        dataset_name="toy",
        synth=SynthSpec(n=240, m=20, contamination=0.1, n_informative=4),
        reducers=("none", "outcentr"),
        detectors=("iforest",),
        seeds=(0, 1),
        n_trees=30,
        output_dir=str(tmp_path / "results"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path))
        assert cfg.source == "synth"
        assert cfg.reducers == ("none", "outcentr", "pca", "grp")
        assert cfg.detectors == ("iforest", "lof")
        assert cfg.seeds == (0, 1)
        assert cfg.n_trees == 30 and cfg.k_neighbors == 10
        assert cfg.synth.n == 240
        assert cfg.dataset_name == "synth-n240-m20-c0.1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            load_run_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("load", [load_run_config, load_synth_spec])
    def test_directory_is_not_a_file(self, tmp_path, load):
        with pytest.raises(ConfigError, match="not a file"):
            load(tmp_path)

    def test_unknown_key_rejected(self, tmp_path):
        bad = SYNTH_CONFIG + "\n[run]\n"  # duplicate section is a parse error
        with pytest.raises(ConfigError):
            load_run_config(write_config(tmp_path, text=bad))
        bad = SYNTH_CONFIG.replace("t_fraction", "t_fractoin")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_run_config(write_config(tmp_path, text=bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_run_config(write_config(tmp_path, text=SYNTH_CONFIG + "\n[extra]\nx = 1\n"))

    def test_empty_detectors_is_config_error(self, tmp_path):
        bad = SYNTH_CONFIG.replace("detectors = iforest, lof", "detectors =")
        with pytest.raises(ConfigError, match="detector"):
            load_run_config(write_config(tmp_path, text=bad))

    def test_unknown_reducer(self, tmp_path):
        bad = SYNTH_CONFIG.replace("reducers = none, outcentr, pca, grp", "reducers = umap")
        with pytest.raises(ConfigError, match="unknown reducer"):
            load_run_config(write_config(tmp_path, text=bad))

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        text = (
            "[data]\nsource = synth\nn = 240\nm = 20\ncontamination = 0.1\n\n"
            "[run]\nreducers = none\ndetectors = lof\nseeds = 3\n"
        )
        cfg = load_run_config(write_config(tmp_path, text=text))
        assert cfg == RunConfig(
            source="synth",
            dataset_name="synth-n240-m20-c0.1",
            synth=SynthSpec(n=240, m=20, contamination=0.1),
            reducers=("none",),
            detectors=("lof",),
            seeds=(3,),
        )

    @pytest.mark.parametrize(
        "line",
        ["source = synth", "n = 240", "m = 20", "contamination = 0.1",
         "reducers = none, outcentr, pca, grp", "detectors = iforest, lof", "seeds = 0, 1"],
    )
    def test_missing_required_key_is_named(self, tmp_path, line):
        key = line.split(" = ")[0]
        bad = SYNTH_CONFIG.replace(line + "\n", "")
        with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
            load_run_config(write_config(tmp_path, text=bad))

    @pytest.mark.parametrize(
        "key,raw", [("n_trees", "2.5"), ("k_neighbors", "ten"), ("seeds", "0, x")]
    )
    def test_unparsable_value_is_named(self, tmp_path, key, raw):
        lines = [f"{key} = {raw}" if line.startswith(f"{key} =") else line
                 for line in SYNTH_CONFIG.splitlines()]
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            load_run_config(write_config(tmp_path, text="\n".join(lines)))

    def test_csv_source_requires_label(self, tmp_path):
        text = "[data]\nsource = csv\ncsv = data.csv\n\n[run]\nreducers = none\ndetectors = iforest\nseeds = 0\n"
        path = tmp_path / "c.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="label"):
            load_run_config(path)


class TestRunExperiment:
    def test_matrix_shape_and_fairness(self, tmp_path):
        cfg = synth_run_config(
            tmp_path,
            reducers=("none", "outcentr", "pca", "grp"),
            detectors=("iforest", "lof"),
            k_neighbors=10,
        )
        report = run_experiment(cfg)
        assert len(report.cells) == 4 * 2 * 2
        t = 2  # top_t(20, 0.10)
        for cell in report.cells:
            assert cell.fit_seconds > 0 and cell.predict_seconds > 0
            assert 0.0 <= cell.f1 <= 1.0 and 0.0 <= cell.auc <= 1.0
            expected_k = 20 if cell.reducer == "none" else t
            assert cell.k_used == expected_k

    def test_deterministic_metrics(self, tmp_path):
        cfg = synth_run_config(tmp_path)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        strip = lambda c: (c.dataset, c.reducer, c.detector, c.seed, c.k_used,
                           c.f1, c.precision, c.recall, c.auc)
        assert [strip(c) for c in a.cells] == [strip(c) for c in b.cells]

    def test_transductive_mode_runs(self, tmp_path):
        cfg = synth_run_config(tmp_path, detectors=("iforest", "lof"),
                               transductive=True, k_neighbors=5, seeds=(0,))
        report = run_experiment(cfg)
        assert len(report.cells) == 4

    def test_csv_source(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["f1,f2,f3,y"]
        for i in range(120):
            label = 1 if i < 12 else 0
            base = 3.0 if label else 0.0
            rows.append(
                f"{base + rng.normal():.6f},{rng.normal():.6f},{rng.normal():.6f},{label}"
            )
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg = RunConfig(
            source="csv",
            dataset_name="data",
            csv_path=str(csv_path),
            label_column="y",
            reducers=("outcentr",),
            detectors=("iforest",),
            seeds=(0,),
            n_trees=20,
            output_dir=str(tmp_path / "res"),
        )
        report = run_experiment(cfg)
        assert len(report.cells) == 1
        assert report.cells[0].k_used == 1

    def test_wide_dataset_uses_the_ten_percent_cutoff(self, tmp_path):
        # 286 attributes at the default fraction select 28, for every reducer
        cfg = synth_run_config(
            tmp_path,
            synth=SynthSpec(n=120, m=286, contamination=0.1, n_informative=28),
            reducers=("outcentr", "grp"),
            seeds=(0,),
            n_trees=10,
        )
        report = run_experiment(cfg)
        assert all(cell.k_used == 28 for cell in report.cells)

    def test_cell_errors_carry_the_cell_id(self, tmp_path):
        # k_neighbors >= train size makes LOF unfittable
        cfg = synth_run_config(
            tmp_path,
            synth=SynthSpec(n=24, m=4, contamination=0.2),
            detectors=("lof",),
            k_neighbors=19,
            seeds=(5,),
        )
        with pytest.raises(RunError, match="seed=5.*detector=lof"):
            run_experiment(cfg)


def subsets(items):
    return st.lists(st.sampled_from(items), min_size=1, unique=True).map(tuple)


# contamination up to 0.5 can leave the outlier class as large as the inlier one
@pytest.mark.filterwarnings("ignore:outlier class .* is not smaller:UserWarning")
@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(8, 149),
    m=st.integers(1, 24),
    contamination=st.floats(0.01, 0.5),
    n_informative=st.none() | st.integers(1, 24),
    separation=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**16),
    reducers=subsets(bench.REDUCERS),
    detectors=subsets(("iforest", "lof")),
    metric=st.sampled_from(DISTANCE_METRICS),
    transductive=st.booleans(),
    t_fraction=st.floats(0.01, 1.0),
    split_fraction=st.floats(0.05, 0.95),
    label_budget=st.floats(0.01, 1.0),
    n_trees=st.integers(1, 20),
    max_samples=st.just("auto") | st.integers(2, 160),
    k_neighbors=st.integers(1, 30),
)
def test_every_run_scores_in_range_or_fails_in_a_named_cell(
    n, m, contamination, n_informative, separation, seed, **run_settings
):
    """A run that builds either scores every cell in [0, 1] or names the cell its DataError hit."""
    try:
        spec = SynthSpec(n=n, m=m, contamination=contamination,
                         n_informative=n_informative, separation=separation)
        cfg = RunConfig(source="synth", dataset_name="prop", synth=spec, seeds=(seed,),
                        **run_settings)
    except (ConfigError, DataError):
        reject()
    try:
        report = run_experiment(cfg)
    except RunError as exc:
        assert str(exc).startswith(f"cell (dataset=prop, seed={seed}"), str(exc)
        assert isinstance(exc.__cause__, DataError), repr(exc.__cause__)
        return
    assert len(report.cells) == len(cfg.reducers) * len(cfg.detectors)
    for cell in report.cells:
        for value in (cell.f1, cell.precision, cell.recall, cell.auc):
            assert math.isfinite(value) and 0.0 <= value <= 1.0, cell


@pytest.mark.parametrize("reader", ["numpy", "row-wise"])
def test_csv_source_matches_synth_source(tmp_path, monkeypatch, reader):
    """A synthetic dataset written to CSV scores as the synth source does, through either reader."""
    if reader == "numpy":
        monkeypatch.setattr(data, "_load_csv_rows", None)  # a fallback would fail the call
    else:
        monkeypatch.setattr(data, "_load_clean_csv", lambda *args: None)
    spec = SynthSpec(n=200, m=12, contamination=0.1, n_informative=3, seed=5)
    csv_path = tmp_path / "toy.csv"
    generated = generate(spec)[0]
    write_csv(generated, csv_path)
    # the reader hands the run the generated matrix bit for bit
    loaded = load_csv(csv_path, label_column="label")
    assert loaded.values.tobytes() == generated.values.tobytes()
    assert np.array_equal(loaded.labels, generated.labels)
    common = dict(dataset_name="toy", reducers=bench.REDUCERS, detectors=("iforest", "lof"),
                  seeds=(spec.seed,), n_trees=30, k_neighbors=10)

    def columns_1_to_9(cfg):
        results, _, _ = emit_report(run_experiment(cfg), cfg.output_dir)
        return [line.split(",")[:9] for line in results.read_text().splitlines()]

    synth = RunConfig(source="synth", synth=spec, output_dir=str(tmp_path / "synth"), **common)
    from_csv = RunConfig(source="csv", csv_path=str(csv_path), label_column="label",
                         output_dir=str(tmp_path / "csv"), **common)
    assert columns_1_to_9(from_csv) == columns_1_to_9(synth)


class TestEmitReport:
    def test_row_counts_and_columns(self, tmp_path):
        cfg = synth_run_config(tmp_path, reducers=("none", "outcentr"),
                               detectors=("iforest",), seeds=(0, 1, 2))
        results, summary, timings = emit_report(run_experiment(cfg), tmp_path / "out")
        lines = results.read_text().splitlines()
        assert lines[0].startswith("dataset,reducer,detector,seed,k_used,f1")
        assert len(lines) == 1 + 2 * 3
        assert len(timings.read_text().splitlines()) == 1 + 6
        text = summary.read_text()
        assert "## toy" in text
        assert "| iforest (outcentr) |" in text
        assert "%" in text

    def test_empty_report_is_an_error(self, tmp_path):
        from outcentr.bench import ExperimentReport

        with pytest.raises(ValueError, match="empty report"):
            emit_report(ExperimentReport(cells=()), tmp_path / "out")
        assert not (tmp_path / "out" / "results.csv").exists()


class TestRankDiff:
    def export(self, tmp_path, name, scores, names, t=2):
        path = tmp_path / name
        export_rank(attribute_rank(scores, names, t=t), path)
        return path

    def test_identical_exports_have_zero_deltas(self, tmp_path):
        a = self.export(tmp_path, "a.csv", [0.9, 0.5, 0.1], ["x", "y", "z"])
        b = self.export(tmp_path, "b.csv", [0.9, 0.5, 0.1], ["x", "y", "z"])
        assert all(e.rank_delta == 0 for e in rank_diff(a, b))

    def test_rank_movement_delta(self, tmp_path):
        names = ["severity", "b", "c", "d", "e"]
        a = self.export(tmp_path, "a.csv", [0.5, 0.9, 0.7, 0.2, 0.1], names, t=3)
        # severity drops from rank 3 to rank 5
        b = self.export(tmp_path, "b.csv", [0.05, 0.9, 0.7, 0.2, 0.1], names, t=3)
        entries = rank_diff(a, b)
        entry = next(e for e in entries if e.attribute == "severity")
        assert entry.rank_a == 3 and entry.rank_b == 5
        assert entry.rank_delta == 2
        assert entry.selected_a and not entry.selected_b
        # sorted by movement, the mover comes first
        assert entries[0].attribute == "severity"

    def test_one_sided_attribute_is_marked_absent(self, tmp_path):
        a = self.export(tmp_path, "a.csv", [0.9, 0.5], ["x", "y"], t=1)
        b = self.export(tmp_path, "b.csv", [0.9, 0.5, 0.4], ["x", "authentication", "y"], t=2)
        newcomer = next(e for e in rank_diff(a, b) if e.attribute == "authentication")
        assert newcomer.rank_a is None and newcomer.rank_b == 2
        assert newcomer.rank_delta is None
        assert newcomer.selected_b is True

    def test_csv_export(self, tmp_path):
        a = self.export(tmp_path, "a.csv", [0.9, 0.5], ["x", "y"])
        b = self.export(tmp_path, "b.csv", [0.5, 0.9], ["x", "y"])
        out = tmp_path / "diff.csv"
        write_rank_diff_csv(rank_diff(a, b), out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("attribute,rank_a,rank_b")
        assert len(lines) == 3

    def test_cli_negative_top_is_exit_1(self, tmp_path, capsys):
        a = self.export(tmp_path, "a.csv", [0.9, 0.5, 0.1], ["x", "y", "z"])
        assert main(["rank-diff", str(a), str(a), "--top", "-2"]) == 1
        assert capsys.readouterr() == ("", "config error: --top must be an integer >= 0, got -2\n")

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize(
        "kind,message", [("missing", "no such rank file"), ("dir", "not a file")]
    )
    def test_cli_missing_or_directory_rank_file_is_exit_1(
        self, tmp_path, capsys, side, kind, message
    ):
        paths = [self.export(tmp_path, "a.csv", [0.9, 0.5], ["x", "y"])] * 2
        paths[side] = tmp_path / "nope.csv" if kind == "missing" else tmp_path
        assert main(["rank-diff", *map(str, paths)]) == 1
        assert capsys.readouterr() == ("", f"config error: {message}: {paths[side]}\n")

    def test_malformed_export(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,rank\n1,2,3\n")
        from outcentr.data import DataError

        with pytest.raises(DataError):
            rank_diff(bad, bad)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        small = SYNTH_CONFIG.replace("seeds = 0, 1", "seeds = 0").replace(
            "reducers = none, outcentr, pca, grp", "reducers = outcentr"
        ).replace("detectors = iforest, lof", "detectors = iforest")
        code = main(["run", "--config", str(write_config(tmp_path, text=small, out=out_dir))])
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "summary.md").exists()

    def test_run_save_model(self, tmp_path):
        out_dir = tmp_path / "results"
        models = tmp_path / "models"
        small = SYNTH_CONFIG.replace("seeds = 0, 1", "seeds = 3").replace(
            "reducers = none, outcentr, pca, grp", "reducers = outcentr, pca, grp"
        ).replace("detectors = iforest, lof", "detectors = iforest")
        config = write_config(tmp_path, text=small, out=out_dir)
        assert main(["run", "--config", str(config), "--save-model", str(models)]) == 0
        assert (models / "outcentr_seed3.csv").exists()
        assert not list(models.glob("*.txt"))

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_usage_is_exit_1(self, capsys):
        assert main(["run"]) == 1
        assert main(["frobnicate"]) == 1

    def test_runtime_failure_is_exit_2(self, tmp_path, capsys):
        # config parses but the data file is unreadable at run time
        text = (
            "[data]\nsource = csv\ncsv = {missing}\nlabel = y\n\n"
            "[run]\nreducers = none\ndetectors = iforest\nseeds = 0\noutput = {out}\n"
        )
        path = tmp_path / "run.ini"
        path.write_text(
            text.format(missing=tmp_path / "missing.csv", out=tmp_path / "res")
        )
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("n_trees = 30", "n_trees = 0", "n_trees"),
            ("n_trees = 30", "n_trees = 30\nmax_samples = 1", "max_samples"),
            ("k_neighbors = 10", "k_neighbors = 0", "k_neighbors"),
            ("seeds = 0, 1", "seeds = 0, -1", "seed"),
            ("split = 0.8", "split = 0.8\nmetric = cosine", "metric"),
            ("detectors = iforest, lof", "detectors = iforest, svm", "detector kind"),
        ],
    )
    def test_bad_detector_setting_is_exit_1_before_any_work(
        self, tmp_path, capsys, monkeypatch, old, new, named
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data was loaded")

        monkeypatch.setattr(bench, "generate", no_data)
        out_dir = tmp_path / "results"
        config = write_config(tmp_path, text=SYNTH_CONFIG.replace(old, new), out=out_dir)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out_dir.exists()

    def test_negative_seed_flag_is_exit_1(self, tmp_path, capsys):
        out_dir, models = tmp_path / "results", tmp_path / "models"
        config = write_config(tmp_path, out=out_dir)
        argv = ["run", "--config", str(config), "--seed", "-1", "--save-model", str(models)]
        assert main(argv) == 1
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists() and not models.exists()

    def test_run_config_with_a_byte_order_mark(self, tmp_path):
        out_dir = tmp_path / "results"
        small = SYNTH_CONFIG.replace("seeds = 0, 1", "seeds = 0").replace(
            "reducers = none, outcentr, pca, grp", "reducers = outcentr"
        ).replace("detectors = iforest, lof", "detectors = lof")
        config = with_byte_order_mark(write_config(tmp_path, text=small, out=out_dir))
        assert main(["run", "--config", str(config)]) == 0
        assert (out_dir / "results.csv").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--t-fraction", "0"), ("--t-fraction", "1.5"), ("--label-budget", "0"), ("--seed", "-1")],
    )
    def test_rank_bad_flag_is_exit_1_before_the_data_is_read(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data was loaded")

        monkeypatch.setattr(cli, "load_csv", no_data)
        out = tmp_path / "rank.csv"
        argv = ["rank", "--data", str(tmp_path / "data.csv"), "--label", "label", "--out", str(out)]
        assert main(argv + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag} must be") and value in err
        assert not out.exists()

    def test_rank_data_directory_is_exit_1_before_the_data_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("data was loaded")

        monkeypatch.setattr(cli, "load_csv", no_data)
        out = tmp_path / "rank.csv"
        argv = ["rank", "--data", str(tmp_path), "--label", "label", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: not a file: {tmp_path}\n"
        assert not out.exists()

    def test_synth_subcommand(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text("[synth]\nn = 60\nm = 8\ncontamination = 0.1\nseed = 4\n")
        out = tmp_path / "generated"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        assert (out / "data.csv").exists()
        assert (out / "informative.txt").exists()

    def test_synth_bad_spec_is_exit_1(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_text("[synth]\nn = 60\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 1

    def test_missing_synth_size_is_exit_1_naming_the_key(self, tmp_path, capsys):
        run_config = write_config(tmp_path, text=SYNTH_CONFIG.replace("n = 240\n", ""))
        assert main(["run", "--config", str(run_config)]) == 1
        assert "'n'" in capsys.readouterr().err
        spec = tmp_path / "spec.ini"
        spec.write_text("[synth]\nm = 8\ncontamination = 0.1\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 1
        assert "'n'" in capsys.readouterr().err

    def test_rank_and_rank_diff_subcommands(self, tmp_path):
        spec = tmp_path / "spec.ini"
        out = tmp_path / "gen"
        spec.write_text("[synth]\nn = 200\nm = 10\ncontamination = 0.1\nseed = 1\n")
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        rank_a = tmp_path / "rank_a.csv"
        rank_b = tmp_path / "rank_b.csv"
        base = ["rank", "--data", str(out / "data.csv"), "--label", "label"]
        assert main(base + ["--out", str(rank_a)]) == 0
        assert main(base + ["--out", str(rank_b), "--label-budget", "0.5", "--seed", "9"]) == 0
        data = normalize_minmax(load_csv(out / "data.csv", label_column="label"))
        x, y = data.values, data.labels
        centroids = x[y == 1].mean(axis=0), x[y == 0].mean(axis=0)
        for flags, deviation in (([], lambda v: v), (["--absolute-deviation"], np.abs)):
            scores_csv = tmp_path / "scores.csv"
            assert main(base + ["--out", str(rank_a), "--scores-out", str(scores_csv), *flags]) == 0
            lines = scores_csv.read_text().splitlines()
            assert lines[0] == "attribute,score_vs_outlier_centroid,score_vs_inlier_centroid"
            expected = [deviation(x - c).mean(axis=0) for c in centroids]
            assert [line.split(",") for line in lines[1:]] == [
                [name, repr(float(expected[0][j])), repr(float(expected[1][j]))]
                for j, name in enumerate(data.attribute_names)
            ]
        assert main(["rank-diff", str(rank_a), str(rank_b), "--out", str(tmp_path / "d.csv")]) == 0
        assert (tmp_path / "d.csv").exists()

    def test_reproducible_results_csv(self, tmp_path):
        small = SYNTH_CONFIG.replace("reducers = none, outcentr, pca, grp", "reducers = outcentr")
        config = write_config(tmp_path, text=small, out=tmp_path / "r1")
        assert main(["run", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r2")]) == 0

        def stable(path):
            lines = path.read_text().splitlines()
            return [",".join(line.split(",")[:9]) for line in lines]

        assert stable(tmp_path / "r1" / "results.csv") == stable(tmp_path / "r2" / "results.csv")

    def test_results_match_golden_file(self, tmp_path):
        # Columns 1-9 of results.csv on acceptance criterion 9's config. A change
        # that alters scores on purpose rewrites tests/data/golden_results.csv
        # and says why in CHANGES.md.
        config = tmp_path / "run.ini"
        config.write_text(
            "[data]\n"
            "source = synth\n"
            "n = 300\nm = 20\ncontamination = 0.1\nn_informative = 4\n\n"
            "[run]\n"
            "reducers = none, outcentr, pca, grp\n"
            "detectors = iforest, lof\n"
            "seeds = 0, 1\n"
            f"output = {tmp_path / 'r'}\n\n"
            "[lof]\nk_neighbors = 10\n"
        )
        assert main(["run", "--config", str(config)]) == 0
        lines = (tmp_path / "r" / "results.csv").read_bytes().splitlines()
        columns = b"".join(b",".join(line.split(b",")[:9]) + b"\n" for line in lines)
        assert columns == (Path(__file__).parent / "data" / "golden_results.csv").read_bytes()
