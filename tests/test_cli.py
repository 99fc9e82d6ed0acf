import pytest

from graphica import cli
from graphica import conflict_sim as cs
from graphica import gap

from test_conflict_sim import json_with, truncated


def run_cli(args):
    return cli.main(args)


FAST_TRAIN = ["--epochs", "40", "--patience", "10", "--batch-size", "32"]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small synth+train pipeline shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("pipeline")
    assert run_cli(["synth", "--rows", "160", "--conflict", "0.25",
                    "--seed", "5", "-o", str(out), "--quiet"]) == 0
    assert run_cli(["train", "-d", str(out / "dataset.csv"),
                    "-t", str(out / "topology.json"), "--gamma", "1.0",
                    "--seed", "5", "-o", str(out), "--quiet"] + FAST_TRAIN) == 0
    return out


class TestSynth:
    def test_writes_files_and_prints_distribution(self, tmp_path, capsys):
        code = run_cli(["synth", "--rows", "80", "--conflict", "0.75",
                        "--seed", "3", "-o", str(tmp_path), "--quiet"])
        assert code == 0
        assert (tmp_path / "topology.json").exists()
        assert (tmp_path / "dataset.csv").exists()
        printed = capsys.readouterr().out
        assert "class distribution:" in printed
        assert "0:20 1:20 2:20 3:20" in printed

    def test_conflict_bounds_are_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--conflict", "1.5", "-o", str(tmp_path)])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--seed", "-1", "-o", str(tmp_path)])
        assert exc.value.code == 2

    def test_default_sizes(self, tmp_path):
        run_cli(["synth", "--rows", "80", "--conflict", "0.5", "-o",
                 str(tmp_path), "--quiet"])
        topo = cs.load_topology(tmp_path / "topology.json")
        assert (topo.n_apps, topo.n_params, topo.n_kpis) == (10, 13, 10)


class TestTrain:
    def test_writes_checkpoints_and_history(self, pipeline_dir):
        for fold in range(5):
            assert (pipeline_dir / f"fold{fold}.ckpt").exists()
        history = (pipeline_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,fold,train_loss,val_loss"
        assert len(history) > 5

    def test_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(["train", "-d", str(tmp_path / "nope.csv"),
                        "-t", str(tmp_path / "nope.json"), "-o", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[")
        assert len(err.strip().splitlines()) == 1

    def test_zero_epochs_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "-d", "x.csv", "-t", "x.json", "--epochs", "0"])
        assert exc.value.code == 2


class TestEval:
    def test_writes_metrics_and_confusion(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(["eval", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(pipeline_dir), "-o", str(out), "--quiet"])
        assert code == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "precision,recall,f1"
        cm = (out / "confusion.csv").read_text().splitlines()
        assert len(cm) == 4
        assert sum(int(x) for row in cm for x in row.split(",")) == 160
        assert "f1" in capsys.readouterr().out

    def test_single_fold_restriction(self, pipeline_dir, tmp_path):
        out = tmp_path / "eval-fold"
        code = run_cli(["eval", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(pipeline_dir), "--fold", "0",
                        "-o", str(out), "--quiet"])
        assert code == 0
        cm = (out / "confusion.csv").read_text().splitlines()
        assert sum(int(x) for row in cm for x in row.split(",")) == 32

    def test_out_of_range_fold_rejected_before_predicting(self, pipeline_dir,
                                                          tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("predicted before checking --fold")

        monkeypatch.setattr(gap, "fold_predictions", never)
        code = run_cli(["eval", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(pipeline_dir), "--fold", "5",
                        "-o", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[DomainError]: --fold")

    def test_missing_checkpoint(self, pipeline_dir, tmp_path, capsys):
        code = run_cli(["eval", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(tmp_path), "-o", str(tmp_path)])
        assert code == 1
        assert "error[" in capsys.readouterr().err


class TestReport:
    def test_report_rows_and_table(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "report"
        code = run_cli(["report", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(pipeline_dir / "fold0.ckpt"),
                        "-o", str(out), "--quiet"])
        assert code == 0
        lines = (out / "rca.csv").read_text().splitlines()
        assert lines[0] == ("predicted_label,conflict_type,affected_node,"
                            "root_cause_nodes,root_cause_xapps")
        table = capsys.readouterr().out
        assert "Predicted Label" in table

    def test_builds_one_graph_per_predicted_conflict(self, pipeline_dir, tmp_path,
                                                     monkeypatch):
        calls = []
        real = cli.build_graph

        def counting(topology, row):
            calls.append(row)
            return real(topology, row)

        monkeypatch.setattr(cli, "build_graph", counting)
        out = tmp_path / "report"
        code = run_cli(["report", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(pipeline_dir / "fold0.ckpt"),
                        "-o", str(out), "--quiet"])
        assert code == 0
        conflicts = len((out / "rca.csv").read_text().splitlines()) - 1
        assert 0 < conflicts < 160
        assert len(calls) == conflicts

    def test_ragged_weight_sidecar_is_typed_error(self, pipeline_dir, tmp_path, capsys):
        model, focal, seed = gap.load_checkpoint(pipeline_dir / "fold0.ckpt")
        ckpt = tmp_path / "model.ckpt"
        gap.save_checkpoint(model, ckpt, seed, focal, binary=True)
        sidecar = tmp_path / "model.ckpt.bin"
        sidecar.write_bytes(sidecar.read_bytes()[:-5])
        code = run_cli(["report", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(ckpt), "-o", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[CompatibilityError]: ")
        assert "model.ckpt.bin" in err

    def test_non_integer_dataset_field_is_typed_error(self, pipeline_dir, tmp_path, capsys):
        lines = (pipeline_dir / "dataset.csv").read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = "x"
        lines[3] = ",".join(fields)
        bad = tmp_path / "dataset.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(["report", "-d", str(bad),
                        "-t", str(pipeline_dir / "topology.json"),
                        "-m", str(pipeline_dir / "fold0.ckpt"),
                        "-o", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[ShapeError]: {bad}:4: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name, edit, error", [
        ("topology.json", truncated, "DomainError"),
        ("topology.json", lambda text: "[]", "DomainError"),
        ("topology.json", json_with("controls", [[1]]), "DomainError"),
        ("fold0.ckpt", truncated, "CompatibilityError"),
        ("fold0.ckpt", json_with("H", "x"), "CompatibilityError"),
    ], ids=["truncated topology", "topology not an object", "short control pair",
            "truncated checkpoint", "non-integer hidden width"])
    def test_malformed_input_file_is_typed_error(self, pipeline_dir, tmp_path, capsys,
                                                 name, edit, error):
        for copied in ("topology.json", "fold0.ckpt"):
            (tmp_path / copied).write_text((pipeline_dir / copied).read_text())
        bad = tmp_path / name
        bad.write_text(edit(bad.read_text()))
        code = run_cli(["report", "-d", str(pipeline_dir / "dataset.csv"),
                        "-t", str(tmp_path / "topology.json"),
                        "-m", str(tmp_path / "fold0.ckpt"),
                        "-o", str(tmp_path / "report")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[{error}]: {bad}: ")
        assert len(err.strip().splitlines()) == 1

    def test_all_normal_report_is_header_only(self, tmp_path, capsys):
        run_cli(["synth", "--rows", "40", "--conflict", "0.0", "--seed", "2",
                 "-o", str(tmp_path), "--quiet"])
        run_cli(["train", "-d", str(tmp_path / "dataset.csv"),
                 "-t", str(tmp_path / "topology.json"), "--gamma", "0",
                 "--alpha", "uniform", "--folds", "2", "--seed", "2",
                 "-o", str(tmp_path), "--quiet",
                 "--epochs", "8", "--patience", "4", "--batch-size", "32"])
        out = tmp_path / "report"
        code = run_cli(["report", "-d", str(tmp_path / "dataset.csv"),
                        "-t", str(tmp_path / "topology.json"),
                        "-m", str(tmp_path / "fold0.ckpt"),
                        "-o", str(out), "--quiet"])
        assert code == 0
        lines = (out / "rca.csv").read_text().splitlines()
        assert len(lines) == 1


class TestSweepCommand:
    def test_degenerate_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run_cli(["sweep", "--gamma-grid", "2.0", "--datasets", "10",
                        "--reps", "1", "--rows", "160", "--seed", "1",
                        "-o", str(out), "--quiet"] + FAST_TRAIN)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "dataset,gamma,precision,recall,f1"
        assert len(lines) == 2
        assert lines[1].startswith("10%,2.0,")

    @pytest.mark.parametrize("token", ["tenpct", "%", "0", "150%", "1.5"])
    def test_bad_dataset_share_is_a_domain_error(self, tmp_path, capsys, token):
        code = run_cli(["sweep", "--datasets", "balanced", token,
                        "-o", str(tmp_path / "sweep"), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[DomainError]: dataset share {token!r} ")
        assert err.count("\n") == 1


class TestConfigResolution:
    def test_config_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rows=80\nconflict=0.75\nseed=4\n")
        run_cli(["synth", "--config", str(cfg), "-o", str(tmp_path), "--quiet"])
        ds = cs.load_dataset(tmp_path / "dataset.csv",
                             cs.load_topology(tmp_path / "topology.json"))
        assert len(ds.rows) == 80

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rows=80\n")
        run_cli(["synth", "--config", str(cfg), "--rows", "16",
                 "--conflict", "0.75", "-o", str(tmp_path), "--quiet"])
        ds = cs.load_dataset(tmp_path / "dataset.csv",
                             cs.load_topology(tmp_path / "topology.json"))
        assert len(ds.rows) == 16

    def test_env_seed_is_default_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHICA_SEED", "9")
        run_cli(["synth", "--rows", "16", "--conflict", "0.5",
                 "-o", str(tmp_path / "a"), "--quiet"])
        monkeypatch.delenv("GRAPHICA_SEED")
        run_cli(["synth", "--rows", "16", "--conflict", "0.5", "--seed", "9",
                 "-o", str(tmp_path / "b"), "--quiet"])
        assert ((tmp_path / "a" / "dataset.csv").read_bytes()
                == (tmp_path / "b" / "dataset.csv").read_bytes())

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHICA_SEED", "9")
        run_cli(["synth", "--rows", "16", "--conflict", "0.5", "--seed", "1",
                 "-o", str(tmp_path / "a"), "--quiet"])
        monkeypatch.delenv("GRAPHICA_SEED")
        run_cli(["synth", "--rows", "16", "--conflict", "0.5", "--seed", "1",
                 "-o", str(tmp_path / "b"), "--quiet"])
        assert ((tmp_path / "a" / "dataset.csv").read_bytes()
                == (tmp_path / "b" / "dataset.csv").read_bytes())

    def test_train_defaults_match_library(self, monkeypatch):
        monkeypatch.delenv("GRAPHICA_SEED", raising=False)
        args = cli.build_parser().parse_args(["train", "-d", "x.csv", "-t", "x.json"])
        assert cli._train_config(cli.Settings(args)) == gap.TrainConfig()

    def test_bad_config_line_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rows 80\n")
        code = run_cli(["synth", "--config", str(cfg), "-o", str(tmp_path)])
        assert code == 1


class TestReproducibility:
    def test_synth_outputs_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run_cli(["synth", "--rows", "64", "--conflict", "0.5",
                     "--seed", "11", "-o", str(tmp_path / sub), "--quiet"])
        for name in ("topology.json", "dataset.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
