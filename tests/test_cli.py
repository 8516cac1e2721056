import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from engagerank import cli, featurepipe, harness


def run_cli(*argv):
    return cli.main(list(argv))


def synth_file(path, n=40, seed=0, speech_fraction=0.0):
    run_cli("synth", "--out", str(path), "--n", str(n), "--channels", "2",
            "--global-dim", "5", "--frames", "12", "--noise", "0.4",
            "--proportions", "1,1,1,1", "--seed", str(seed),
            "--speech-dim", "6",
            "--speech-fraction", str(speech_fraction))
    return str(path)


TINY_FLAGS = ("--batch-size", "8", "--pool-size", "16", "--epochs", "2",
              "--channels", "2", "--global-dim", "5", "--width", "4",
              "--n-chunks", "4", "--dropout", "0.0", "--speech-dim", "6",
              "--min-frames", "8")


# a valid, non-default value for each synth_dataset argument but n
SYNTH_NON_DEFAULT = dict(
    n_channels=3, global_dim=5, n_frames=12, proportions=(1.0, 2.0, 3.0, 4.5),
    noise=0.2, seed=3, split="test", speech_fraction=0.5, speech_dim=6,
    saturation=1.5, modulation=0.5, warp=0.5, label_flip=0.1)


def subparser(command):
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices[command]


class TestSynth:
    def test_every_argument_has_a_flag(self):
        """Each synth_dataset argument has a flag; all but --n are None when
        not given, so synth_dataset's defaults are the only ones."""
        params = inspect.signature(featurepipe.synth_dataset).parameters
        assert set(SYNTH_NON_DEFAULT) == set(params) - {"n"}
        actions = {a.dest: a for a in subparser("synth")._actions}
        for name in params:
            assert flag(name) in actions[name].option_strings
            assert actions[name].default == (3000 if name == "n" else None)

    def test_values_reach_synth_dataset(self, tmp_path, monkeypatch):
        """Each flag reaches synth_dataset, also through a wrapper that keeps
        the function only as ``__wrapped__``, as a tracing wrapper does."""
        calls = []
        real = featurepipe.synth_dataset

        def recording(n, **kwargs):
            calls.append(dict(kwargs, n=n))
            return real(n, **kwargs)

        recording.__wrapped__ = real
        monkeypatch.setattr(featurepipe, "synth_dataset", recording)
        argv = ["synth", "--out", str(tmp_path / "x.jsonl"), "--n", "10"]
        defaults = inspect.signature(real).parameters
        for name, value in SYNTH_NON_DEFAULT.items():
            assert defaults[name].default != value, name
            text = ",".join(map(str, value)) if name == "proportions" else str(value)
            argv += [flag(name), text]
        assert run_cli(*argv) == 0
        assert calls == [dict(SYNTH_NON_DEFAULT, n=10)]

    def test_defaults_come_from_synth_dataset(self, tmp_path):
        """Given only --out and --n, synth writes the bytes of the library's
        defaults."""
        run_cli("synth", "--out", str(tmp_path / "cli.jsonl"), "--n", "6")
        featurepipe.save_records(featurepipe.synth_dataset(n=6), str(tmp_path / "lib.jsonl"))
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "lib.jsonl").read_bytes()

    def test_bad_proportions_name_the_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("synth", "--out", str(tmp_path / "x.jsonl"), "--proportions", "1,a,1,1")
        assert exit_info.value.code == 2
        assert "argument --proportions: invalid" in capsys.readouterr().err

    def test_writes_loadable_jsonl(self, tmp_path, capsys):
        path = synth_file(tmp_path / "data.jsonl")
        out = capsys.readouterr().out
        assert "wrote 40 records" in out
        data = featurepipe.load_records(path)
        assert len(data.records) == 40
        assert data.class_counts().tolist() == [10, 10, 10, 10]

    def test_saturation_flag_changes_features(self, tmp_path):
        run_cli("synth", "--out", str(tmp_path / "a.jsonl"), "--n", "8",
                "--channels", "2", "--global-dim", "5", "--frames", "12")
        run_cli("synth", "--out", str(tmp_path / "b.jsonl"), "--n", "8",
                "--channels", "2", "--global-dim", "5", "--frames", "12",
                "--saturation", "2.0")
        a = featurepipe.load_records(str(tmp_path / "a.jsonl"))
        b = featurepipe.load_records(str(tmp_path / "b.jsonl"))
        assert [r.label for r in a.records] == [r.label for r in b.records]
        assert np.any(a.records[0].global_feature != b.records[0].global_feature)

    def test_label_flip_flag_changes_labels_only(self, tmp_path):
        run_cli("synth", "--out", str(tmp_path / "a.jsonl"), "--n", "40",
                "--channels", "2", "--global-dim", "5", "--frames", "12")
        run_cli("synth", "--out", str(tmp_path / "b.jsonl"), "--n", "40",
                "--channels", "2", "--global-dim", "5", "--frames", "12",
                "--label-flip", "0.4")
        a = featurepipe.load_records(str(tmp_path / "a.jsonl"))
        b = featurepipe.load_records(str(tmp_path / "b.jsonl"))
        assert [r.label for r in a.records] != [r.label for r in b.records]
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.global_feature, rb.global_feature)


class TestTrainEval:
    def test_round_trip(self, tmp_path, capsys):
        train = synth_file(tmp_path / "train.jsonl", n=32)
        val = synth_file(tmp_path / "val.jsonl", n=16, seed=1)
        out_dir = tmp_path / "run"
        code = run_cli("train", "--train", train, "--val", val,
                       "--out-dir", str(out_dir), "--loss", "mocorank",
                       *TINY_FLAGS)
        assert code == 0
        assert (out_dir / "checkpoint.npz").exists()
        assert (out_dir / "metrics.json").exists()
        history = (out_dir / "history.csv").read_text().splitlines()
        assert history[0].startswith("epoch,stage,train_loss,lr")
        assert len(history) == 3

        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(out_dir / "checkpoint.npz"),
                       "--data", val,
                       "--metrics-out", str(tmp_path / "m.json"),
                       "--recall-out", str(tmp_path / "r.csv"))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert int(np.sum(report["confusion"])) == 16
        assert report["classes"][0] == "HIGHLY_DISENGAGED"
        assert report == json.loads((tmp_path / "m.json").read_text())
        recall = (tmp_path / "r.csv").read_text().splitlines()
        assert recall[0] == "class,model"
        assert len(recall) == 5

    def test_eval_metrics_match_library(self, tmp_path, capsys):
        train = synth_file(tmp_path / "train.jsonl", n=32)
        out_dir = tmp_path / "run"
        run_cli("train", "--train", train, "--out-dir", str(out_dir),
                "--loss", "mse", *TINY_FLAGS)
        capsys.readouterr()
        run_cli("eval", "--checkpoint", str(out_dir / "checkpoint.npz"),
                "--data", train)
        printed = json.loads(capsys.readouterr().out)
        state = harness.load_checkpoint(str(out_dir / "checkpoint.npz"))
        report = harness.evaluate(state, featurepipe.load_records(train))
        assert printed["acc"] == pytest.approx(report.acc)
        assert printed["confusion"] == report.confusion.tolist()

    @pytest.mark.parametrize("command", ["train", "train-two-stage"])
    def test_val_metrics_come_from_the_last_epoch(self, tmp_path, monkeypatch,
                                                  command):
        """--val writes the final epoch's report, without scoring the set again,
        and it agrees with evaluating the saved checkpoint."""
        train = synth_file(tmp_path / "train.jsonl", n=32, speech_fraction=0.5)
        val = synth_file(tmp_path / "val.jsonl", n=16, seed=1, speech_fraction=0.5)
        out_dir = tmp_path / "run"

        def no_evaluate(*args, **kwargs):
            raise AssertionError("validation set evaluated again")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "evaluate", no_evaluate)
            code = run_cli(command, "--train", train, "--val", val,
                           "--out-dir", str(out_dir), "--loss", "mocorank",
                           "--stage2-epochs", "1", *TINY_FLAGS)
        assert code == 0
        state = harness.load_checkpoint(str(out_dir / "checkpoint.npz"))
        report = harness.evaluate(state, featurepipe.load_records(val))
        assert (out_dir / "metrics.json").read_text() == report.to_json() + "\n"
        assert (out_dir / "recall.csv").exists()

    def test_two_stage_command(self, tmp_path):
        train = synth_file(tmp_path / "train.jsonl", n=40, speech_fraction=0.5)
        out_dir = tmp_path / "run2"
        code = run_cli("train-two-stage", "--train", train,
                       "--out-dir", str(out_dir), "--loss", "mocorank",
                       "--stage2-epochs", "1", *TINY_FLAGS)
        assert code == 0
        state = harness.load_checkpoint(str(out_dir / "checkpoint.npz"))
        assert state.config.use_audio


class TestConfigFile:
    def test_file_supplies_flags_and_cli_overrides(self, tmp_path):
        train = synth_file(tmp_path / "train.jsonl", n=32)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "config_version": 1, "loss": "mse", "epochs": 2, "batch_size": 8,
            "pool_size": 16, "n_channels": 2, "global_dim": 5, "width": 4,
            "n_chunks": 4, "dropout": 0.0, "speech_dim": 6, "min_frames": 8,
            "seed": 7}))
        out_dir = tmp_path / "run"
        code = run_cli("train", "--train", train, "--out-dir", str(out_dir),
                       "--config", str(cfg_path), "--seed", "9")
        assert code == 0
        state = harness.load_checkpoint(str(out_dir / "checkpoint.npz"))
        assert state.config.loss == "mse"       # from the file
        assert state.config.epochs == 2         # from the file
        assert state.config.seed == 9           # flag wins over the file

    def test_file_val_path_is_validated(self, tmp_path):
        """Without --val, the file's val_path is read and scored each epoch."""
        train = synth_file(tmp_path / "train.jsonl", n=32)
        val = synth_file(tmp_path / "val.jsonl", n=16, seed=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"config_version": 1, "loss": "mse",
                                        "val_path": val}))
        out_dir = tmp_path / "run"
        assert run_cli("train", "--train", train, "--out-dir", str(out_dir),
                       "--config", str(cfg_path), *TINY_FLAGS) == 0
        state = harness.load_checkpoint(str(out_dir / "checkpoint.npz"))
        report = harness.evaluate(state, featurepipe.load_records(val))
        assert (out_dir / "metrics.json").read_text() == report.to_json() + "\n"

    def test_preset_is_weakest_layer(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["train", "--train", "x", "--out-dir", "y", "--preset", "desk",
             "--config", str(tmp_path / "cfg.json"), "--epochs", "3"])
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"config_version": 1, "epochs": 10, "pool_size": 64}))
        config = cli.build_train_config(args)
        assert config.batch_size == 32    # desk preset
        assert config.pool_size == 64     # file beats preset
        assert config.epochs == 3         # flag beats file

    @pytest.mark.parametrize("preset, factory", [
        ("desk", harness.TrainConfig.desk), ("paper", harness.TrainConfig.paper_scale)],
        ids=["desk", "paper"])
    def test_preset_is_the_library_preset(self, preset, factory):
        args = cli.build_parser().parse_args(
            ["train", "--train", "x", "--out-dir", "y", "--preset", preset])
        assert cli.build_train_config(args) == factory()

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"config_version": 1, "learning_rate": 0.1}))
        with pytest.raises(ValueError, match="unknown keys.*learning_rate"):
            cli._load_config_file(str(bad))

    def test_version_checked(self, tmp_path):
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({"config_version": 0, "epochs": 5}))
        with pytest.raises(ValueError, match="config_version"):
            cli._load_config_file(str(bad))
        none = tmp_path / "none.json"
        none.write_text(json.dumps({"epochs": 5}))
        with pytest.raises(ValueError, match="config_version"):
            cli._load_config_file(str(none))

    @pytest.mark.parametrize("field, value", [
        ("detach_margin", "false"), ("seed", "abc"), ("epochs", 4.5)])
    def test_field_types_checked(self, tmp_path, field, value):
        """A "false" string would be a truthy detach_margin; it is refused."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"config_version": 1, field: value}))
        args = cli.build_parser().parse_args(
            ["train", "--train", "x", "--out-dir", "y", "--config", str(path)])
        with pytest.raises(ValueError, match=f"{field} must be"):
            cli.build_train_config(args)

    def test_json_integer_is_a_valid_float(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"config_version": 1, "lr_start": 1, "lr_end": 1}))
        args = cli.build_parser().parse_args(
            ["train", "--train", "x", "--out-dir", "y", "--config", str(path)])
        assert cli.build_train_config(args).lr_start == 1

    def test_non_object_rejected(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            cli._load_config_file(str(bad))

    def test_malformed_json_names_the_file(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"config_version": 1, "epochs": }')
        with pytest.raises(ValueError, match="broken.json.*malformed JSON.*line 1"):
            cli._load_config_file(str(bad))

    def test_bad_dropout_fails_before_data_loads(self, tmp_path, monkeypatch, capsys):
        """A bad value is one error line naming the flag and exit status 2,
        and the data is never read."""
        loaded = []
        monkeypatch.setattr(featurepipe, "load_records", loaded.append)
        code = run_cli("train", "--train", str(tmp_path / "absent.jsonl"),
                       "--out-dir", str(tmp_path / "run"), "--dropout", "1.5")
        err = capsys.readouterr().err
        assert code == 2 and loaded == []
        assert err.startswith("engagerank: error: ") and err.count("\n") == 1
        assert "dropout" in err

    def test_malformed_config_file_through_main(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"config_version": 1, "epochs": }')
        code = run_cli("train", "--train", "x", "--out-dir", str(tmp_path / "run"),
                       "--config", str(bad))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert re.match(r"engagerank: error: config file '.*broken\.json': "
                        r"malformed JSON", err)


# a valid, non-default value for each TrainConfig field the command line sets
NON_DEFAULT = dict(
    loss="mse", batch_size=16, pool_size=64, epochs=3, lr_start=1e-3, lr_end=1e-5,
    weight_decay=0.01, momentum=0.99, sampler="class_balanced", use_audio=True,
    ablation="concat_only", seed=5, center_weight=0.3, cb_beta=0.99, cb_gamma=1.5,
    detach_margin=True, score_before_step=True, stage2_epochs=2, init_from="donor.npz",
    n_channels=3, global_dim=7, width=8, n_chunks=5, dropout=0.2, speech_dim=9,
    min_frames=20)
COMMAND_ARGS = {"train": ["train", "--train", "x", "--out-dir", "y"],
                "train-two-stage": ["train-two-stage", "--train", "x", "--out-dir", "y"],
                "bench-losses": ["bench-losses", "--train", "x", "--test", "z",
                                 "--losses", "mse", "--out-dir", "y"]}


def flag(name):
    renamed = {"n_channels": "--channels", "n_frames": "--frames"}
    return renamed.get(name, "--" + name.replace("_", "-"))


@pytest.mark.parametrize("command", list(COMMAND_ARGS))
class TestTrainFlags:
    """The training flags are built from TrainConfig's fields."""

    def test_every_field_has_a_flag(self, command):
        fields = {f.name for f in dataclasses.fields(harness.TrainConfig)}
        assert set(NON_DEFAULT) == fields - {"train_path", "val_path"}
        options = {a.dest: a.option_strings for a in subparser(command)._actions}
        for name in NON_DEFAULT:
            assert flag(name) in options[name]

    def test_values_reach_the_config(self, command):
        argv = list(COMMAND_ARGS[command])
        for name, value in NON_DEFAULT.items():
            argv += [flag(name)] if value is True else [flag(name), str(value)]
        config = cli.build_train_config(cli.build_parser().parse_args(argv))
        default = harness.TrainConfig()
        for name, value in NON_DEFAULT.items():
            assert getattr(default, name) != value
            assert getattr(config, name) == value, name

    def test_bool_flags_take_both_forms(self, command):
        bools = [name for name, value in NON_DEFAULT.items() if isinstance(value, bool)]
        assert bools == ["use_audio", "detach_margin", "score_before_step"]
        for name in bools:
            for prefix, value in (("--", True), ("--no-", False)):
                argv = COMMAND_ARGS[command] + [prefix + flag(name)[2:]]
                config = cli.build_train_config(cli.build_parser().parse_args(argv))
                assert getattr(config, name) is value


class TestFileErrors:
    """A missing or unreadable file is one error line and exit status 2."""

    @pytest.mark.parametrize("argv, named", [
        (["train", "--train", "{tmp}/absent.jsonl", "--out-dir", "{tmp}/run"],
         "absent.jsonl"),
        (["train", "--train", "x", "--out-dir", "{tmp}/run", "--config",
          "{tmp}/absent.json"], "absent.json"),
        (["icc", "--ratings", "{tmp}/absent.csv"], "absent.csv"),
        (["synth", "--n", "4", "--channels", "2", "--global-dim", "5", "--frames", "12",
          "--out", "{tmp}/no_dir/x.jsonl"], "no_dir"),
        (["eval", "--checkpoint", "{tmp}/absent.npz", "--data", "x"], "absent.npz"),
        (["eval", "--checkpoint", "{tmp}", "--data", "x"], "Is a directory"),
        (["eval", "--checkpoint", "{tmp}/empty.npz", "--data", "x"],
         "corrupt checkpoint .*empty.npz")],
        ids=["train-data", "config", "ratings", "synth-out", "checkpoint",
             "checkpoint-dir", "checkpoint-empty"])
    def test_one_error_line(self, tmp_path, capsys, argv, named):
        (tmp_path / "empty.npz").write_bytes(b"")
        code = run_cli(*[a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("engagerank: error: ") and re.search(named, err)


class TestGradCheckCommand:
    def test_passing_run_exits_zero(self, capsys):
        code = run_cli("grad-check", "--losses", "mse")
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passed"]
        assert report["losses"]["mse"]["max_rel_err"] < 1e-4

    def test_impossible_tolerance_exits_nonzero(self, capsys):
        code = run_cli("grad-check", "--losses", "mse", "--tolerance", "0")
        assert code == 1
        assert not json.loads(capsys.readouterr().out)["passed"]


class TestBenchCommand:
    def test_outputs_csv_and_summary(self, tmp_path, capsys):
        train = synth_file(tmp_path / "train.jsonl", n=32)
        test = synth_file(tmp_path / "test.jsonl", n=16, seed=3)
        capsys.readouterr()
        out_dir = tmp_path / "bench"
        code = run_cli("bench-losses", "--train", train, "--test", test,
                       "--losses", "mocorank,mse:class_balanced",
                       "--seeds", "0,1", "--out-dir", str(out_dir), *TINY_FLAGS)
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"mocorank", "mse:class_balanced"}
        lines = (out_dir / "results.csv").read_text().splitlines()
        assert lines[0] == "variant,seed,acc,avg_acc"
        assert len(lines) == 5
        on_disk = json.loads((out_dir / "summary.json").read_text())
        assert on_disk == summary


class TestIccCommand:
    def test_matches_hand_value(self, tmp_path, capsys):
        path = tmp_path / "ratings.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        code = run_cli("icc", "--ratings", str(path))
        assert code == 0
        value = json.loads(capsys.readouterr().out)["icc"]
        assert value == pytest.approx(8.0 / 9.0, abs=1e-12)
