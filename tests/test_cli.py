"""End-to-end CLI contract: exit codes, file outputs, byte determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import crucial.loss as loss_module
from crucial import cli
from crucial.cli import _DEFAULTS, main, parse_config_file, resolve_config
from crucial.data import load_csv
from crucial.loss import KAPPA_CAP

ROOT = Path(__file__).resolve().parent.parent

def run(*argv):
    return main(list(argv))


def assert_weights_in_range(trace_path):
    """Every row of a loss trace has kappa in (0, e] and a finite value."""
    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(0.0 < float(r["kappa"]) <= KAPPA_CAP for r in rows)
    assert all(math.isfinite(float(r["value"])) for r in rows)


def tree_bytes(root):
    """Map of relative path -> file bytes for a whole output directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert run() == 2
        assert "usage:" in capsys.readouterr().out

    def test_help_paths_exit_zero(self, capsys):
        assert run("--help") == 0
        assert run("help") == 0
        assert run("-h") == 0
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 2
        assert "unknown command" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        assert run("simulate", "--output-dir", str(tmp_path), "--bogus", "1") == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_output_dir(self, capsys):
        assert run("properties", "--suites", "kappa_bounds") == 2
        assert "output-dir" in capsys.readouterr().err

    def test_flag_without_value(self, capsys):
        assert run("properties", "--seed") == 2
        capsys.readouterr()

    def test_positional_junk(self, capsys):
        assert run("properties", "seed=3") == 2
        capsys.readouterr()

    def test_empty_grid_list(self, tmp_path, capsys):
        assert run("simulate", "--output-dir", str(tmp_path), "--sigmas", ",") == 2
        capsys.readouterr()

    def test_unknown_population_kind(self, tmp_path, capsys):
        assert run("simulate", "--output-dir", str(tmp_path),
                   "--populations", "cauchy") == 2
        capsys.readouterr()

    def test_bad_numeric_value(self, tmp_path, capsys):
        assert run("trace-loss", "--output-dir", str(tmp_path), "--lam", "much") == 2
        capsys.readouterr()


class TestConfigResolution:
    def test_flags_override_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lam = 0.5\nepochs = 4  # comment\n\n# full-line comment\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        code = run("trace-loss", "--config", str(cfg), "--lam", "0.25",
                   "--output-dir", str(out))
        assert code == 0
        echoed = (out / "config_resolved.txt").read_text(encoding="utf-8")
        assert "lam=0.25" in echoed        # flag beat the file
        assert "epochs=4" in echoed        # file beat the default
        assert "output_dir" not in echoed  # location never affects results
        capsys.readouterr()

    def test_key_equals_value_flag_form(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("trace-loss", "--output-dir=" + str(out), "--epochs=2") == 0
        assert "epochs=2" in (out / "config_resolved.txt").read_text(encoding="utf-8")
        capsys.readouterr()

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals\n", encoding="utf-8")
        assert run("trace-loss", "--config", str(cfg), "--output-dir", str(tmp_path)) == 2
        assert run("trace-loss", "--config", str(tmp_path / "missing.cfg"),
                   "--output-dir", str(tmp_path)) == 2
        capsys.readouterr()


@pytest.mark.parametrize("command", list(_DEFAULTS))
def test_resolved_values_have_their_defaults_types(tmp_path, command):
    # the commands read cfg[key] as it is, with no cast of their own
    defaults = _DEFAULTS[command]
    as_text = {k: str(v) or "x" for k, v in defaults.items()}
    whole = {k: "1" if isinstance(v, (int, float)) else as_text[k] for k, v in defaults.items()}
    for values in (as_text, whole):
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        for file_values, flags in ((parse_config_file(str(path)), {}), ({}, values)):
            cfg = resolve_config(command, file_values, flags)
            assert set(cfg) == set(defaults)
            for key, default in defaults.items():
                assert type(cfg[key]) is type(default), key


class TestSimulate:
    def test_single_normal_point_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("simulate", "--output-dir", str(out), "--n", "20000",
                   "--sigmas", "0.5", "--rates", "1.0")
        assert code == 0
        payload = json.loads((out / "report_normal_s0.5_r1.json").read_text(encoding="utf-8"))
        assert payload["checks"]["passed"] is True
        assert payload["checks"]["ep_within_tol"] is True
        assert payload["analytic"]["e_u"] == 0.25
        assert payload["analytic"]["e_p"] == 0.3125
        assert payload["ordering"]["analytic"] == "u_beats_p"
        summary = (out / "summary.txt").read_text(encoding="utf-8").strip().split("\n")
        assert len(summary) == 2 and summary[1].endswith("true")
        capsys.readouterr()

    def test_half_normal_disagreement_is_reported_not_gated(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("simulate", "--output-dir", str(out), "--n", "40000",
                   "--populations", "half_normal", "--sigmas", "0.5", "--rates", "1.0")
        assert code == 0  # the transcribed e_p never gates the exit code
        payload = json.loads(
            (out / "report_half_normal_s0.5_r1.json").read_text(encoding="utf-8"))
        assert payload["checks"]["ep_within_tol"] is None
        assert payload["checks"]["eu_within_tol"] is True
        assert payload["ordering"]["analytic"] == "u_beats_p"
        assert payload["ordering"]["mc"] == "p_beats_u"
        assert payload["ordering"]["agree"] is False
        assert payload["analytic"]["diamond"] == pytest.approx(0.5705388851840324)
        capsys.readouterr()

    def test_reruns_and_worker_counts_are_byte_identical(self, tmp_path, capsys):
        outs = [tmp_path / f"out{i}" for i in range(3)]
        for out, workers in zip(outs, ("1", "1", "4")):
            code = run("simulate", "--output-dir", str(out), "--n", "30000",
                       "--seed", "3", "--workers", workers,
                       "--populations", "normal,half_normal",
                       "--sigmas", "0.5,1.0", "--rates", "1.0")
            assert code == 0
        base = tree_bytes(outs[0])
        assert base == tree_bytes(outs[1])
        assert base == tree_bytes(outs[2])
        assert len(base) == 6  # 4 reports + summary + resolved config
        capsys.readouterr()

    def test_a_report_does_not_depend_on_its_neighbours(self, tmp_path, capsys):
        # Every point's chunks share one pool; a point's report must be the
        # same bytes whichever other points run beside it.
        args = ("--n", "3000", "--seed", "5", "--workers", "2", "--sigmas", "0.5,1.0",
                "--rates", "0.5,2.0")
        both = tmp_path / "both"
        run("simulate", "--output-dir", str(both), "--populations", "normal,half_normal", *args)
        alone = {}
        for kind in ("normal", "half_normal"):
            out = tmp_path / kind
            run("simulate", "--output-dir", str(out), "--populations", kind, *args)
            alone.update({name: data for name, data in tree_bytes(out).items()
                          if name.startswith("report_")})
        reports = {name: data for name, data in tree_bytes(both).items()
                   if name.startswith("report_")}
        assert len(reports) == 8
        assert reports == alone
        capsys.readouterr()

    def test_a_wide_normal_population_keeps_finite_standard_errors(self, tmp_path, capsys):
        # P's squared errors are about 1e160, so their squares pass float max
        # unless they are summed in scaled units.
        code = run("simulate", "--output-dir", str(tmp_path), "--sigmas", "1e40", "--rates", "1",
                   "--n", "20000", "--populations", "normal")
        assert "Warning" not in capsys.readouterr().err
        payload = json.loads(
            (tmp_path / "report_normal_s1e+40_r1.json").read_text(encoding="utf-8"))
        values = [*payload["mc"].values(), *payload["stderr"].values()]
        assert all(math.isfinite(v) for v in values), payload
        assert payload["checks"]["eu_within_tol"] is True
        assert payload["mc"]["e_p"] == pytest.approx(payload["analytic"]["e_p"], rel=1e-15)
        # P's draws all round to -rate * sigma^2, so their spread and standard
        # error are exactly 0, and a closed form one rounding away fails the
        # check within 3 standard errors.
        assert payload["stderr"]["e_p"] == 0.0
        assert code == 1

    def test_a_monte_carlo_tie_is_inconclusive(self, tmp_path, capsys):
        # rate*sigma^2 = 1e-200 vanishes against draws of about 1e-100, so
        # both conditions' estimates are equal, as are the closed forms.
        code = run("simulate", "--output-dir", str(tmp_path), "--sigmas", "1e-100",
                   "--rates", "1", "--n", "20000", "--populations", "normal")
        payload = json.loads(
            (tmp_path / "report_normal_s1e-100_r1.json").read_text(encoding="utf-8"))
        assert payload["mc"]["e_u"] == payload["mc"]["e_p"]
        assert payload["ordering"] == {"analytic": "inconclusive", "mc": "inconclusive",
                                       "agree": True}
        # the normal gate still requires the closed forms to say u_beats_p
        assert payload["checks"]["eu_within_tol"] is True
        assert payload["checks"]["passed"] is False and code == 1
        capsys.readouterr()

    def test_nan_sigma_is_a_config_error(self, tmp_path, capsys):
        assert run("simulate", "--output-dir", str(tmp_path), "--sigmas", "nan") == 2
        assert "config error: LossPopulation" in capsys.readouterr().err

    @pytest.mark.parametrize("rates", ["0", "-1"])
    def test_non_positive_rate_is_a_config_error(self, tmp_path, capsys, rates):
        assert run("simulate", "--output-dir", str(tmp_path), "--rates", rates) == 2
        assert "config error: key rates" in capsys.readouterr().err

    def test_far_tail_half_normal_runs(self, tmp_path, capsys):
        code = run("simulate", "--output-dir", str(tmp_path), "--n", "4000",
                   "--populations", "half_normal", "--sigmas", "20", "--rates", "2")
        assert code == 0
        payload = json.loads(
            (tmp_path / "report_half_normal_s20_r2.json").read_text(encoding="utf-8"))
        assert math.isfinite(payload["analytic"]["diamond"])
        capsys.readouterr()


class TestProperties:
    def test_subset_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("properties", "--output-dir", str(out),
                   "--suites", "lambert_w_residual,kappa_bounds")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS lambert_w_residual:" in stdout
        assert "PASS kappa_bounds:" in stdout
        payload = json.loads((out / "properties.json").read_text(encoding="utf-8"))
        assert payload["all_passed"] is True
        assert "kappa_formula" not in payload
        assert sorted(payload["suites"]) == ["kappa_bounds", "lambert_w_residual"]

    def test_compat_formula_fails_the_oracle_suite(self, tmp_path, capsys,
                                                   halved_exponent_suites):
        out = tmp_path / "out"
        code = run("properties", "--output-dir", str(out))
        assert code == 1
        stdout = capsys.readouterr().out
        assert "FAIL kappa_argmin_oracle:" in stdout
        payload = json.loads((out / "properties.json").read_text(encoding="utf-8"))
        assert payload["all_passed"] is False
        assert payload["suites"]["kappa_argmin_oracle"]["passed"] is False
        assert payload["suites"]["property4_differentiated_scaling"]["passed"] is True
        failed = {name for name, entry in payload["suites"].items() if not entry["passed"]}
        assert failed == {"kappa_argmin_oracle"}

    def test_unknown_suite_name(self, tmp_path, capsys):
        assert run("properties", "--output-dir", str(tmp_path),
                   "--suites", "nope") == 2
        capsys.readouterr()

    def test_bad_formula_name(self, tmp_path, capsys):
        # there is one closed form, so no key selects another
        assert run("properties", "--output-dir", str(tmp_path),
                   "--kappa-formula", "half_w") == 2
        assert "unknown key 'kappa_formula'" in capsys.readouterr().err


class TestTraceLoss:
    def test_easy_sample_hits_cap_hard_sample_shrinks(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("trace-loss", "--output-dir", str(out), "--epochs", "5") == 0
        lines = (out / "trace.csv").read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "epoch,sample_id,input_loss,kappa,threshold,value,selected"
        assert len(lines) == 11
        easy0 = lines[1].split(",")
        hard0 = lines[2].split(",")
        assert float(easy0[2]) == 0.25 and float(easy0[3]) == KAPPA_CAP
        assert float(hard0[2]) == 2.5 and float(hard0[3]) < 1.0
        capsys.readouterr()

    def test_identical_starts_trace_identically(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("trace-loss", "--output-dir", str(out), "--epochs", "4",
                   "--easy-start", "1.1", "--hard-start", "1.1") == 0
        lines = (out / "trace.csv").read_text(encoding="utf-8").strip().split("\n")[1:]
        for a, b in zip(lines[0::2], lines[1::2]):
            assert a.split(",")[2:] == b.split(",")[2:]
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [("--lam", "1e-320"), ("--hard-start", "1e308")])
    def test_an_overflowing_beta_traces_finite_rows(self, tmp_path, capsys, flag, value):
        assert run("trace-loss", "--output-dir", str(tmp_path), "--epochs", "2",
                   flag, value) == 0
        assert capsys.readouterr().err == ""
        assert_weights_in_range(tmp_path / "trace.csv")

    def test_epoch_validation(self, tmp_path, capsys):
        assert run("trace-loss", "--output-dir", str(tmp_path), "--epochs", "0") == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--threshold", "--easy-start", "--hard-start", "--decay"])
    def test_nan_input_is_a_config_error(self, tmp_path, capsys, flag):
        assert run("trace-loss", "--output-dir", str(tmp_path), flag, "nan") == 2
        key = flag[2:].replace("-", "_")
        assert f"config error: key {key}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


class TestGenData:
    def test_sine_dataset_round_trips(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("gen-data", "--output-dir", str(out), "--n", "12", "--t", "8")
        assert code == 0
        res = load_csv(out / "dataset.csv")
        assert res.dataset.values.shape == (12, 8) and res.rejected == []
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        assert meta == {"kind": "sine", "n": 12, "t": 8, "flipped_ids": [], "seed": 0}
        capsys.readouterr()

    def test_drift_meta_records_flips(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("gen-data", "--output-dir", str(out), "--kind", "drift",
                   "--n", "40", "--t", "8", "--label-noise", "0.2", "--seed", "6")
        assert code == 0
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        assert len(meta["flipped_ids"]) == 8
        assert meta["seed"] == 6
        capsys.readouterr()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-data", "--output-dir", str(out), "--n", "10",
                       "--t", "6", "--seed", "2") == 0
        assert tree_bytes(a) == tree_bytes(b)
        capsys.readouterr()

    def test_unknown_kind(self, tmp_path, capsys):
        assert run("gen-data", "--output-dir", str(tmp_path), "--kind", "spiral") == 2
        capsys.readouterr()

    def test_zero_samples_is_a_config_error(self, tmp_path, capsys):
        assert run("gen-data", "--output-dir", str(tmp_path), "--n", "0") == 2
        assert "config error: gen_sine_regression" in capsys.readouterr().err


class TestTrain:
    FAST = ("--n", "32", "--t", "16", "--window", "8", "--epochs", "5",
            "--test-n", "16")

    def test_regression_run_writes_the_full_set(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--output-dir", str(out), *self.FAST) == 0
        metrics = (out / "metrics_run0.csv").read_text(encoding="utf-8").split("\n")
        assert metrics[0] == "run_id,seed,epoch,split,metric_name,value"
        assert any(",test,mse," in line for line in metrics)
        trace = (out / "loss_trace_run0.csv").read_text(encoding="utf-8").split("\n")
        assert len(trace) == 2 + 5 * 32  # header + epochs*samples + trailing newline
        agg = (out / "aggregate.csv").read_text(encoding="utf-8")
        assert agg.startswith("metric_name,median,mean,min,max\nmse,")
        capsys.readouterr()

    @pytest.mark.parametrize("wrapper", ["none", "adp", "sin"])
    def test_wrapped_run_logs_confident_set_sizes(self, tmp_path, capsys, monkeypatch, wrapper):
        # Each epoch's train rows are its record's mean raw loss and its
        # confident-set size (selected samples with kappa >= 1), in order.
        expected = []
        train_model = cli.train_model

        def spying_train_model(*args, on_epoch, **kwargs):
            def spy(epoch, mod):
                on_epoch(epoch, mod)
                confident = np.count_nonzero(mod.selected & (mod.kappa >= 1.0))
                expected.extend([
                    ["run0", "7", str(epoch), "train", "mean_raw_loss",
                     repr(float(np.mean(mod.input_loss)))],
                    ["run0", "7", str(epoch), "train", "kappa_ge1_count",
                     repr(float(confident))]])
            return train_model(*args, on_epoch=spy, **kwargs)

        monkeypatch.setattr(cli, "train_model", spying_train_model)
        out = tmp_path / "out"
        assert run("train", "--output-dir", str(out), "--wrapper", wrapper, "--seed", "7",
                   *self.FAST) == 0
        capsys.readouterr()
        with open(out / "metrics_run0.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "seed", "epoch", "split", "metric_name", "value"]
        assert len(expected) == 2 * 5
        assert rows[1:1 + len(expected)] == expected
        assert [row[2:5] for row in rows[1 + len(expected):]] == [["4", "test", "mse"]]

    def test_seed_sweep_aggregates_medians(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--output-dir", str(out), "--sweep-seeds", "3",
                   *self.FAST) == 0
        for i in range(3):
            assert (out / f"metrics_run{i}.csv").exists()
        agg = (out / "aggregate.csv").read_text(encoding="utf-8").strip().split("\n")
        assert len(agg) == 2  # header + mse row pooled over the three runs
        capsys.readouterr()

    def test_continuous_task_emits_transfer_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("train", "--output-dir", str(out), "--task", "continuous",
                   "--dataset", "drift", "--n", "64", "--t", "16", "--window", "8",
                   "--epochs", "4", "--test-n", "16", "--cuts", "4,8,16")
        assert code == 0
        payload = json.loads((out / "transfer_run0.json").read_text(encoding="utf-8"))
        assert set(payload) == {"R", "baseline", "bwt", "fwt", "baseline_seed"}
        assert len(payload["R"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("task,argv,final_rows", [
        ("regression", (), {("test", "mse")}),
        ("single_shot", ("--dataset", "drift"), {("test", "accuracy"), ("test", "auc")}),
        ("continuous", ("--dataset", "drift", "--cuts", "4,8,16"),
         {("final", "bwt"), ("final", "fwt")}),
    ], ids=["regression", "single_shot", "continuous"])
    def test_task_picks_the_final_metric_rows(self, tmp_path, capsys, task, argv, final_rows):
        # --task picks the model's output count, and the count picks the loss
        # and so the metrics; only the continuous task writes a transfer file.
        out = tmp_path / "out"
        assert run("train", "--output-dir", str(out), "--task", task, *self.FAST, *argv) == 0
        capsys.readouterr()
        with open(out / "metrics_run0.csv", newline="", encoding="utf-8") as fh:
            rows = {(r["split"], r["metric_name"]) for r in csv.DictReader(fh)}
        assert {row for row in rows if row[0] in ("test", "final")} == final_rows
        assert (out / "transfer_run0.json").exists() == (task == "continuous")

    def test_csv_dataset_path(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run("gen-data", "--output-dir", str(data_dir), "--kind", "drift",
                   "--n", "48", "--t", "16", "--seed", "9") == 0
        out = tmp_path / "out"
        code = run("train", "--output-dir", str(out), "--task", "single_shot",
                   "--dataset", "csv", "--csv-path", str(data_dir / "dataset.csv"),
                   "--window", "8", "--epochs", "5")
        assert code == 0
        agg = (out / "aggregate.csv").read_text(encoding="utf-8")
        assert "accuracy," in agg and "auc," in agg
        capsys.readouterr()

    def test_csv_dataset_is_loaded_once_per_sweep(self, tmp_path, capsys, monkeypatch):
        data_dir = tmp_path / "data"
        assert run("gen-data", "--output-dir", str(data_dir), "--kind", "drift",
                   "--n", "48", "--t", "16", "--seed", "9") == 0
        paths = []
        monkeypatch.setattr(cli, "load_csv", lambda path: paths.append(path) or load_csv(path))
        code = run("train", "--output-dir", str(tmp_path / "out"), "--task", "single_shot",
                   "--dataset", "csv", "--csv-path", str(data_dir / "dataset.csv"),
                   "--window", "8", "--epochs", "3", "--sweep-seeds", "3")
        assert code == 0
        assert paths == [str(data_dir / "dataset.csv")]
        assert all((tmp_path / "out" / f"metrics_run{i}.csv").exists() for i in range(3))
        capsys.readouterr()

    def test_divergence_exits_one(self, tmp_path, capsys):
        # at 1e300 the second epoch's r * r overflows to inf; the guard
        # reports it, and no numpy warning comes first
        for lr, sizes in (("1000", self.FAST), ("1e300", ("--epochs", "3", "--n", "16"))):
            code = run("train", "--output-dir", str(tmp_path / lr), *sizes,
                       "--learning-rate", lr)
            assert code == 1
            assert capsys.readouterr().err.startswith("train: diverged:")

    def test_continuous_scoring_of_a_diverging_run_prints_no_warning(self, tmp_path, capsys):
        # The first stage passes its guard with outputs whose logit gap
        # overflows when R is scored; the second stage's guard reports it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run("train", "--output-dir", str(tmp_path), "--task", "continuous",
                       "--dataset", "drift", "--model", "elman_rnn", "--wrapper", "sin",
                       "--cuts", "4,8", "--epochs", "2", "--n", "16", "--t", "8",
                       "--test-n", "8", "--window", "4",
                       "--learning-rate", "1.7976931348623157e308")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("train: diverged:") and "RuntimeWarning" not in err

    @pytest.mark.parametrize("lr,epochs", [("1e305", "1"), ("1e308", "2")])
    def test_a_step_that_overflows_exits_one(self, tmp_path, capsys, lr, epochs):
        # at 1e305 the only step overflows, which one more forward pass shows
        code = run("train", "--output-dir", str(tmp_path), "--epochs", epochs, "--n", "16",
                   "--learning-rate", lr)
        assert code == 1
        assert capsys.readouterr().err.startswith("train: diverged:")
        assert not (tmp_path / "aggregate.csv").exists()

    # A trace of 16,384 rows is split between two 8,192-row blocks, and the
    # first epoch starts the first block's helper; a 20,000-row epoch in
    # blocks of 8,192 rows starts three helpers, and the third first writes
    # the first block into the file.  The second epoch diverges in both.
    @pytest.mark.parametrize("argv, max_block_rows, helpers", [
        (("--n", "512", "--epochs", "32"), None, 1),
        (("--n", "20000", "--epochs", "2"), loss_module._TRACE_MIN_BLOCK_ROWS, 3),
    ], ids=["helper_started", "block_written"])
    def test_a_diverging_run_leaves_only_its_config(self, tmp_path, capsys, monkeypatch, started,
                                                    argv, max_block_rows, helpers):
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        if max_block_rows is not None:
            monkeypatch.setattr(loss_module, "_TRACE_MAX_BLOCK_ROWS", max_block_rows)
        code = run("train", "--output-dir", str(tmp_path), "--wrapper", "adp", "--t", "8",
                   "--window", "4", "--test-n", "8", "--learning-rate", "1e305", *argv)
        assert code == 1
        assert capsys.readouterr().err.startswith("train: diverged: mean loss inf")
        assert [p.name for p in tmp_path.iterdir()] == ["config_resolved.txt"]
        assert len(started) == helpers and started.all_reaped()

    def test_a_streamed_trace_holds_no_lane_range(self, tmp_path, capsys, monkeypatch, started):
        # 81,920 rows in 10 blocks of 8,192 rows: each block's rows go to its
        # helper as they arrive, so this process's whole run, training
        # included, peaks below 401,408 bytes, seven eighths of one block's
        # packed rows (8,192 rows of 56 bytes), where keeping a block's rows
        # until it ends would hold them on top of training.
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_MAX_BLOCK_ROWS", loss_module._TRACE_MIN_BLOCK_ROWS)
        n, epochs = 512, 160
        tracemalloc.start()
        try:
            code = run("train", "--output-dir", str(tmp_path), "--wrapper", "adp", "--n", str(n),
                       "--t", "16", "--window", "8", "--test-n", "16", "--epochs", str(epochs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        capsys.readouterr()
        assert peak < 401_408, peak
        assert len(started) == 10 and started.all_reaped()
        with open(tmp_path / "loss_trace_run0.csv", "rb") as fh:
            assert sum(1 for _ in fh) == 1 + n * epochs

    def test_a_streamed_trace_is_the_only_file_beside_the_config(self, tmp_path, capsys,
                                                                monkeypatch, started):
        # 32,768 rows in 4 blocks of 8,192 rows: once each epoch's rows reach
        # the writer, the output directory holds the echoed config and the
        # trace, and nothing else.
        monkeypatch.setattr(loss_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(loss_module, "_TRACE_MAX_BLOCK_ROWS", loss_module._TRACE_MIN_BLOCK_ROWS)
        listings = []
        train_model = cli.train_model

        def spying_train_model(*args, on_epoch, **kwargs):
            def spy(epoch, mod):
                on_epoch(epoch, mod)
                listings.append(sorted(p.name for p in tmp_path.iterdir()))
            return train_model(*args, on_epoch=spy, **kwargs)

        monkeypatch.setattr(cli, "train_model", spying_train_model)
        code = run("train", "--output-dir", str(tmp_path), "--wrapper", "adp", "--n", "512",
                   "--t", "16", "--window", "8", "--test-n", "16", "--epochs", "64")
        assert code == 0
        capsys.readouterr()
        assert listings == [["config_resolved.txt", "loss_trace_run0.csv"]] * 64
        assert len(started) == 4 and started.all_reaped()

    @pytest.mark.parametrize("argv", [("--wrapper", "sin", "--omega", "1e-320", "--epochs", "2"),
                                      ("--wrapper", "adp", "--lam", "1e-320", "--epochs", "3"),
                                      ("--wrapper", "baseline", "--threshold", "-1e308",
                                       "--epochs", "3")],
                             ids=["sin_omega", "adp_lam", "baseline_threshold"])
    def test_extreme_wrapper_settings_train_cleanly(self, tmp_path, capsys, argv):
        assert run("train", "--output-dir", str(tmp_path), "--n", "16", *argv) == 0
        assert capsys.readouterr().err == ""
        assert_weights_in_range(tmp_path / "loss_trace_run0.csv")

    def test_wrapper_and_policy_validation(self, tmp_path, capsys):
        assert run("train", "--output-dir", str(tmp_path), "--wrapper", "magic") == 2
        assert run("train", "--output-dir", str(tmp_path), "--wrapper", "sin",
                   "--mu-policy", "oracle") == 2
        assert run("train", "--output-dir", str(tmp_path), "--dataset", "csv") == 2
        assert run("train", "--output-dir", str(tmp_path), "--wrapper", "adp",
                   "--lam", "0") == 2
        capsys.readouterr()

    def test_descending_cuts_are_a_config_error(self, tmp_path, capsys):
        assert run("train", "--output-dir", str(tmp_path), "--task", "continuous",
                   "--dataset", "drift", "--cuts", "64,32") == 2
        assert "config error: make_prefixes" in capsys.readouterr().err

    def test_zero_epochs_is_a_config_error(self, tmp_path, capsys):
        assert run("train", "--output-dir", str(tmp_path), "--epochs", "0") == 2
        assert "config error: TaskSpec: epochs" in capsys.readouterr().err

    def test_unknown_model_is_a_config_error(self, tmp_path, capsys):
        assert run("train", "--output-dir", str(tmp_path), "--model", "foo") == 2
        assert "config error: make_model: unknown kind" in capsys.readouterr().err

    def test_sin_wrapper_survives_an_all_zero_epoch(self, tmp_path, capsys):
        # classes this far apart saturate the softmax, and every loss of a
        # late epoch is -log(1.0) = -0.0, so the epoch's mean loss is zero
        assert run("train", "--output-dir", str(tmp_path), "--task", "single_shot",
                   "--dataset", "drift", "--wrapper", "sin", "--class-sep", "20",
                   "--epochs", "60") == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "metrics_run0.csv", newline="", encoding="utf-8") as fh:
            means = [float(r["value"]) for r in csv.DictReader(fh)
                     if r["metric_name"] == "mean_raw_loss"]
        assert len(means) == 60 and means[-1] == 0.0
        with open(tmp_path / "loss_trace_run0.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60 * 512
        for col in ("input_loss", "kappa", "threshold", "value"):
            assert all(math.isfinite(float(r[col])) for r in rows), col

    def test_sin_wrapper_with_fixed_mu(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("train", "--output-dir", str(out), "--wrapper", "sin",
                   "--mu-policy", "fixed", "--mu-value", "0.8",
                   "--omega", str(math.pi / 4.0), *self.FAST)
        assert code == 0
        capsys.readouterr()


_HEADER = "id,label,v1,v2,v3\r\n"
_CSV = ("train", "--dataset", "csv")
_SINGLE = ("--task", "single_shot")
# class level plus drift overflows at the last step
_MAX_LEVEL = ("--class-sep", "1.7976931348623157e308", "--drift-rate", "1.7976931348623157e308",
              "--n", "8", "--t", "4")
# case -> (argv, text of the file that a csv dataset reads; None: no file)
_BAD_INPUTS = {
    "csv_missing": (_CSV, None),
    "csv_bad_header": (_CSV, "id,lab,v1,v2\r\n0,1,0.1,0.2\r\n"),
    "csv_multivariate": (_CSV + _SINGLE,
                         "id,label,v1_d1,v1_d2,v2_d1,v2_d2\r\n0,1,0.1,0.2,0.3,0.4\r\n"),
    "csv_empty_label": (_CSV + _SINGLE, _HEADER + "0,1,0.1,0.2,0.3\r\n1,,0.1,0.2,0.3\r\n"),
    "csv_header_only": (_CSV, _HEADER),
    "csv_label_out_of_range": (_CSV + _SINGLE,
                               _HEADER + "0,1,0.1,0.2,0.3\r\n1,2,0.1,0.2,0.3\r\n"),
    "sine_single_shot": (("train", "--dataset", "sine") + _SINGLE, None),
    "continuous_one_cut": (("train", "--task", "continuous", "--dataset", "drift",
                            "--cuts", "16"), None),
    "task_lifelong": (("train", "--task", "lifelong"), None),
    "simulate_one_draw_far_tail": (("simulate", "--n", "1", "--sigmas", "300", "--rates", "2",
                                    "--seed", "3"), None),
    "simulate_one_draw": (("simulate", "--n", "1"), None),
    "simulate_nan_tolerance": (("simulate", "--tolerance-se", "nan"), None),
    "simulate_negative_tolerance": (("simulate", "--tolerance-se", "-1"), None),
    "baseline_threshold_nan": (("train", "--wrapper", "baseline", "--threshold", "nan"), None),
    "baseline_threshold_inf": (("train", "--wrapper", "baseline", "--threshold", "inf"), None),
    "sin_fixed_mu_nan": (("train", "--wrapper", "sin", "--mu-policy", "fixed",
                          "--mu-value", "nan"), None),
    "sin_omega_nan": (("train", "--wrapper", "sin", "--omega", "nan"), None),
    "freq_lo_nan": (("train", "--freq-lo", "nan"), None),
    "csv_real_labels": (_CSV + _SINGLE, _HEADER + "0,0.5,0.1,0.2,0.3\r\n1,1.7,0.1,0.2,0.3\r\n"
                                        "2,1,0.4,0.5,0.6\r\n"),
    "gen_data_empty_filename": (("gen-data", "--filename", ""), None),
    "gen_data_filename_is_meta": (("gen-data", "--filename", "meta.json"), None),
    "gen_data_filename_is_config": (("gen-data", "--filename", "config_resolved.txt"), None),
    "train_negative_seed": (("train", "--seed", "-1"), None),
    "simulate_seed_2_64": (("simulate", "--seed", "18446744073709551616"), None),
    "properties_negative_seed": (("properties", "--seed", "-1"), None),
    "simulate_overflowing_closed_form": (("simulate", "--sigmas", "1e200", "--rates", "1",
                                          "--n", "16"), None),
    "gen_data_overflowing_frequency": (("gen-data", "--freq-lo", "1e308",
                                        "--freq-hi", "1e308"), None),
    "gen_data_overflowing_noise": (("gen-data", "--noise-sd", "1e308"), None),
    "sin_omega_overflowing_angle": (("train", "--wrapper", "sin", "--omega", "1e308",
                                     "--epochs", "3"), None),
    "trace_loss_overflowing_decay": (("trace-loss", "--decay", "1e200", "--epochs", "3"), None),
    "simulate_underflowing_population": (("simulate", "--sigmas", "1e-200", "--rates", "1",
                                          "--n", "20000", "--populations", "normal"), None),
    "simulate_overflowing_later_point": (("simulate", "--sigmas", "0.5,1e200", "--rates", "1",
                                          "--n", "16"), None),
    "simulate_sigmas_share_a_report": (("simulate", "--sigmas", "0.1,0.10000001", "--rates", "1",
                                        "--n", "2000"), None),
    "simulate_rates_repeat": (("simulate", "--rates", "1,1"), None),
    "baseline_threshold_overflowing_value": (("train", "--wrapper", "baseline", "--threshold",
                                              "1e308", "--epochs", "2", "--n", "16"), None),
    "trace_loss_overflowing_value": (("trace-loss", "--easy-start", "-1e308", "--epochs", "2"),
                                     None),
    "gen_data_overflowing_drift_level": (("gen-data", "--kind", "drift", *_MAX_LEVEL), None),
    "train_overflowing_drift_level": (("train", "--dataset", "drift", *_MAX_LEVEL), None),
    "elman_rnn_two_hidden_sizes": (("train", "--model", "elman_rnn", "--hidden", "8,16"), None),
    "sweep_seeds_zero": (("train", "--sweep-seeds", "0"), None),
    "window_zero": (("train", "--window", "0"), None),
    "mlp_hidden_zero": (("train", "--model", "mlp", "--hidden", "0"), None),
    "elman_rnn_hidden_zero": (("train", "--model", "elman_rnn", "--hidden", "0"), None),
    "empty_flag_name": (("train", "--=x"), None),
    "csv_bad_rows": (_CSV, _HEADER + "0,1,0.1,0.2,0.3\r\n1,1,0.1,x,0.3\r\n2,1,0.1,0.2\r\n"),
    "wrapper_uppercase": (("train", "--wrapper", "ADP"), None),
    "mu_policy_unknown": (("train", "--mu-policy", "bogus"), None),
}
# case -> the text its config error must hold, where the cause is not plain from the case
_BAD_MESSAGES = {
    "sweep_seeds_zero": "sweep_seeds must be >= 1",
    "task_lifelong": "unknown task 'lifelong'",
    "window_zero": "window and n_outputs must be positive",
    "mlp_hidden_zero": "hidden sizes must be positive",
    "elman_rnn_hidden_zero": "hidden size must be positive",
    "empty_flag_name": "empty flag name",
    "csv_bad_rows": "csv rejected 2 rows: row 3: non-numeric value cell; "
                    "row 4: expected 5 cells, got 4",
    "wrapper_uppercase": "unknown wrapper 'ADP'",
    "mu_policy_unknown": "unknown mu_policy 'bogus'",
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_exits_two_without_a_traceback(tmp_path, capsys, case):
    argv, text = _BAD_INPUTS[case]
    csv_path = tmp_path / "data.csv"
    if text is not None:
        csv_path.write_bytes(text.encode("utf-8"))
    if argv[:3] == _CSV:
        argv += ("--csv-path", str(csv_path))
    assert run(*argv, "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert _BAD_MESSAGES.get(case, "") in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    # refused before any work: at most the echoed configuration was written
    # (a bad seed is refused before the directory is made)
    assert [p.name for p in (tmp_path / "out").glob("*")] in ([], ["config_resolved.txt"])


@pytest.mark.parametrize("command", ["train", "simulate"])
@pytest.mark.parametrize("below", [False, True], ids=["is_a_file", "under_a_file"])
def test_an_output_dir_that_cannot_be_made_exits_two(tmp_path, capsys, command, below):
    # The harness above appends its own --output-dir, so these cases live here.
    blocker = tmp_path / "F"
    blocker.write_bytes(b"kept\n")
    out = blocker / "sub" if below else blocker
    assert run(command, "--output-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert "Traceback" not in err
    assert blocker.read_bytes() == b"kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


# case -> (argv, the output file that a directory stands in place of)
_UNWRITABLE_OUTPUTS = {
    "train_aggregate": (("train", "--epochs", "2"), "aggregate.csv"),
    "train_metrics": (("train", "--epochs", "2"), "metrics_run0.csv"),
    "train_loss_trace": (("train", "--epochs", "2"), "loss_trace_run0.csv"),
    "train_transfer": (("train", "--task", "continuous", "--dataset", "drift", "--epochs", "2"),
                       "transfer_run0.json"),
    "simulate_summary": (("simulate", "--n", "100", "--sigmas", "0.5", "--rates", "1"),
                         "summary.txt"),
    "simulate_report": (("simulate", "--n", "100", "--sigmas", "0.5", "--rates", "1"),
                        "report_normal_s0.5_r1.json"),
    "properties": (("properties",), "properties.json"),
    "trace_loss": (("trace-loss",), "trace.csv"),
    "gen_data_meta": (("gen-data", "--n", "8"), "meta.json"),
}


@pytest.mark.parametrize("case", list(_UNWRITABLE_OUTPUTS))
def test_an_output_that_cannot_be_written_exits_two(tmp_path, capsys, case):
    # The command stops at the write that fails; outputs written before it stay.
    argv, name = _UNWRITABLE_OUTPUTS[case]
    planted = tmp_path / name
    planted.mkdir()
    assert run(*argv, "--output-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(planted) in err
    assert "Traceback" not in err
    assert planted.is_dir() and list(planted.iterdir()) == []


@pytest.mark.parametrize("text", [b"epochs=2\n\xff\xfe\n", None], ids=["not_utf8", "missing"])
def test_a_config_file_that_cannot_be_read_exits_two(tmp_path, capsys, text):
    config = tmp_path / "run.cfg"
    if text is not None:
        config.write_bytes(text)
    assert run("train", "--config", str(config), "--output-dir", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(config) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, planted, stdout_closed, code", [
    (("trace-loss", "--epochs", "2"), None, False, 0),
    (("trace-loss", "--epochs", "2"), "trace.csv", False, 2),
    (("trace-loss", "--epochs", "2"), None, True, 1),
    ((), None, False, 2),
], ids=["trace_loss", "trace_loss_unwritable", "trace_loss_stdout_closed", "no_arguments"])
def test_the_module_exits_with_the_code_main_returns(tmp_path, argv, planted, stdout_closed,
                                                     code):
    # python -m crucial.cli, as a process: sys.exit carries main's code out,
    # and a reader that closes stdout early gets exit 1 with complete outputs.
    out_dir = tmp_path / "out"
    if planted is not None:
        (out_dir / planted).mkdir(parents=True)
    if argv:
        argv += ("--output-dir", str(out_dir))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "crucial.cli", *argv], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if stdout_closed:
        proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == code, err
    assert "Traceback" not in err
    if stdout_closed:
        assert "config error" not in err
        assert run(*argv[:-1], str(tmp_path / "ref")) == 0
        for name in ("config_resolved.txt", "trace.csv"):
            assert (out_dir / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


# Every float key of each command, set to each non-finite and each extreme
# finite value, exits with a documented code, with no traceback and no numpy
# warning, and an exit 2 has written at most the echoed configuration; an
# uncaught exception fails the run itself.
_TINY = ("--epochs", "1", "--n", "16", "--t", "8", "--test-n", "8", "--window", "4")
_SWEEPS = [pytest.param(("train", "--wrapper", w, *_TINY), id=w)
           for w in ("none", "adp", "sin", "baseline")]
_SWEEPS += [pytest.param(("gen-data", "--n", "16", "--t", "8"), id="gen-data"),
            pytest.param(("gen-data", "--kind", "drift", "--n", "16", "--t", "8"),
                         id="gen-data-drift"),
            pytest.param(("simulate", "--n", "16", "--sigmas", "0.5", "--rates", "1"),
                         id="simulate"),
            pytest.param(("trace-loss", "--epochs", "2"), id="trace-loss"),
            pytest.param(("train", "--task", "single_shot", "--dataset", "drift", "--model", "mlp",
                          "--wrapper", "adp", *_TINY), id="single_shot_mlp_adp"),
            pytest.param(("train", "--task", "continuous", "--dataset", "drift",
                          "--model", "elman_rnn", "--wrapper", "sin", "--cuts", "4,8", *_TINY),
                         id="continuous_elman_rnn_sin"),
            pytest.param(("simulate", "--populations", "half_normal", "--n", "16",
                          "--sigmas", "0.5", "--rates", "1"), id="simulate_half_normal")]
_FLOAT_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1e-320", "-0.0", "0", "-1",
                 "5e-324", "1.7976931348623157e308")


@pytest.mark.parametrize("argv", _SWEEPS)
def test_non_finite_float_keys_exit_cleanly(tmp_path, capsys, argv):
    keys = [k for k, v in _DEFAULTS[argv[0]].items() if isinstance(v, float)]
    assert keys
    for key in keys:
        for value in _FLOAT_VALUES:
            out = tmp_path / key / value
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(*argv, "--" + key.replace("_", "-"), value, "--output-dir", str(out))
            err = capsys.readouterr().err
            case = f"--{key} {value}: exit {code}"
            assert code in (0, 1, 2), case
            assert "Traceback" not in err and "RuntimeWarning" not in err, case
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], case
            if code == 2:
                assert [p.name for p in out.glob("*")] in ([], ["config_resolved.txt"]), case


# The exit-code contract over every key of every command: each base run,
# with any one key set to any of these strings, makes main return 0, 1 or 2
# and raise nothing.  Size keys never get 2**64 spelled out, which int()
# parses and a run would try to allocate or run at that scale; every other
# string fails them at once or keeps the run tiny.
_BAD_STRINGS = ("nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "1e-320", "1e400", "abc",
                "", " ", "1,", ",", "0x10", "2**64", "18446744073709551616")
_SIZE_KEYS = {"n", "t", "test_n", "epochs", "sweep_seeds", "workers"}
_SIM = ("simulate", "--n", "16", "--sigmas", "0.5", "--rates", "1")
_BASE_RUNS = {
    "simulate": _SIM,
    "simulate_half_normal": (*_SIM, "--populations", "half_normal"),
    "properties": ("properties", "--suites", "erfc_reflection"),
    "trace_loss": ("trace-loss", "--epochs", "2"),
    "gen_data": ("gen-data", "--n", "16", "--t", "8"),
    "gen_data_drift": ("gen-data", "--kind", "drift", "--n", "16", "--t", "8"),
    **{f"train_{w}": ("train", "--wrapper", w, *_TINY) for w in ("none", "baseline", "adp", "sin")},
    "train_sin_fixed_mu": ("train", "--wrapper", "sin", "--mu-policy", "fixed", *_TINY),
    "train_mlp": ("train", "--model", "mlp", *_TINY),
    "train_elman_rnn": ("train", "--model", "elman_rnn", *_TINY),
    "train_single_shot": ("train", "--task", "single_shot", "--dataset", "drift", *_TINY),
    "train_continuous": ("train", "--task", "continuous", "--dataset", "drift", "--cuts", "4,8",
                         *_TINY),
    "train_csv": ("train", "--dataset", "csv", *_TINY),
}


@pytest.mark.parametrize("base", list(_BASE_RUNS))
def test_every_key_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch, base):
    argv = _BASE_RUNS[base]
    if base == "train_csv":
        assert run("gen-data", "--n", "16", "--t", "8", "--output-dir", str(tmp_path / "data")) == 0
        argv += ("--csv-path", str(tmp_path / "data" / "dataset.csv"))
    monkeypatch.chdir(tmp_path)  # an output_dir of one of the strings is made here
    failures = []
    for key in _DEFAULTS[argv[0]]:
        for value in _BAD_STRINGS:
            if key in _SIZE_KEYS and value == "18446744073709551616":
                continue
            case = f"{base} --{key} {value!r}"
            try:
                code = run(*argv, "--output-dir", "out", "--" + key, value)
            except Exception as exc:  # an escaped exception breaks the contract
                code = repr(exc)
            capsys.readouterr()
            if code not in (0, 1, 2):
                failures.append(f"{case}: {code}")
    assert not failures, failures


def test_readme_cli_block_uses_only_known_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").strip().split("\n")
    commands = [line.split()[1] for line in lines]
    assert set(commands) == set(_DEFAULTS)
    for command, line in zip(commands, lines):
        for key in re.findall(r"--([a-z][a-z0-9-]*)", line):
            assert key.replace("-", "_") in _DEFAULTS[command], f"{command} --{key}"
