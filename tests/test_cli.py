"""End-to-end CLI contract: exit codes, file outputs, byte determinism."""

import json
import math

import pytest

from crucial.cli import main
from crucial.data import load_csv
from crucial.loss import KAPPA_CAP


def run(*argv):
    return main(list(argv))


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
        cfg.write_text("seed = 5\nepochs = 4  # comment\n\n# full-line comment\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        code = run("trace-loss", "--config", str(cfg), "--seed", "9",
                   "--output-dir", str(out))
        assert code == 0
        echoed = (out / "config_resolved.txt").read_text(encoding="utf-8")
        assert "seed=9" in echoed          # flag beat the file
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

    def test_boolean_coercion(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--output-dir", str(out), "--accumulate-stats", "maybe") == 2
        capsys.readouterr()


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
        assert payload["kappa_formula"] == "argmin"
        assert sorted(payload["suites"]) == ["kappa_bounds", "lambert_w_residual"]

    def test_compat_formula_fails_the_oracle_suite(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("properties", "--output-dir", str(out), "--kappa-formula", "half_w")
        assert code == 1
        stdout = capsys.readouterr().out
        assert "FAIL kappa_argmin_oracle:" in stdout
        payload = json.loads((out / "properties.json").read_text(encoding="utf-8"))
        assert payload["kappa_formula"] == "half_w"
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
        assert run("properties", "--output-dir", str(tmp_path),
                   "--kappa-formula", "exact") == 2
        capsys.readouterr()


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
        res = load_csv(out / "dataset.csv", schema=(8, 1))
        assert len(res.dataset) == 12 and res.rejected == []
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

    def test_wrapped_run_logs_confident_set_sizes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", "--output-dir", str(out), "--wrapper", "adp",
                   *self.FAST) == 0
        metrics = (out / "metrics_run0.csv").read_text(encoding="utf-8")
        assert "kappa_ge1_count" in metrics
        capsys.readouterr()

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

    def test_divergence_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("train", "--output-dir", str(out), *self.FAST,
                   "--learning-rate", "1000")
        assert code == 1
        assert "diverged" in capsys.readouterr().err

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
    "simulate_one_draw_far_tail": (("simulate", "--n", "1", "--sigmas", "300", "--rates", "2",
                                    "--seed", "3"), None),
    "simulate_one_draw": (("simulate", "--n", "1"), None),
    "simulate_nan_tolerance": (("simulate", "--tolerance-se", "nan"), None),
    "simulate_negative_tolerance": (("simulate", "--tolerance-se", "-1"), None),
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
    assert "Traceback" not in err
