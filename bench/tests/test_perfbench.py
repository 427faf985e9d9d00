"""Self-tests of the benchmark: span arithmetic, metric names, output checks.

Run with: python3 -m pytest bench/tests -q
"""

import csv
import json
import math
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import run
import spans
from crucial.loss import kappa_star, modulated_value

BENCH = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(sid, start, end, parent=None, tid=1, agg=0.0, name="x"):
    return (sid, name, start, end, parent, tid, agg)


def test_self_time_nested_and_overlapping_threads():
    spans_ = [
        _span(1, 0.0, 10.0, agg=0.5),          # parent on the main thread
        _span(2, 1.0, 3.0, parent=1),          # same-thread child
        _span(3, 1.5, 2.0, parent=2),          # grandchild
        _span(4, 2.0, 6.0, parent=1, tid=2),   # pool thread, overlaps child 2
        _span(5, 5.0, 8.0, parent=1, tid=3),   # second pool thread, overlaps child 4
        _span(6, 9.0, 12.0, parent=1, tid=2),  # runs past the parent's end
    ]
    selfs = spans.self_times(spans_)
    # Children cover [1, 8] and [9, 10] of the parent: 8 s, plus 0.5 s aggregated.
    assert selfs[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selfs[2] == pytest.approx(1.5)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[6] == pytest.approx(3.0)
    summary = spans.summarize(spans_)
    assert summary["x"]["calls"] == 6
    assert summary["x"]["self_s"] == pytest.approx(sum(selfs.values()))


def test_covered_length_merges_overlaps():
    assert spans.covered_length([]) == 0.0
    assert spans.covered_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.7)]) == pytest.approx(3.0)


def test_tracer_stack_aggregates_and_pool_parent():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.aggregate(lambda x: x, "inner", hit=lambda r: r > 0)
    outer = tracer.aggregate(lambda x: inner(x) + inner(-x), "outer")
    leaf = tracer.span(lambda: None, "leaf")

    def body():
        outer(1)
        leaf()

    top = tracer.span(body, "top")
    top()
    calls, total, self_s, hits = tracer.aggregates["inner"]
    assert (calls, total, self_s, hits) == (2, 2.0, 2.0, 1)
    # outer spans ticks 1..6 and its two inner calls take 1 tick each.
    assert tracer.aggregates["outer"][1:3] == [5.0, 3.0]
    by_name = spans.summarize(tracer.spans)
    # top spans ticks 0..9: outer (5 ticks, aggregated) and leaf (1 tick, span).
    assert by_name["top"]["total_s"] == 9.0
    assert by_name["top"]["self_s"] == 9.0 - 5.0 - 1.0

    pooled = spans.Tracer()
    chunk = pooled.span(lambda: threading.get_ident(), "chunk")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result() for f in [pool.submit(chunk) for _ in range(4)]]

    pooled.span(fan_out, "mc", parents_pool=True)()
    mc_id = next(s[0] for s in pooled.spans if s[1] == "mc")
    chunks = [s for s in pooled.spans if s[1] == "chunk"]
    assert len(chunks) == 4 and all(s[4] == mc_id for s in chunks)
    assert all(s[5] != threading.get_ident() for s in chunks)


def test_unattributed_is_command_time_outside_traced_functions():
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    write = tracer.span(lambda: None, "trainer.write_metrics_csv")

    def body():
        write()      # ticks 2..3: traced, so trainer's
        next(ticks)  # one tick of untraced command code

    command = tracer.span(body, "cli.command")
    tracer.span(command, "cli.main")()
    values = spans.layer_metrics(tracer)
    # main spans ticks 0..6, the command 1..5, the writer 2..3.
    assert values["cli.main.self_s"] == 2.0
    assert values["cli.unattributed_s"] == 3.0
    assert values["trainer.write_metrics_csv.self_s"] == 1.0


def test_metric_names_units_and_benchmark_json_agree():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in spans.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in list(run.END_TO_END) + list(spans.PER_LAYER):
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert set(spans.layer_metrics(spans.Tracer())) == {n for n, _ in spans.PER_LAYER}
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()}


def test_suite_names_match_the_property_suites():
    from crucial.properties import SUITES
    assert tuple(SUITES) == spans.SUITE_NAMES


def _write_trace(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "sample_id", "input_loss", "kappa", "threshold", "value", "selected"])
        for i, (loss, kappa, thr, value, selected) in enumerate(rows):
            writer.writerow([0, i, repr(loss), repr(kappa), repr(thr), repr(value),
                             str(selected).lower()])


def _adp_rows(n, lam=0.01):
    rows = []
    for i in range(n):
        loss, thr = 0.01 * i, 0.3
        k = kappa_star(loss, thr, lam)
        rows.append((loss, k, thr, modulated_value(loss, thr, lam, k), True))
    return rows


def _failed(results):
    return {name for name, ok, _ in results if not ok}


def test_adp_trace_check_catches_kappa_above_e(tmp_path):
    rows = _adp_rows(300)
    path = tmp_path / "trace.csv"
    _write_trace(path, rows)
    assert _failed(checks.check_adp_trace(path, 300, 0.01, seed=1)) == set()
    loss, _k, thr, value, sel = rows[7]
    rows[7] = (loss, 3.0, thr, value, sel)
    _write_trace(path, rows)
    assert "adp.kappa_range" in _failed(checks.check_adp_trace(path, 300, 0.01, seed=1))
    _write_trace(path, rows[:-1])
    assert "adp.rows" in _failed(checks.check_adp_trace(path, 300, 0.01, seed=1))


def test_a_check_that_raises_on_a_broken_trace_counts_as_failed(tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace(path, _adp_rows(300))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0,300,0.5\n")         # truncated row
    result = checks.guarded(checks.check_adp_trace, path, 301, 0.01, 1)
    assert [(name, ok) for name, ok, _ in result] == [("outputs", False)]
    assert result[0][2].startswith("IndexError")
    path.write_text("")
    assert _failed(checks.guarded(checks.check_sin_trace, path, 4)) == {"outputs"}
    assert _failed(checks.guarded(checks.check_sin_trace, tmp_path / "missing.csv", 4)) == {"outputs"}


def test_sin_trace_check_catches_a_weighted_unselected_row(tmp_path):
    path = tmp_path / "trace.csv"
    rows = [(0.1, 0.0, -0.5, 0.0, False), (0.9, 1.2, -0.5, 0.4, True)]
    _write_trace(path, rows)
    assert _failed(checks.check_sin_trace(path, 2)) == set()
    _write_trace(path, [(0.1, 0.5, -0.5, 0.0, False), rows[1]])
    assert _failed(checks.check_sin_trace(path, 2)) == {"sin.gating"}


def test_transfer_check_catches_a_wrong_bwt(tmp_path):
    R = [[0.6, 0.5, 0.5], [0.7, 0.8, 0.6], [0.75, 0.8, 0.9]]
    b = [0.5, 0.5, 0.5]
    payload = {"R": R, "baseline": b,
               "bwt": ((0.75 - 0.6) + (0.8 - 0.8)) / 2,
               "fwt": ((0.5 - 0.5) + (0.6 - 0.5)) / 2}
    path = tmp_path / "transfer.json"
    path.write_text(json.dumps(payload))
    assert _failed(checks.check_transfer(path)) == set()
    path.write_text(json.dumps(dict(payload, bwt=payload["bwt"] + 1e-9)))
    assert _failed(checks.check_transfer(path)) == {"transfer.bwt_fwt"}


def _report(mc_offset_se):
    return {"population": {"kind": "normal", "mu": 0.0, "sigma": 1.0},
            "analytic": {"e_u": 1.0, "e_p": 2.0},
            "mc": {"e_u": 1.0 + mc_offset_se * 0.01, "e_p": 2.0},
            "stderr": {"e_u": 0.01, "e_p": 0.01}}


def test_simulate_check_catches_a_point_outside_the_bound(tmp_path):
    (tmp_path / "report_normal_a.json").write_text(json.dumps(_report(2.0)))
    (tmp_path / "report_normal_b.json").write_text(json.dumps(_report(-1.0)))
    assert _failed(checks.check_simulate(str(tmp_path), 2)) == set()
    (tmp_path / "report_normal_b.json").write_text(json.dumps(_report(-3.5)))
    assert _failed(checks.check_simulate(str(tmp_path), 2)) == {"mc.report_normal_b.json"}
    assert "mc.reports" in _failed(checks.check_simulate(str(tmp_path), 3))


def test_properties_and_csv_checks(tmp_path):
    from crucial.data import gen_drift_classification, save_csv
    from crucial.numerics import SeededRng

    props = tmp_path / "properties.json"
    props.write_text(json.dumps({"all_passed": True}))
    assert _failed(checks.check_properties(props)) == set()
    props.write_text(json.dumps({"all_passed": False}))
    assert _failed(checks.check_properties(props)) == {"properties.all_passed"}

    path = tmp_path / "dataset.csv"
    save_csv(path, gen_drift_classification(8, 6, 1.0, 0.0, SeededRng(3)))
    assert _failed(checks.check_csv_round_trip(str(path), 8)) == set()
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "0" + cells[1]            # same label, written differently
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines + ["9,1,x,1,1,1,1,1"]) + "\n")
    assert _failed(checks.check_csv_round_trip(str(path), 8)) == {"csv.rejected", "csv.resave_identical"}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) == "tail n/a"
    assert run.tail_percentile(list(range(100))).startswith("p90=")
    assert not math.isnan(run.quartiles([1.0, 2.0, 3.0])[1])


def test_counters_and_spans_survive_concurrent_updates():
    tracer = spans.Tracer()
    bump = tracer.span(lambda: None, "bump", counts=lambda a, r: {"n": 1})

    def hammer():
        for _ in range(5000):
            bump()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counters["n"] == 20000
    assert len(tracer.spans) == 20000
    assert len({s[0] for s in tracer.spans}) == 20000


def test_same_outputs_check_catches_a_changed_byte(tmp_path):
    first, later = tmp_path / "first", tmp_path / "later"
    for root in (first, later):
        (root / "job").mkdir(parents=True)
        (root / "job" / "a.csv").write_text("1,2\n")
        (root / "b.json").write_text("{}\n")
    assert _failed(checks.check_same_outputs(str(later), str(first))) == set()
    (later / "job" / "a.csv").write_text("1,3\n")
    assert _failed(checks.check_same_outputs(str(later), str(first))) == {"outputs.identical"}
    (later / "job" / "a.csv").unlink()
    assert _failed(checks.check_same_outputs(str(later), str(first))) == {"outputs.identical"}
