"""Benchmark of the ``crucial`` CLI: end-to-end metrics, or per-layer metrics when traced.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats passes of the workload until the passes' timed regions add up
to ``--seconds`` (at least three passes), then starts set-up probes until it
has nine start-ups to take the median of.  The first pass's outputs are
checked in full; every later pass must reproduce them byte for byte.  Each pass is a fresh child process
(``bench/child.py``) that imports ``crucial`` from this checkout's ``src``,
runs the workload's CLI jobs one at a time and checks their outputs.

With ``--trace 0`` the run reports, as medians over its passes:

* ``setup_s``: child spawn to "ready" (interpreter start plus imports);
* ``run_s``: wall time of the workload's ``cli.main`` calls;
* ``work_per_s``: the workload's work units per second of ``run_s``;
* ``peak_rss_mb``: the child's ``ru_maxrss``, read with ``os.wait4``.

With ``--trace 1`` traced and untraced passes alternate; the run reports the
per-layer metrics of ``bench/spans.py`` (medians over traced passes) and the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (output checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import PER_LAYER, percentile  # noqa: E402
from workloads import EXPECTED_MOVES, WORKLOADS  # noqa: E402

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))
MIN_PASSES = 3
# setup_s is the median of at least this many child start-ups per run; set-up
# probes (children that only import) make up what the passes do not give.
MIN_SETUPS = 9
# No new pass starts once this much wall time has gone, so a run ends well
# within three minutes; a child still running at CHILD_DEADLINE_S is killed.
WALL_LIMIT_S = 140.0
CHILD_DEADLINE_S = 170.0
# BLAS threads given to the child (at most nproc): one, so the sampler's two
# pool threads are all the threads that compute at once.
BLAS_THREADS = 1


class ChildFailed(RuntimeError):
    """The child process itself failed (not one of its jobs)."""


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_env(tmp: Path) -> dict:
    """The child's environment: capped BLAS threads, temporary files inside the checkout."""
    env = dict(os.environ, TMPDIR=str(tmp))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_pass(workload: str | None, seed: int, trace: bool, pass_dir: Path, timeout: float,
             out_dir: Path | None = None, reference: Path | None = None) -> dict:
    """Spawn one child, wait for it with os.wait4 and return its result.

    workload None spawns a set-up probe, which imports crucial and exits.
    The child checks its outputs in full, or against reference when given.
    """
    (pass_dir / "tmp").mkdir(parents=True)
    spec_path, result_path, err_path = (pass_dir / n for n in ("spec.json", "result.json", "stderr.txt"))
    spec = {"src": str(ROOT / "src"), "workload": workload, "seed": seed, "trace": trace,
            "out_dir": str(out_dir), "reference": reference and str(reference),
            "result": str(result_path), "spans": str(pass_dir / "spans.jsonl")}
    spec_path.write_text(json.dumps(spec))
    with open(err_path, "w", encoding="utf-8") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            cwd=ROOT, env=child_env(pass_dir / "tmp"), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise ChildFailed(f"child exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawn
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["traced"] = trace
    return result


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values) -> str:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100.0 >= 10:
            return f"p{pct}={percentile(values, pct):.4g}"
    return "tail n/a"


def print_timings(rows) -> None:
    print(f"{'metric':<42} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12}  n  tail")
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"{name:<42} {unit:<7} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>2}  "
              f"{tail_percentile(values)}")


def end_to_end_metrics(passes, setups, work: float, work_unit: str):
    samples = {
        "run_s": [p["run_s"] for p in passes],
        "setup_s": setups,
        "work_per_s": [work / p["run_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    rows = [(name, unit, samples[name]) for name, unit in END_TO_END]
    print(f"work_per_s counts {work_unit}: {work:g} per pass")
    print_timings(rows)
    return {name: {"value": statistics.median(values), "unit": unit} for name, unit, values in rows}


def per_layer_metrics(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    overhead = (statistics.median(p["run_s"] for p in traced)
                - statistics.median(p["run_s"] for p in plain))
    run_s = statistics.median(p["run_s"] for p in traced)
    metrics = {}
    print(f"traced run_s {run_s:.4f} s over {len(traced)} pass(es); "
          f"untraced {run_s - overhead:.4f} s over {len(plain)} pass(es)")
    print(f"{'metric':<52} {'unit':<7} {'median':>14} {'share of run_s':>15}")
    for name, unit in PER_LAYER:
        value = (overhead if name == "cli.trace_overhead_s"
                 else statistics.median(p["layers"][name] for p in traced))
        metrics[name] = {"value": value, "unit": unit}
        share = f"{100.0 * value / run_s:14.1f}%" if unit == "s" else ""
        print(f"{name:<52} {unit:<7} {value:>14.6g} {share}")
    by_layer: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s") or name == "cli.unattributed_s":
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + metrics[name]["value"]
    # Pool-thread self times are summed over threads, so shares can pass 100%.
    print("self time by layer, share of traced run_s: " + ", ".join(
        f"{layer} {100.0 * value / run_s:.1f}%" for layer, value in by_layer.items()))
    return metrics


def minimum_met(passes, trace: bool) -> bool:
    """A traced run needs a traced and an untraced pass; an untraced run MIN_PASSES."""
    if trace:
        return {p["traced"] for p in passes} == {True, False}
    return len(passes) >= MIN_PASSES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "crucial" / "__init__.py").is_file():
        print(f"error: no crucial package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    work_root = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    # Every pass writes to the same directory, so its outputs (which echo
    # paths) can be compared byte for byte with the checked first pass's.
    out_dir, reference = work_root / "out", work_root / "reference"
    started = time.monotonic()
    passes: list[dict] = []
    try:
        while not (minimum_met(passes, trace) and sum(p["run_s"] for p in passes) >= args.seconds):
            elapsed = time.monotonic() - started
            longest = max((p["wall_s"] for p in passes), default=0.0)
            if minimum_met(passes, trace) and elapsed + longest > WALL_LIMIT_S:
                print(f"stopping after {len(passes)} passes: wall limit", file=sys.stderr)
                break
            traced = trace and len(passes) % 2 == 0
            pass_dir = work_root / f"pass{len(passes)}"
            t0 = time.monotonic()
            result = run_pass(args.workload, args.seed, traced, pass_dir,
                              CHILD_DEADLINE_S - elapsed, out_dir,
                              reference if passes else None)
            result["wall_s"] = time.monotonic() - t0
            passes.append(result)
            if traced:
                shutil.copy(pass_dir / "spans.jsonl",
                            ROOT / ".bench_run" / f"spans-{args.workload}.jsonl")
            shutil.rmtree(pass_dir)
            if len(passes) == 1:
                out_dir.rename(reference)
            else:
                shutil.rmtree(out_dir)
        setups = [p["setup_s"] for p in passes]
        while not trace and len(setups) < MIN_SETUPS:
            probe = run_pass(None, args.seed, False, work_root / f"probe{len(setups)}",
                             CHILD_DEADLINE_S - (time.monotonic() - started))
            setups.append(probe["setup_s"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c[1]]
    provenance = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        **passes[0]["versions"],
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "why": workload.why,
        "argv": [argv for _d, argv in workload.jobs("<out>", args.seed)],
        "expected_moves": EXPECTED_MOVES,
        "passes": len(passes),
    }
    print("provenance: " + json.dumps(provenance))
    for name, _ok, detail in failed:
        print(f"FAILED check {name}: {detail}")
    print(f"checks: {len(checks) - len(failed)}/{len(checks)} passed, "
          f"failed_frac={len(failed) / max(1, len(checks)):.4g}")
    if trace:
        metrics = per_layer_metrics(passes)
    else:
        metrics = end_to_end_metrics(passes, setups, workload.work, workload.work_unit)
    print(json.dumps({"correct": not failed and bool(checks), "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
