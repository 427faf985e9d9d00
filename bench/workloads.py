"""The benchmark's four workloads: CLI jobs, work counts and why each exists.

Each workload is a list of ``crucial`` CLI jobs that one fresh child process
runs back to back (a closed loop from one client, one job at a time).  The
workload seed is the only input that varies between runs; every job receives
it as ``--seed``.  Job argv is built for an output directory so that the
checks can find each job's files afterwards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import checks

# Sizes are fixed so the work per pass is the same on every seed.
REGRESS = dict(n=512, t=64, epochs=400, lr=0.1, lam=0.01)
CONTINUAL_CUTS = (16, 32, 48, 64)
CONTINUAL_N = 512
CONTINUAL_EPOCHS = {"mlp": 120, "elman_rnn": 60}
MC_POINTS = 2 * 4 * 3          # populations x default sigmas x default rates
MC_N = 1_000_000               # simulate's default draws per condition
IO_N = 4096
IO_EPOCHS = 10   # per prefix; the continuous task writes no per-sample loss trace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str          # what work_per_s counts
    work: float             # units of work in one pass
    jobs: Callable[[str, int], list]    # (out_dir, seed) -> [(job_dir, argv)]
    check: Callable[[list, int], list]  # (jobs, seed) -> [(name, ok, detail)]


def _regress_jobs(out: str, seed: int):
    jobs = []
    for wrapper in ("adp", "sin"):
        d = os.path.join(out, wrapper)
        jobs.append((d, [
            "train", "--output-dir", d, "--seed", str(seed),
            "--task", "regression", "--dataset", "sine", "--model", "linear",
            "--n", str(REGRESS["n"]), "--t", str(REGRESS["t"]),
            "--epochs", str(REGRESS["epochs"]),
            "--learning-rate", str(REGRESS["lr"]), "--lam", str(REGRESS["lam"]),
            "--wrapper", wrapper,
        ]))
    return jobs


def _regress_check(jobs, seed: int):
    n_rows = REGRESS["n"] * REGRESS["epochs"]
    (adp_dir, _), (sin_dir, _) = jobs
    return (checks.check_adp_trace(os.path.join(adp_dir, "loss_trace_run0.csv"), n_rows,
                                   REGRESS["lam"], seed)
            + checks.check_sin_trace(os.path.join(sin_dir, "loss_trace_run0.csv"), n_rows))


def _continual_jobs(out: str, seed: int):
    jobs = []
    for model, epochs in CONTINUAL_EPOCHS.items():
        d = os.path.join(out, model)
        jobs.append((d, [
            "train", "--output-dir", d, "--seed", str(seed),
            "--task", "continuous", "--dataset", "drift", "--model", model,
            "--n", str(CONTINUAL_N), "--label-noise", "0.3", "--class-sep", "1.2",
            "--cuts", ",".join(map(str, CONTINUAL_CUTS)), "--epochs", str(epochs),
        ]))
    return jobs


def _continual_check(jobs, seed: int):
    return [c for job_dir, _ in jobs
            for c in checks.check_transfer(os.path.join(job_dir, "transfer_run0.json"))]


def _mc_jobs(out: str, seed: int):
    return [(out, [
        "simulate", "--output-dir", out, "--seed", str(seed),
        "--populations", "normal,half_normal", "--workers", "2",
    ])]


def _mc_check(jobs, seed: int):
    return checks.check_simulate(jobs[0][0], MC_POINTS)


def _io_jobs(out: str, seed: int):
    props = os.path.join(out, "properties")
    data = os.path.join(out, "data")
    fit = os.path.join(out, "fit")
    return [
        (props, ["properties", "--output-dir", props, "--seed", str(seed)]),
        (data, ["gen-data", "--output-dir", data, "--seed", str(seed),
                "--kind", "drift", "--n", str(IO_N)]),
        (fit, ["train", "--output-dir", fit, "--seed", str(seed),
               "--task", "continuous", "--dataset", "csv",
               "--csv-path", os.path.join(data, "dataset.csv"), "--model", "linear",
               "--cuts", ",".join(map(str, CONTINUAL_CUTS)), "--epochs", str(IO_EPOCHS)]),
    ]


def _io_check(jobs, seed: int):
    (props, _), (data, _), (fit, _) = jobs
    return (checks.check_properties(os.path.join(props, "properties.json"))
            + checks.check_csv_round_trip(os.path.join(data, "dataset.csv"), IO_N)
            + checks.check_transfer(os.path.join(fit, "transfer_run0.json")))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "regress-wrapped",
            "scalar ADP and SIN loss loops plus the 204,800-row loss trace writer; backprop is negligible",
            "sample-epochs",
            2 * REGRESS["n"] * REGRESS["epochs"],
            _regress_jobs,
            _regress_check,
        ),
        Workload(
            "continual-plain",
            "per-sample gradients of the MLP and the Elman RNN over four prefixes; the loss layer is bypassed",
            "sample-epochs",
            sum(CONTINUAL_N * e * len(CONTINUAL_CUTS) for e in CONTINUAL_EPOCHS.values()),
            _continual_jobs,
            _continual_check,
        ),
        Workload(
            "mc-simulate",
            "Monte Carlo sampler kernels and thread pool at the default grid; no loss or trainer code runs",
            "MC draws",
            MC_POINTS * 2 * MC_N,
            _mc_jobs,
            _mc_check,
        ),
        Workload(
            "checks-io",
            "scalar Lambert W and golden-section oracles in the property suites plus the CSV save/load contract",
            "CLI jobs",
            3,
            _io_jobs,
            _io_check,
        ),
    )
}

# Which end-to-end metric each layer's metrics should move, and on which
# workload; written down before any measurement, printed with every run.
EXPECTED_MOVES = {
    "numerics": "work_per_s on regress-wrapped, run_s on checks-io",
    "loss": "work_per_s, run_s and peak_rss_mb on regress-wrapped; nothing on continual-plain or mc-simulate",
    "trainer": "work_per_s on continual-plain; little on regress-wrapped",
    "sampler": "work_per_s on mc-simulate only",
    "data": "run_s on checks-io; a small share of run_s on the training workloads",
    "properties": "run_s on checks-io",
    "cli": "run_s everywhere: config resolution (main), command code outside traced functions (unattributed_s)",
}
