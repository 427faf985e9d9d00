"""The golden manifest: sha256 of every file a fixed list of small CLI runs writes.

Usage (from the root of a checkout):

    PYTHONPATH=src python tests/golden/regenerate.py

runs every entry of RUNS in-process inside a temporary working directory and
rewrites manifest.json next to this file with each run's exit code, the hash
of every file under each run's output directory, and the Python, numpy and
scipy versions that produced them.  Every path a run is given is relative to
that working directory, so an echoed path (``csv_path=`` in
config_resolved.txt) hashes the same wherever the runs happen.

tests/test_golden.py reruns the list and compares.  A change that moves an
output on purpose regenerates the manifest in the same commit and names each
file whose hash changed; an unexplained difference is never regenerated away.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from crucial.cli import main

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

# Odd sample counts, where a strided and a contiguous gemv give different bits.
_SMALL = ["--n", "63", "--test-n", "31", "--t", "32", "--window", "8", "--epochs", "6"]
_CONTINUOUS = ["--task", "continuous", "--dataset", "drift", "--label-noise", "0.3",
               "--class-sep", "1.2", "--cuts", "8,16,24,32"]
_SINGLE_SHOT = ["--task", "single_shot", "--dataset", "drift", "--label-noise", "0.2"]

# (output directory, argv without --output-dir), run in this order: the csv
# run reads the file that gen-sine writes.
RUNS = [
    ("simulate", ["simulate", "--seed", "3", "--n", "4096", "--workers", "2",
                  "--populations", "normal,half_normal", "--sigmas", "0.5,2.0",
                  "--rates", "0.5,2.0"]),
    ("properties", ["properties", "--seed", "5"]),
    ("trace-loss", ["trace-loss", "--epochs", "40"]),
    ("gen-sine", ["gen-data", "--seed", "7", "--kind", "sine", "--n", "47", "--t", "24"]),
    ("gen-drift", ["gen-data", "--seed", "8", "--kind", "drift", "--n", "48", "--t", "24",
                   "--label-noise", "0.2", "--filename", "drift.csv"]),
    ("csv-elman", ["train", "--seed", "9", "--dataset", "csv", "--csv-path",
                   os.path.join("gen-sine", "dataset.csv"), "--model", "elman_rnn",
                   "--window", "8", "--epochs", "5", "--wrapper", "adp",
                   "--mu-policy", "fixed", "--mu-value", "0.8"]),
    # 512 samples x 32 epochs = 16,384 trace rows: two lanes where two CPUs are usable.
    ("regression-linear-none", ["train", "--seed", "11", "--epochs", "32"]),
    ("regression-linear-baseline", ["train", "--seed", "12", *_SMALL, "--model", "linear",
                                    "--wrapper", "baseline", "--threshold", "0.05"]),
    ("regression-mlp-adp", ["train", "--seed", "13", *_SMALL, "--model", "mlp",
                            "--wrapper", "adp", "--hidden", "8,4"]),
    ("regression-elman-adp", ["train", "--seed", "14", *_SMALL, "--model", "elman_rnn",
                              "--wrapper", "adp"]),
    ("regression-elman-none", ["train", "--seed", "15", *_SMALL, "--model", "elman_rnn",
                               "--sweep-seeds", "2"]),
    ("single-linear-baseline", ["train", "--seed", "21", *_SMALL, *_SINGLE_SHOT,
                                "--model", "linear", "--wrapper", "baseline"]),
    ("single-mlp-sin", ["train", "--seed", "22", *_SMALL, *_SINGLE_SHOT, "--model", "mlp",
                        "--wrapper", "sin"]),
    ("single-elman-sin", ["train", "--seed", "23", *_SMALL, *_SINGLE_SHOT,
                          "--model", "elman_rnn", "--wrapper", "sin", "--hidden", "4"]),
    ("continuous-linear", ["train", "--seed", "31", *_SMALL, *_CONTINUOUS, "--model", "linear"]),
    ("continuous-mlp", ["train", "--seed", "32", *_SMALL, *_CONTINUOUS, "--model", "mlp"]),
    ("continuous-elman", ["train", "--seed", "33", *_SMALL, *_CONTINUOUS,
                          "--model", "elman_rnn"]),
]


def versions() -> dict:
    """The Python, numpy and scipy versions, the triple a manifest is tied to."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_all(workdir: str | os.PathLike) -> dict:
    """Run RUNS inside workdir and return {"exit_codes": ..., "files": ...}.

    files maps each output path, relative to workdir, to its sha256.  The
    runs' standard output is discarded; the working directory is restored.
    """
    workdir = Path(workdir)
    exit_codes = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for out_dir, argv in RUNS:
                exit_codes[out_dir] = main([*argv, "--output-dir", out_dir])
    finally:
        os.chdir(here)
    files = {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }
    return {"exit_codes": exit_codes, "files": files}


def main_regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        result = run_all(tmp)
    manifest = {"versions": versions(), **result}
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {MANIFEST.name}: {len(RUNS)} runs, {len(result['files'])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
