"""Output checks run after the timed region, against independent references.

Every check returns a list of ``(name, ok, detail)`` tuples; the benchmark
counts each tuple as one attempted check.  Files are streamed row by row so
the checks add little to the child's peak memory.
"""

from __future__ import annotations

import csv
import filecmp
import glob
import json
import math
import os
import random
import tempfile

# Acceptance criterion 02's tolerance for kappa against the golden-section oracle.
KAPPA_ORACLE_TOL = 1e-6
ADP_ORACLE_ROWS = 256
TRANSFER_TOL = 1e-12


def guarded(check, *args):
    """Run check(*args); an output so broken that the check raises is one failed check."""
    try:
        return check(*args)
    except Exception as exc:  # missing, truncated or malformed output
        return [("outputs", False, f"{type(exc).__name__}: {exc}")]


def _trace_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            yield (float(row[2]), float(row[3]), float(row[4]), float(row[5]),
                   row[6] == "true")


def check_adp_trace(path, n_rows: int, lam: float, seed: int):
    """ADP trace: row count, kappa in (0, e], sampled kappa vs golden section."""
    from crucial.properties import golden_section_min

    picked = set(random.Random(seed).sample(range(n_rows), ADP_ORACLE_ROWS))
    count = out_of_range = 0
    worst = 0.0
    for i, (loss, kappa, thr, _value, _sel) in enumerate(_trace_rows(path)):
        count += 1
        if not 0.0 < kappa <= math.e:
            out_of_range += 1
        if i in picked:
            oracle = golden_section_min(
                lambda k: k * (loss - thr) + lam * math.log(k) ** 2, 1e-8, math.e)
            worst = max(worst, abs(kappa - oracle))
    return [
        ("adp.rows", count == n_rows, f"{count} rows, expected {n_rows}"),
        ("adp.kappa_range", out_of_range == 0, f"{out_of_range} kappa outside (0, e]"),
        ("adp.kappa_oracle", worst <= KAPPA_ORACLE_TOL,
         f"max |kappa - golden section| {worst:.3e} on {ADP_ORACLE_ROWS} rows"),
    ]


def check_sin_trace(path, n_rows: int):
    """SIN trace: row count; unselected rows are zero, selected kappa in [0, e]."""
    count = bad = 0
    for loss, kappa, _thr, value, selected in _trace_rows(path):
        count += 1
        if selected:
            bad += not 0.0 <= kappa <= math.e
        else:
            bad += not (kappa == 0.0 and value == 0.0)
    return [
        ("sin.rows", count == n_rows, f"{count} rows, expected {n_rows}"),
        ("sin.gating", bad == 0, f"{bad} rows break the gating rule"),
    ]


def check_transfer(path):
    """Transfer JSON: R in [0, 1]; bwt and fwt recomputed from R and baseline."""
    with open(path, encoding="utf-8") as fh:
        tm = json.load(fh)
    R, b = tm["R"], tm["baseline"]
    k = len(R)
    bwt = sum(R[k - 1][i] - R[i][i] for i in range(k - 1)) / (k - 1)
    fwt = sum(R[i - 1][i] - b[i] for i in range(1, k)) / (k - 1)
    in_unit = all(0.0 <= v <= 1.0 for row in R for v in row)
    err = max(abs(bwt - tm["bwt"]), abs(fwt - tm["fwt"]))
    return [
        ("transfer.R_range", in_unit, "every R entry in [0, 1]" if in_unit else "R entry outside [0, 1]"),
        ("transfer.bwt_fwt", err <= TRANSFER_TOL, f"max recompute error {err:.3e}"),
    ]


def check_simulate(out_dir: str, n_points: int, tolerance_se: float = 3.0):
    """simulate reports: all present; each normal point within tolerance_se * se."""
    paths = sorted(glob.glob(os.path.join(out_dir, "report_*.json")))
    results = [("mc.reports", len(paths) == n_points, f"{len(paths)} reports, expected {n_points}")]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        if rep["population"]["kind"] != "normal":
            continue
        z = max(abs(rep["mc"][k] - rep["analytic"][k]) / rep["stderr"][k] for k in ("e_u", "e_p"))
        results.append((f"mc.{os.path.basename(path)}", z <= tolerance_se,
                        f"max |mc - analytic| / se = {z:.3g}"))
    return results


def check_properties(path):
    with open(path, encoding="utf-8") as fh:
        ok = json.load(fh).get("all_passed") is True
    return [("properties.all_passed", ok, f"all_passed={ok}")]


def check_csv_round_trip(path, n_rows: int):
    """The generated CSV loads all rows, rejects none and re-saves byte-identical."""
    from crucial.data import load_csv, save_csv

    result = load_csv(path)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        again = os.path.join(tmp, "resaved.csv")
        save_csv(again, result.dataset)
        same = filecmp.cmp(path, again, shallow=False)
    loaded = len(result.dataset.samples)
    return [
        ("csv.rows", loaded == n_rows, f"{loaded} rows loaded, expected {n_rows}"),
        ("csv.rejected", not result.rejected, f"{len(result.rejected)} rejected rows"),
        ("csv.resave_identical", same, "re-saved file is byte-identical" if same else "re-saved file differs"),
    ]


def check_same_outputs(out_dir: str, reference_dir: str):
    """A later pass reproduces the checked first pass's files byte for byte."""
    def listing(root):
        return sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _dirs, files in os.walk(root) for f in files)

    names = listing(out_dir)
    if names != listing(reference_dir):
        return [("outputs.identical", False, "the set of output files differs from the first pass")]
    _match, mismatch, errors = filecmp.cmpfiles(out_dir, reference_dir, names, shallow=False)
    differ = mismatch + errors
    return [("outputs.identical", not differ,
             f"{len(names)} files identical to the first pass" if not differ
             else f"differ from the first pass: {differ[:5]}")]
