"""Synthetic generators and the bit-exact CSV interchange contract.

Shows the two generators (sine regression and drifting two-class series),
writes a dataset under the CSV contract, proves the write-load-write
round trip is byte-identical, and slices a dataset into nested prefixes.
"""

import tempfile
from pathlib import Path

import numpy as np

from crucial.data import (
    gen_drift_classification,
    gen_sine_regression,
    load_csv,
    make_prefixes,
    save_csv,
)
from crucial.numerics import SeededRng

# 1. Sine regression: each sample is a noisy sinusoid, the label is the
#    next value of the same process one step past the window.
ds = gen_sine_regression(6, 12, 0.05, SeededRng(0))
print("sine regression samples (T=12, label = value at t=12):")
# each sample is one row of the (n, T) values block, with its id and label
for sample_id, series, label in zip(ds.ids[:3], ds.values, ds.labels):
    head = " ".join(f"{v:+.2f}" for v in series[:6])
    print(f"  id {sample_id}: [{head} ...]  label {label:+.3f}")
print()

# 2. Drifting classification: two AR(1) classes around levels that drift
#    upward together, with optional label flips recorded by id.
drift = gen_drift_classification(100, 24, 1.0, 0.1, SeededRng(3))
labels = drift.labels.tolist()
print(f"drift classification: {labels.count(0)} class-0, {labels.count(1)} class-1, "
      f"{len(drift.flipped_ids)} labels flipped: ids {drift.flipped_ids[:6]}...")
print()

# 3. The CSV contract: header id,label,v1..vT, repr floats, empty label
#    cell for unlabeled rows.  Write -> load -> write is byte-identical.
with tempfile.TemporaryDirectory() as tmp:
    p1 = Path(tmp) / "round1.csv"
    p2 = Path(tmp) / "round2.csv"
    save_csv(p1, ds)
    loaded = load_csv(p1)
    save_csv(p2, loaded.dataset)
    print("csv header:", p1.read_text(encoding="utf-8").split("\n")[0])
    same_bytes = p1.read_bytes() == p2.read_bytes()
    same_values = ds.values.tobytes() == loaded.dataset.values.tobytes()
    print(f"write -> load -> write byte-identical: {same_bytes}; "
          f"values bit-exact: {same_values}")

    # malformed rows are rejected one by one with 1-based line numbers,
    # never by discarding the whole file
    bad = Path(tmp) / "bad.csv"
    bad.write_text("id,label,v1,v2\n0,1,0.1,0.2\nx,1,0.1,0.2\n2,1,0.1\n",
                   encoding="utf-8")
    res = load_csv(bad)
    print(f"malformed file: kept {len(res.dataset)} rows, rejected "
          f"{[(r.line, r.message) for r in res.rejected]}")
print()

# 4. Prefix datasets are views, not copies: values[:, :t] of the source,
#    nested across ascending cuts.
prefixes = make_prefixes(ds, [4, 8, 12])
shares = np.shares_memory(prefixes[0].values, ds.values)
print(f"prefixes at cuts 4/8/12: lengths "
      f"{[p.values.shape[1] for p in prefixes]}, views share memory: {shares}")
