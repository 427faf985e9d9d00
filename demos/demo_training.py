"""Desk-scale training with and without the confidence wrapper.

Three passes: (1) sine-wave regression showing the wrapped losses are
non-inferior to plain SGD, (2) the per-epoch count of confident samples
rising and falling under the adaptive threshold, and (3) a continuous
task over growing prefixes of drifting series, summarized by backward
and forward transfer.
"""

import math
from statistics import median

import numpy as np

from crucial.data import gen_drift_classification, gen_sine_regression, make_prefixes
from crucial.loss import CrucialConfig, Variant
from crucial.numerics import SeededRng, derive_seed
from crucial.trainer import (
    TaskSpec,
    bwt,
    evaluate,
    fwt,
    make_model,
    run_continuous,
    train_model,
)

# 1. Non-inferiority on sine regression: median final test MSE across
#    seeds, wrapped over plain, stays within a few percent of 1.0.
print("sine regression, linear model, 400 epochs, 3 seeds")
ratios = {"adaptive": [], "cycled": []}
for i in range(3):
    rng = SeededRng(derive_seed(42, f"sweep/{i}"))
    train = gen_sine_regression(512, 64, 0.1, rng.derive("data/train"))
    test = gen_sine_regression(256, 64, 0.1, rng.derive("data/test"))
    mses = {}
    for name, wrapper in (
        ("plain", None),
        ("adaptive", CrucialConfig(Variant.ADP, lam=0.01)),
        ("cycled", CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0)),
    ):
        model = make_model("linear", 16, 1, rng.derive("model"))
        task = TaskSpec(400, 0.1, wrapper=wrapper)
        train_model(model, train, task)
        mses[name] = evaluate(model, test)["mse"]
    print(f"  seed {i}: plain {mses['plain']:.5f}  adaptive {mses['adaptive']:.5f}  "
          f"cycled {mses['cycled']:.5f}")
    ratios["adaptive"].append(mses["adaptive"] / mses["plain"])
    ratios["cycled"].append(mses["cycled"] / mses["plain"])
for name, r in ratios.items():
    print(f"  median MSE ratio {name}/plain: {median(r):.3f}")
print()

# 2. Cyclicality of the confident set.  With the adaptive threshold the
#    number of samples at kappa >= 1 breathes instead of saturating.
rng = SeededRng(derive_seed(42, "c9"))
train = gen_sine_regression(512, 64, 0.2, rng.derive("data/train"))
model = make_model("linear", 16, 1, rng.derive("model"))
task = TaskSpec(40, 0.15,
                wrapper=CrucialConfig(Variant.ADP, lam=0.001))
counts = []
train_model(model, train, task, on_epoch=lambda epoch, mod: counts.append(
    int(np.count_nonzero(mod.selected & (mod.kappa >= 1.0)))))
print("confident-set size per epoch (of 512 samples):")
for row in range(0, 40, 10):
    print("  " + " ".join(f"{c:4d}" for c in counts[row:row + 10]))
print()

# 3. Continuous classification over nested prefixes.  R[i, j] is the
#    score on prefix j after training stage i; BWT averages the last
#    row against the diagonal, FWT the superdiagonal against an
#    untrained baseline.
rng = SeededRng(5)
ds = gen_drift_classification(512, 64, 1.0, 0.3, rng.derive("data/train"),
                              class_sep=1.2)
prefixes = make_prefixes(ds, [16, 32, 48, 64])
print("continuous task, 4 prefix cuts, plain vs adaptive wrapper")
for name, wrapper in (("plain", None), ("adaptive", CrucialConfig(Variant.ADP, lam=0.01))):
    model = make_model("mlp", 16, 2, rng.derive("model"), hidden=(8,))
    task = TaskSpec(120, 0.1, wrapper=wrapper)
    tm = run_continuous(model, prefixes, task, rng.derive("continuous"))
    print(f"  {name:9s} BWT {bwt(tm):+.4f}  FWT {fwt(tm):+.4f}")
    if name == "adaptive":
        print("  adaptive transfer matrix R:")
        for row in tm.R:
            print("    " + " ".join(f"{v:.3f}" for v in row))
