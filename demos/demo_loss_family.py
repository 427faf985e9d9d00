"""Tour of the confidence-weighted loss family.

Walks the closed form itself, then the two scheduling variants: the
cycled one driven by a squared-sine phase and the adaptive one driven by
the skewness of the previous epoch's losses.  Everything prints as small
tables; pipe to a file if you want plot-ready columns.
"""

import math

import numpy as np

from crucial.loss import CrucialConfig, Variant, modulate_epoch

# 1. The closed form.  Confidence kappa minimizes kappa*(l - eps) +
#    lam*(ln kappa)^2, so easy samples (l < eps) get kappa > 1 and hard
#    ones get kappa < 1, capped at e on the easy side.  modulate_epoch
#    weighs a whole epoch's losses at once and returns one record of arrays.
print("confidence weight vs loss  (threshold 0.69, lam 0.01)")
print(f"{'loss':>6} {'kappa':>10} {'weighted':>10}")
losses = [0.1, 0.3, 0.5, 0.69, 1.0, 1.5, 2.5, 5.0]
cfg_base = CrucialConfig(Variant.BASELINE, lam=0.01, threshold=math.log(2.0))
m = modulate_epoch(losses, cfg_base)
for l, kappa, value in zip(losses, m.kappa, m.value):
    print(f"{l:6.2f} {kappa:10.4f} {value:10.4f}")
at_threshold = modulate_epoch([0.7], CrucialConfig(Variant.BASELINE, lam=0.01, threshold=0.7))
print(f"cap: kappa never exceeds e = {math.e:.4f}; "
      f"kappa(loss=threshold) = {at_threshold.kappa[0]:.1f} exactly\n")

# 2. The cycled variant.  A squared sine with omega = pi/4 gives an exact
#    period of 4 epochs: full pass-through, half cycle, zero cycle, half
#    cycle, then the pattern repeats bit for bit.  mu_fixed pins the
#    population mean the cycle measures losses against.
cfg_sin = CrucialConfig(Variant.SIN, lam=0.01, omega=math.pi / 4.0, mu_fixed=1.0)
print("cycled schedule, one sample with loss 0.9, epoch-mean loss 1.0")
print(f"{'epoch':>5} {'kappa':>9} {'value':>9} {'selected':>9}")
for t in range(8):
    m = modulate_epoch([0.9], cfg_sin, t)
    print(f"{t:5d} {m.kappa[0]:9.4f} {m.value[0]:9.4f} {str(m.selected[0]):>9}")
print("epochs 0-3 and 4-7 are identical: the cycle length is 4\n")

# 3. The gate.  At quarter phase the cycled variant drops samples whose
#    loss falls below half the modulation F times the epoch mean.
F = math.sin(cfg_sin.omega * 1 + cfg_sin.phase) ** 2
m = modulate_epoch([0.2, 0.3], cfg_sin, 1)
for l, selected in zip(m.input_loss, m.selected):
    print(f"quarter-phase sample with loss {l}: selected={selected} "
          f"(gate at {0.5 * F * 1.0})")
print()

# 4. The adaptive variant.  The threshold is last epoch's skewness times
#    its mean loss, so a long right tail raises the bar and a symmetric
#    epoch drops it back to zero.  modulate_epoch takes the previous
#    epoch's losses and records the threshold it applied.
cfg_adp = CrucialConfig(Variant.ADP, lam=0.01)
prev_losses = None
gen = np.random.default_rng(7)
print("adaptive schedule on a shrinking, right-skewed loss population")
print(f"{'epoch':>5} {'threshold':>10} {'mean_kappa':>11} {'share_ge1':>10}")
losses = np.concatenate([gen.uniform(0.1, 0.5, 48), gen.uniform(1.5, 3.0, 16)])
for epoch in range(6):
    m = modulate_epoch(losses, cfg_adp, epoch, prev_losses)
    print(f"{epoch:5d} {m.threshold[0]:10.4f} {m.kappa.mean():11.4f} "
          f"{np.mean(m.kappa >= 1.0):10.2f}")
    prev_losses = losses
    losses = losses * 0.8  # homogeneity: the shape, not the scale, matters
print("threshold follows skewness * mean, so it decays with the losses")
