"""Expected selection errors: closed forms against Monte Carlo.

Condition U picks losses uniformly; condition P tilts the pick toward
low losses by exp(-rate * l).  The demo reproduces the normal-population
closed forms to Monte Carlo precision, then shows the half-normal case
where the transcribed closed form and the measurement disagree, and ends
with the selection/decay loop whose skewness oscillates around zero.
"""

from crucial.numerics import SeededRng
from crucial.sampler import (
    LossPopulation,
    PopulationKind,
    compare_conditions,
    distribution_cycle_sim,
)

N = 200_000

# 1. Normal populations: E_U = sigma^2 and E_P = rate^2 sigma^4 + sigma^2,
#    so uniform selection always has the smaller expected squared error.
print(f"normal populations, n = {N} draws per condition")
print(f"{'sigma':>6} {'rate':>5} {'E_U':>9} {'mc':>9} {'E_P':>9} {'mc':>9} {'lower':>9}")
for sigma in (0.5, 1.0, 2.0):
    for rate in (1.0, 2.0):
        pop = LossPopulation(PopulationKind.NORMAL, mu=0.0, sigma=sigma)
        rep = compare_conditions(pop, rate, N, SeededRng(0))
        print(f"{sigma:6.1f} {rate:5.1f} {rep.analytic_eu:9.4f} {rep.mc_eu:9.4f} "
              f"{rep.analytic_ep:9.4f} {rep.mc_ep:9.4f} "
              f"{rep.analytic_order.value:>9}")
print()

# 2. The half-normal case at sigma = 0.5, rate = 1.  The closed form for
#    E_P is kept verbatim from its source derivation; the Monte Carlo
#    estimate lands well away from it and on the other side of E_U, so the
#    adjudication is reported rather than asserted.
pop = LossPopulation(PopulationKind.HALF_NORMAL, mu=0.0, sigma=0.5)
rep = compare_conditions(pop, 1.0, 2 * N, SeededRng(1))
print("half-normal, sigma 0.5, rate 1.0")
print(f"  analytic: E_U = {rep.analytic_eu:.6f}  E_P = {rep.analytic_ep:.6f} "
      f"(diamond term {rep.diamond:.6f})")
print(f"  measured: E_U = {rep.mc_eu:.6f} (se {rep.mc_eu_stderr:.2e})  "
      f"E_P = {rep.mc_ep:.6f} (se {rep.mc_ep_stderr:.2e})")
print(f"  ordering: closed form {rep.analytic_order.value}, measurement "
      f"{rep.mc_order.value} -> agree: {rep.analytic_order is rep.mc_order}\n")

# 3. The selection/decay loop.  Uniform selection inflates the right tail
#    (skewness climbs); tilted selection eats the easy mass (skewness
#    falls); alternating on the sign of the skewness makes it oscillate.
stats = distribution_cycle_sim(4000, 100, SeededRng(0), schedule="alternating")
sk = [s.skewness for s in stats]
flips = sum(1 for a, b in zip(sk, sk[1:]) if (a <= 0.0) != (b <= 0.0))
print("alternating selection loop, 100 epochs, 4000 samples")
print("  skewness, first 12 epochs:",
      " ".join(f"{v:+.2f}" for v in sk[:12]))
print(f"  sign changes over the run: {flips}")
