"""The executable invariant suites, and what a wrong closed form breaks.

The suites check the library against independent oracles: a golden-section
minimizer for the confidence closed form, brute-force moments for the
streaming statistics, finite differences for the gradients.  Swapping the
suites' kappa kernel for a wrong closed form, with the exponent halved
outside W, shows the dual route doing its job: the argmin oracle suite
fails while the structural properties (translation, homogeneity,
differentiated scaling) survive.
"""

from unittest import mock

import numpy as np

from crucial import properties
from crucial.loss import shell_value
from crucial.numerics import W_DOMAIN_MIN, lambert_w0_array
from crucial.properties import run_suites


def halved_exponent(losses, threshold, lam):
    """exp(-W(max(beta, -1/e))/2), not the shell's minimizer exp(-W(beta/2))."""
    gap = losses - threshold
    kappa = np.exp(-0.5 * lambert_w0_array(np.maximum(gap / lam, W_DOMAIN_MIN)))
    return kappa, shell_value(gap, lam, kappa)


print("the closed form exp(-W(max(-2/e, beta)/2)):")
report = run_suites(0)
for name, entry in report.items():
    print(f"  {'PASS' if entry['passed'] else 'FAIL'} {name}: {entry['detail']}")
print()

print("a wrong closed form, exp(-W(max(-1/e, beta))/2):")
with mock.patch.object(properties, "kappa_and_value", halved_exponent):
    flipped = run_suites(0)
for name, entry in flipped.items():
    if not entry["passed"]:
        print(f"  FAIL {name}: {entry['detail']}")
survivors = [n for n, e in flipped.items() if e["passed"] and n.startswith("property")]
print(f"  structural properties still passing: {', '.join(survivors)}")
