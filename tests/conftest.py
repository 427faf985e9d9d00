"""Shared fixtures: a wrong confidence closed form, the negative control of
the oracle suite, and a record of the processes a test starts."""

import subprocess

import numpy as np
import pytest

from crucial import properties
from crucial.loss import shell_value
from crucial.numerics import W_DOMAIN_MIN, lambert_w0_array


def halved_exponent(losses, threshold, lam):
    """exp(-W(max(beta, -1/e))/2) and its shell value: the exponent is halved
    outside W rather than W's argument inside it, so kappa is not the shell's
    minimizer, yet it keeps the shell's structural properties."""
    gap = losses - threshold
    kappa = np.exp(-0.5 * lambert_w0_array(np.maximum(gap / lam, W_DOMAIN_MIN)))
    return kappa, shell_value(gap, lam, kappa)


@pytest.fixture
def halved_exponent_suites(monkeypatch):
    """The invariant suites run with halved_exponent as their kappa kernel."""
    monkeypatch.setattr(properties, "kappa_and_value", halved_exponent)


class StartedProcesses(list):
    """The processes a test started, in order."""

    def all_reaped(self) -> bool:
        """Whether every one has exited, been waited for and had its pipes closed."""
        return all(proc.returncode is not None and proc.stdin.closed and proc.stdout.closed
                   for proc in self)


@pytest.fixture
def started(monkeypatch):
    """Every process started through subprocess.Popen during the test, in order."""
    procs = StartedProcesses()
    real_popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(real_popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return procs

