"""The benchmark's span tracer still finds every name it hooks.

``bench/spans.py`` rebinds functions, methods and table entries of the live
package by name; a renamed or deleted name makes the traced benchmark run
crash.  Installing and uninstalling the tracer here turns that into a test
failure.
"""

import importlib
import sys
from pathlib import Path

from crucial import trainer

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls_on_the_live_package():
    sys.path.insert(0, str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
    original = trainer.forward_backward
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert trainer.forward_backward is not original
    finally:
        tracer.uninstall()
    assert trainer.forward_backward is original
