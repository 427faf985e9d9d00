"""The benchmark's span tracer still finds every name it hooks.

``bench/spans.py`` rebinds functions, methods and table entries of the live
package by name; a renamed or deleted name makes the traced benchmark run
crash.  Installing and uninstalling the tracer here turns that into a test
failure.
"""

import contextlib
import importlib
import sys
from pathlib import Path

import numpy as np

from crucial import data, loss, properties, sampler, trainer
from crucial.numerics import SeededRng

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODEL_CLASSES = (trainer.LinearModel, trainer.MLPModel, trainer.ElmanRNN)


@contextlib.contextmanager
def _installed():
    """Install the tracer; on exit uninstall it and drop the inherited methods
    that uninstall re-sets on each model class, so every class again
    inherits what it did before."""
    sys.path.insert(0, str(BENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))
    own = {cls: set(vars(cls)) for cls in MODEL_CLASSES}
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        yield tracer
    finally:
        tracer.uninstall()
        for cls in MODEL_CLASSES:
            for attr in set(vars(cls)) - own[cls]:
                delattr(cls, attr)


def test_tracer_installs_and_uninstalls_on_the_live_package():
    original = trainer.forward_backward
    with _installed():
        assert trainer.forward_backward is not original
    assert trainer.forward_backward is original


def test_linear_forward_is_traced_under_its_own_kind():
    # LinearModel inherits MLPModel.forward_with_cache; the tracer rebinds it
    # on LinearModel itself, so linear time must not land in the mlp span.
    model = trainer.make_model("linear", 4, 1, SeededRng(0))
    X = np.arange(8.0).reshape(2, 4)
    before = model.forward_with_cache(X)[0]
    with _installed() as tracer:
        traced = model.forward_with_cache(X)[0]
    names = [span[1] for span in tracer.spans]
    assert names.count("trainer.forward_with_cache.linear") == 1
    assert "trainer.forward_with_cache.mlp" not in names
    assert "forward_with_cache" not in vars(trainer.LinearModel)
    after = model.forward_with_cache(X)[0]
    assert before.tobytes() == traced.tobytes() == after.tobytes()


def test_trace_writer_span_counts_the_rows_it_writes(tmp_path):
    # The tracer counts rows from the writer's second positional argument
    # and bytes from its first; a signature drift breaks these counters.
    n = 1500
    record = loss.modulate_epoch(np.linspace(0.1, 2.0, n), loss.CrucialConfig(loss.Variant.ADP))
    path = tmp_path / "trace.csv"
    with _installed() as tracer:
        loss.write_loss_trace(path, np.zeros(n, dtype=int), np.arange(n), record)
    names = [span[1] for span in tracer.spans]
    assert names.count("loss.write_loss_trace") == 1
    rows = path.read_text(encoding="utf-8").count("\n") - 1
    assert tracer.counters["write_loss_trace.rows"] == rows == n
    assert tracer.counters["write_loss_trace.bytes"] == path.stat().st_size


def test_a_traced_adp_run_spans_each_threshold_it_computes():
    # The tracer rebinds loss.advance_epoch_adp where modulate_epoch looks it
    # up; a training path that computed the threshold under any other name
    # would run untraced and leave the loss.advance_epoch_adp metrics at 0.
    epochs = 5
    task = trainer.TaskSpec(epochs, 0.1,
                            wrapper=loss.CrucialConfig(loss.Variant.ADP, lam=0.01))

    def trained():
        rng = SeededRng(6)
        ds = data.gen_sine_regression(32, 16, 0.1, rng.derive("data"))
        model = trainer.make_model("mlp", 8, 1, rng.derive("model"), hidden=(4,))
        trainer.train_model(model, ds, task)
        return model.params

    untraced = trained()
    with _installed() as tracer:
        traced = trained()
    names = [span[1] for span in tracer.spans]
    assert names.count("trainer.train_epoch") == epochs
    assert names.count("loss.advance_epoch_adp") == epochs - 1
    assert traced.tobytes() == untraced.tobytes()


def test_traced_suites_report_what_untraced_ones_do():
    # The tracer rebinds every SUITES entry and counts kappa_star hits with a
    # scalar comparison; a traced run must still complete and agree.
    untraced = properties.run_suites(0)
    with _installed() as tracer:
        traced = properties.run_suites(0)
    names = [span[1] for span in tracer.spans]
    assert names.count("properties.run_suites") == 1
    assert all(names.count(f"properties.suite.{name}") == 1 for name in properties.SUITES)
    assert traced == untraced


def test_traced_sampler_pass_reports_what_an_untraced_one_does():
    # The tracer rebinds the chunk kernels where the sampler looks them up; a
    # lane task that stopped calling them by those names would run untraced
    # and leave sampler.chunk empty.
    pop = sampler.LossPopulation(sampler.PopulationKind.HALF_NORMAL, mu=0.1, sigma=0.8)
    untraced = sampler.compare_conditions(pop, 1.5, 2_000, SeededRng(4), workers=2)
    with _installed() as tracer:
        traced = sampler.compare_conditions(pop, 1.5, 2_000, SeededRng(4), workers=2)
    names = [span[1] for span in tracer.spans]
    assert traced == untraced
    assert names.count("sampler.compare_conditions") == 1
    # one U and one P kernel call per chunk
    assert names.count("sampler.chunk") == 2 * sampler._MC_CHUNKS
