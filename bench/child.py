"""One benchmark pass in a fresh interpreter: set up, run the jobs, check them.

Usage: python3 bench/child.py SPEC.json

SPEC holds the checkout's ``src`` directory, the workload name (None for a
set-up probe that only imports), the seed, the output directory, whether to
trace, and where to write the result and the spans.  The child imports
``crucial`` from that ``src`` only, marks the end of set-up, calls
``crucial.cli.main(argv)`` for each job in order, and checks the outputs
after the timed region: in full when SPEC has no reference directory,
otherwise by comparing them byte for byte with the reference (the checked
first pass of the run; the CLI's outputs are byte-identical for one seed).
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import crucial
    import crucial.cli
    import numpy
    import scipy

    if not os.path.realpath(crucial.__file__).startswith(src + os.sep):
        raise ImportError(f"crucial was imported from {crucial.__file__}, not from {src}")
    ready = time.monotonic()
    if spec["workload"] is None:       # a set-up probe: import and report only
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump({"ready": ready}, fh)
        return 0

    import checks
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    jobs = workload.jobs(spec["out_dir"], spec["seed"])
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    codes = []
    begin = time.perf_counter()
    for _job_dir, argv in jobs:
        try:
            codes.append(crucial.cli.main(argv))
        except Exception as exc:  # a job that raises counts as a failed check
            traceback.print_exc()
            codes.append(f"{type(exc).__name__}: {exc}")
    run_s = time.perf_counter() - begin

    result = {"ready": ready, "run_s": run_s}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(tracer)
        tracer.write_spans(spec["spans"])

    outcome = [(f"job{i}.exit", code == 0, f"exit {code}") for i, code in enumerate(codes)]
    if spec["reference"] is None:
        outcome += checks.guarded(workload.check, jobs, spec["seed"])
    else:
        outcome += checks.guarded(checks.check_same_outputs, spec["out_dir"], spec["reference"])
    result["checks"] = outcome
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    # Skip interpreter teardown: freeing the jobs' objects takes time that
    # nothing measures but that would lengthen every pass.
    code = main(sys.argv[1])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
