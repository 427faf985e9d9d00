"""Command-line interface: simulate, train, properties, trace-loss, gen-data.

Configuration is a flat key=value text file (``#`` comments) with every key
overridable by ``--key value`` flags; precedence is flags > file > defaults.
All randomness flows from one ``--seed`` in [0, 2^64) (trace-loss draws none
and has no seed); components derive sub-seeds by fixed hashing of (seed,
component name), so outputs are byte-identical for a given seed regardless
of worker count.  Exit codes: 0 success, 1 check or guard failure, 2
usage/config error.

resolve_config types every value as its default, and each command runs in
two phases.  The first builds every object it needs (grid points, wrapper,
datasets, model, prefixes, losses) from that typed config; a ValueError
raised there is a config error, and nothing but config_resolved.txt has been
written.  The second runs and writes.  main alone maps an OSError from either
phase to exit 2, as a ConfigError, and a diverged training run to exit 1; a
write that fails stops the command there, and the outputs before it stay.
A stdout closed by its reader is no config error: console_main exits 1.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from statistics import median

import numpy as np

from .data import gen_drift_classification, gen_sine_regression, load_csv, make_prefixes, save_csv
from .loss import (
    CrucialConfig,
    LossTraceWriter,
    Variant,
    modulate_epoch,
    write_loss_trace,
)
from .numerics import SeededRng, derive_seed
from .properties import SUITES, run_suites
from .sampler import LossPopulation, PopulationKind, analytic_expected_errors, compare_grid
from .trainer import (
    TaskSpec,
    TrainingDiverged,
    bwt,
    evaluate,
    featurize,
    fwt,
    make_model,
    run_continuous,
    train_model,
    write_metrics_csv,
    write_transfer_json,
)

__all__ = ["main", "console_main", "ConfigError"]

USAGE = """usage: crucial <command> [--config FILE] [--key value ...]

commands:
  simulate    analytic vs Monte Carlo expected sampling errors on a grid
  train       train a model, optionally with a confidence-wrapped loss
  properties  run the executable invariant suites
  trace-loss  two-sample easy/hard confidence trace
  gen-data    write a synthetic dataset under the CSV contract

Every command requires --output-dir.  Keys may come from a key=value config
file (--config) and/or --key value flags; flags win.
"""


class ConfigError(Exception):
    """Invalid usage, flags, or config keys/values (exit code 2)."""


_LN2 = math.log(2.0)

# train --task to the model's output count, which picks the loss.
_TASK_OUTPUTS = {"regression": 1, "single_shot": 2, "continuous": 2}

# The synthetic-data keys that train and gen-data share.
_GENERATOR_DEFAULTS = {
    "n": 512,
    "t": 64,
    "noise_sd": 0.1,
    "freq_lo": 0.02,
    "freq_hi": 0.08,
    "drift_rate": 1.0,
    "label_noise": 0.0,
    "class_sep": 1.8,
}

_DEFAULTS: dict[str, dict] = {
    "simulate": {
        "seed": 0,
        "n": 1_000_000,
        "workers": 1,
        "populations": "normal",
        "sigmas": "0.1,0.5,1.0,2.0",
        "rates": "0.5,1.0,2.0",
        "mu": 0.0,
        "tolerance_se": 3.0,
        "output_dir": "",
    },
    "train": {
        "seed": 0,
        "task": "regression",
        "wrapper": "none",
        "model": "linear",
        "window": 16,
        "hidden": "8",
        "epochs": 60,
        "learning_rate": 0.05,
        "lam": 0.01,
        "omega": math.pi / 4.0,
        "phase": 0.0,
        "mu_policy": "epoch_mean",
        "mu_value": 1.0,
        "threshold": _LN2,
        "dataset": "sine",
        "csv_path": "",
        **_GENERATOR_DEFAULTS,
        "test_n": 256,
        "cuts": "16,32,48,64",
        "sweep_seeds": 1,
        "output_dir": "",
    },
    "properties": {
        "seed": 0,
        "suites": "",
        "output_dir": "",
    },
    "trace-loss": {
        "epochs": 30,
        "lam": 0.01,
        "threshold": _LN2,
        "easy_start": 0.25,
        "hard_start": 2.5,
        "decay": 0.9,
        "output_dir": "",
    },
    "gen-data": {
        "seed": 0,
        "kind": "sine",
        **_GENERATOR_DEFAULTS,
        "filename": "dataset.csv",
        "output_dir": "",
    },
}


def _parse_flags(tokens: list[str]) -> dict[str, str]:
    flags: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(tokens):
                raise ConfigError(f"flag --{key} is missing a value")
            value = tokens[i + 1]
            i += 2
        if not key:
            raise ConfigError("empty flag name")
        flags[key.replace("-", "_")] = value
    return flags


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except UnicodeDecodeError as exc:  # named by path here, unlike an OSError
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return out


def _coerce(key: str, value: str, default):
    try:
        return type(default)(value)
    except ValueError:
        kind = "integer" if isinstance(default, int) else "number"
        raise ConfigError(f"key {key}: cannot parse {value!r} as {kind}") from None


def resolve_config(command: str, file_values: dict, flag_values: dict) -> dict:
    defaults = _DEFAULTS[command]
    resolved = dict(defaults)
    for source in (file_values, flag_values):
        for key, value in source.items():
            if key == "config":
                continue
            if key not in defaults:
                raise ConfigError(f"unknown key {key!r} for command {command}")
            resolved[key] = _coerce(key, value, defaults[key])
    if not resolved.get("output_dir"):
        raise ConfigError("--output-dir is required")
    if "seed" in resolved and not 0 <= resolved["seed"] < 2**64:
        raise ConfigError(f"key seed: must be in [0, 2^64), got {resolved['seed']}")
    return resolved


def _echo_config(cfg: dict, out_dir: str) -> None:
    # output_dir and workers are excluded: neither affects results (worker
    # count is reduction-order invariant), so identical runs into different
    # directories or thread pools stay byte-identical.
    lines = [
        f"{key}={cfg[key]}"
        for key in sorted(cfg)
        if key not in ("output_dir", "workers")
    ]
    with open(os.path.join(out_dir, "config_resolved.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _list(cfg: dict, key: str, parse=str) -> list:
    """The comma-separated items of cfg[key], each passed through parse."""
    out = []
    for item in (p.strip() for p in cfg[key].split(",")):
        if item:
            try:
                out.append(parse(item))
            except ValueError:
                raise ConfigError(f"key {key}: invalid item {item!r} in {cfg[key]!r}") from None
    if not out:
        raise ConfigError(f"key {key}: empty list")
    return out


@contextlib.contextmanager
def _config_errors():
    """Turn a ValueError raised while a command builds its objects into a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(cfg: dict) -> int:
    out_dir, n, workers, tol = cfg["output_dir"], cfg["n"], cfg["workers"], cfg["tolerance_se"]
    kinds = _list(cfg, "populations", PopulationKind)
    sigmas = _list(cfg, "sigmas", float)
    rates = _list(cfg, "rates", float)
    if not all(math.isfinite(r) and r > 0.0 for r in rates):
        raise ConfigError(f"key rates: every rate must be finite and > 0, got {cfg['rates']}")
    if n < 2 or workers < 1:
        raise ConfigError("n must be >= 2 (a standard error needs two draws) and workers >= 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"key tolerance_se: must be finite and > 0, got {tol}")
    with _config_errors():
        # each point's closed forms, evaluated as it is built, raise ValueError
        # where E_U or E_P is not finite or E_U underflows
        grid = []
        for pop in (LossPopulation(kind, cfg["mu"], sigma) for kind in kinds for sigma in sigmas):
            for rate in rates:
                analytic_expected_errors(pop, rate)
                grid.append((pop, rate))
    names = {}  # each point's report file, to the point it was first given to
    for pop, rate in grid:
        name = f"report_{pop.kind.value}_s{pop.sigma:g}_r{rate:g}.json"
        label = f"{pop.kind.value} sigma={pop.sigma!r} rate={rate!r}"
        if name in names:
            raise ConfigError(f"grid points {names[name]} and {label} share the report "
                              f"file {name}")
        names[name] = label

    master = SeededRng(cfg["seed"])
    reports = compare_grid(
        [(pop, rate, master.derive(f"grid/{pop.kind.value}/{pop.sigma!r}/{rate!r}"))
         for pop, rate in grid], n, workers)
    all_pass = True
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as summary:
        summary.write("population sigma rate analytic_eu analytic_ep mc_eu mc_ep "
                      "se_eu se_ep ordering_analytic ordering_mc pass\n")
        for (pop, rate), name, report in zip(grid, names, reports):
            kind, sigma = pop.kind.value, pop.sigma
            checks = report.checks(tol)
            analytic_order, mc_order = report.analytic_order.value, report.mc_order.value
            all_pass = all_pass and checks["passed"]
            payload = {
                "population": {"kind": kind, "mu": pop.mu, "sigma": sigma},
                "lambda": rate,
                "analytic": {
                    "e_u": report.analytic_eu,
                    "e_p": report.analytic_ep,
                    "diamond": report.diamond,
                },
                "mc": {"e_u": report.mc_eu, "e_p": report.mc_ep},
                "stderr": {"e_u": report.mc_eu_stderr, "e_p": report.mc_ep_stderr},
                "ordering": {
                    "analytic": analytic_order,
                    "mc": mc_order,
                    "agree": analytic_order == mc_order,
                },
                "n": n,
                "seed": report.seed,
                "checks": checks,
            }
            _write_json(os.path.join(out_dir, name), payload)
            summary.write(
                f"{kind} {sigma:g} {rate:g} {_fmt(report.analytic_eu)} "
                f"{_fmt(report.analytic_ep)} {_fmt(report.mc_eu)} {_fmt(report.mc_ep)} "
                f"{_fmt(report.mc_eu_stderr)} {_fmt(report.mc_ep_stderr)} "
                f"{analytic_order} {mc_order} {str(checks['passed']).lower()}\n"
            )

    print(f"simulate: {len(grid)} grid points, all checks passed: {all_pass}")
    return 0 if all_pass else 1


def _wrapper_config(cfg: dict) -> CrucialConfig | None:
    name, policy = cfg["wrapper"], cfg["mu_policy"]
    if name not in ("none", *(v.value for v in Variant)):
        raise ConfigError(f"unknown wrapper {name!r}")
    if policy not in ("fixed", "epoch_mean"):
        raise ConfigError(f"unknown mu_policy {policy!r}")
    if name == "none":
        return None
    return CrucialConfig(Variant(name), lam=cfg["lam"], omega=cfg["omega"], phase=cfg["phase"],
                         mu_fixed=cfg["mu_value"] if policy == "fixed" else None,
                         threshold=cfg["threshold"])


def _generate(cfg: dict, kind: str, n: int, rng: SeededRng):
    """n generated samples of kind (sine or drift) from cfg's generator keys."""
    if kind == "sine":
        return gen_sine_regression(n, cfg["t"], cfg["noise_sd"], rng,
                                   freq_range=(cfg["freq_lo"], cfg["freq_hi"]))
    if kind == "drift":
        return gen_drift_classification(n, cfg["t"], cfg["drift_rate"], cfg["label_noise"], rng,
                                        class_sep=cfg["class_sep"])
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _load_csv_dataset(cfg: dict):
    """The dataset in cfg's csv_path, loaded and checked once per command."""
    path = cfg["csv_path"]
    if not path:
        raise ConfigError("dataset=csv requires csv_path")
    try:
        result = load_csv(path)
    except ValueError as exc:  # a bad header or undecodable bytes, named by path here
        raise ConfigError(f"cannot load csv {path}: {exc}") from None
    if result.rejected:
        msgs = "; ".join(issue.message for issue in result.rejected[:5])
        raise ConfigError(f"csv rejected {len(result.rejected)} rows: {msgs}")
    return result.dataset


def _make_datasets(cfg: dict, rng: SeededRng, csv_set):
    """(train, test): the loaded CSV set for both, or two generated sets."""
    if csv_set is not None:
        return csv_set, csv_set
    kind = cfg["dataset"]
    return (_generate(cfg, kind, cfg["n"], rng.derive("data/train")),
            _generate(cfg, kind, cfg["test_n"], rng.derive("data/test")))


def _train_one(cfg: dict, csv_set, run_seed: int, run_id: str, out_dir: str) -> dict:
    rng = SeededRng(run_seed)
    with _config_errors():
        wrapper = _wrapper_config(cfg)
        train_ds, test_ds = _make_datasets(cfg, rng, csv_set)
        hidden = tuple(_list(cfg, "hidden", int))
        if cfg["task"] not in _TASK_OUTPUTS:
            raise ConfigError(f"unknown task {cfg['task']!r}")
        task = TaskSpec(cfg["epochs"], cfg["learning_rate"], wrapper)
        model = make_model(cfg["model"], cfg["window"], _TASK_OUTPUTS[cfg["task"]],
                           rng.derive("model"), hidden=hidden)
        for ds in (train_ds, test_ds):  # bad data fails here, before any training
            featurize(ds, model)
        if cfg["task"] == "continuous":
            cuts = _list(cfg, "cuts", int)
            if len(cuts) < 2:  # a transfer matrix needs at least two stages
                raise ConfigError(f"key cuts: the continuous task needs at least 2 cuts, "
                                  f"got {len(cuts)}")
            prefixes = make_prefixes(train_ds, cuts)

    rows = []  # (epoch, split, metric_name, value)
    if cfg["task"] == "continuous":
        tm = run_continuous(model, prefixes, task, rng.derive("continuous"))
        write_transfer_json(os.path.join(out_dir, f"transfer_{run_id}.json"), tm)
        rows += [(i, f"prefix{j}", "score", tm.R[i, j]) for i, j in np.ndindex(tm.R.shape)]
        final_metrics, last, split = {"bwt": bwt(tm), "fwt": fwt(tm)}, tm.R.shape[0] - 1, "final"
    else:
        ids = train_ds.ids
        with LossTraceWriter(os.path.join(out_dir, f"loss_trace_{run_id}.csv"),
                             task.epochs * ids.size) as trace:
            def on_epoch(epoch, mod):
                trace.append(np.full(ids.size, epoch), ids, mod)
                rows.extend([
                    (epoch, "train", "mean_raw_loss", float(np.mean(mod.input_loss))),
                    (epoch, "train", "kappa_ge1_count",
                     int(np.count_nonzero(mod.selected & (mod.kappa >= 1.0))))])
            train_model(model, train_ds, task, on_epoch=on_epoch)
        final_metrics = evaluate(model, test_ds)
        last, split = task.epochs - 1, "test"
    rows += [(last, split, name, value) for name, value in final_metrics.items()]
    write_metrics_csv(os.path.join(out_dir, f"metrics_{run_id}.csv"),
                      [(run_id, run_seed, *row) for row in rows])
    return final_metrics


def cmd_train(cfg: dict) -> int:
    out_dir, sweep, master_seed = cfg["output_dir"], cfg["sweep_seeds"], cfg["seed"]
    if sweep < 1:
        raise ConfigError("sweep_seeds must be >= 1")
    with _config_errors():
        csv_set = _load_csv_dataset(cfg) if cfg["dataset"] == "csv" else None
    finals: list[dict] = []
    for i in range(sweep):
        run_seed = master_seed if sweep == 1 else derive_seed(master_seed, f"sweep/{i}")
        finals.append(_train_one(cfg, csv_set, run_seed, f"run{i}", out_dir))

    names = sorted({k for f in finals for k in f})
    with open(os.path.join(out_dir, "aggregate.csv"), "w", encoding="utf-8") as fh:
        fh.write("metric_name,median,mean,min,max\n")
        for name in names:
            vals = [f[name] for f in finals if name in f]
            fh.write(
                f"{name},{_fmt(median(vals))},{_fmt(sum(vals) / len(vals))},"
                f"{_fmt(min(vals))},{_fmt(max(vals))}\n"
            )
    shown = ", ".join(f"{k}={v:.6g}" for k, v in sorted(finals[-1].items()))
    print(f"train: {len(finals)} run(s) complete; last final metrics: {shown}")
    return 0


def cmd_properties(cfg: dict) -> int:
    names = None
    if cfg["suites"].strip():
        names = _list(cfg, "suites")
        unknown = [s for s in names if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
    report = run_suites(cfg["seed"], names)
    payload = {
        "seed": cfg["seed"],
        "suites": report,
        "all_passed": all(entry["passed"] for entry in report.values()),
    }
    _write_json(os.path.join(cfg["output_dir"], "properties.json"), payload)
    for name, entry in report.items():
        print(f"{'PASS' if entry['passed'] else 'FAIL'} {name}: {entry['detail']}")
    return 0 if payload["all_passed"] else 1


def cmd_trace_loss(cfg: dict) -> int:
    epochs = cfg["epochs"]
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    for key in ("threshold", "easy_start", "hard_start", "decay"):
        if not math.isfinite(cfg[key]):
            raise ConfigError(f"key {key}: must be finite, got {cfg[key]}")
    with _config_errors():
        wrapper = CrucialConfig(Variant.BASELINE, lam=cfg["lam"], threshold=cfg["threshold"])
    # Row e holds the easy and hard losses after e decay steps, multiplied
    # in the same order as a running product.
    steps = np.full((epochs, 2), cfg["decay"])
    steps[0] = (cfg["easy_start"], cfg["hard_start"])
    with np.errstate(over="ignore", invalid="ignore"):
        losses = np.cumprod(steps, axis=0).ravel()
    if not np.isfinite(losses).all():
        raise ConfigError(f"a loss leaves the float range within {epochs} epochs "
                          f"(easy_start={cfg['easy_start']}, hard_start={cfg['hard_start']}, "
                          f"decay={cfg['decay']})")
    with np.errstate(all="ignore"):
        record = modulate_epoch(losses, wrapper)
    if not np.isfinite(record.value).all():
        raise ConfigError(f"a weighted loss leaves the float range (threshold={cfg['threshold']}, "
                          f"easy_start={cfg['easy_start']}, hard_start={cfg['hard_start']})")

    write_loss_trace(os.path.join(cfg["output_dir"], "trace.csv"),
                     np.repeat(np.arange(epochs), 2), np.tile([0, 1], epochs), record)
    print(f"trace-loss: wrote {epochs} epochs for easy/hard trajectories")
    return 0


def cmd_gen_data(cfg: dict) -> int:
    kind, n, t, seed = cfg["kind"], cfg["n"], cfg["t"], cfg["seed"]
    path = os.path.join(cfg["output_dir"], cfg["filename"])
    if os.path.normpath(path) in (os.path.normpath(os.path.join(cfg["output_dir"], other))
                                  for other in ("meta.json", "config_resolved.txt")):
        raise ConfigError(f"key filename: {cfg['filename']!r} names another output of gen-data")
    with _config_errors():
        ds = _generate(cfg, kind, n, SeededRng(seed).derive("data/train"))

    save_csv(path, ds)
    meta = {"kind": kind, "n": n, "t": t, "flipped_ids": list(ds.flipped_ids), "seed": seed}
    _write_json(os.path.join(cfg["output_dir"], "meta.json"), meta)
    print(f"gen-data: wrote {len(ds)} samples to {path}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "properties": cmd_properties,
    "trace-loss": cmd_trace_loss,
    "gen-data": cmd_gen_data,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(USAGE)
        return 0 if argv else 2
    command = argv[0]
    if command not in _COMMANDS:
        print(f"unknown command {command!r}\n\n{USAGE}", file=sys.stderr)
        return 2
    try:
        flags = _parse_flags(argv[1:])
        file_values = parse_config_file(flags["config"]) if "config" in flags else {}
        cfg = resolve_config(command, file_values, flags)
        os.makedirs(cfg["output_dir"], exist_ok=True)
        _echo_config(cfg, cfg["output_dir"])
        return _COMMANDS[command](cfg)
    except BrokenPipeError:  # a closed stdout is the reader's doing, not a config error
        raise
    except (ConfigError, OSError) as exc:  # an OSError from open() names its path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"{command}: diverged: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's EPIPE idiom: stdout goes to devnull so the exit-time flush
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
