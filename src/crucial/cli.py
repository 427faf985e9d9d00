"""Command-line interface: simulate, train, properties, trace-loss, gen-data.

Configuration is a flat key=value text file (``#`` comments) with every key
overridable by ``--key value`` flags; precedence is flags > file > defaults.
All randomness flows from one ``--seed`` in [0, 2^64) (trace-loss draws none
and has no seed); components derive sub-seeds by fixed hashing of (seed,
component name), so outputs are byte-identical for a given seed regardless
of worker count.  Exit codes: 0 success, 1 check or guard failure, 2
usage/config error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from statistics import median

import numpy as np

from .data import gen_drift_classification, gen_sine_regression, load_csv, make_prefixes, save_csv
from .loss import (
    CrucialConfig,
    ModulatedLoss,
    Variant,
    initial_epoch_state,
    modulate_epoch,
    write_loss_trace,
)
from .numerics import SeededRng, derive_seed
from .properties import SUITES, run_suites
from .sampler import (
    LossPopulation,
    Ordering,
    PopulationKind,
    compare_conditions,
    ordering_check,
)
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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return out


def _coerce(key: str, value, default):
    if not isinstance(value, str):
        return value
    if isinstance(default, int):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"key {key}: cannot parse {value!r} as integer") from None
    if isinstance(default, float):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"key {key}: cannot parse {value!r} as number") from None
    return value


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
    for item in (p.strip() for p in str(cfg[key]).split(",")):
        if item:
            try:
                out.append(parse(item))
            except ValueError:
                raise ConfigError(f"key {key}: invalid item {item!r} in {cfg[key]!r}") from None
    if not out:
        raise ConfigError(f"key {key}: empty list")
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_simulate(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    kinds = _list(cfg, "populations", PopulationKind)
    sigmas = _list(cfg, "sigmas", float)
    rates = _list(cfg, "rates", float)
    if not all(math.isfinite(r) and r > 0.0 for r in rates):
        raise ConfigError(f"key rates: every rate must be finite and > 0, got {cfg['rates']}")
    n = int(cfg["n"])
    workers = int(cfg["workers"])
    tol = float(cfg["tolerance_se"])
    if n < 2 or workers < 1:
        raise ConfigError("n must be >= 2 (a standard error needs two draws) and workers >= 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"key tolerance_se: must be finite and > 0, got {cfg['tolerance_se']}")
    master = SeededRng(int(cfg["seed"]))

    rows = []
    all_pass = True
    for kind in kinds:
        for sigma in sigmas:
            for rate in rates:
                try:
                    pop = LossPopulation(kind=kind, mu=float(cfg["mu"]), sigma=sigma)
                    # the closed forms raise ValueError where E_U or E_P is not finite
                    analytic_order = ordering_check(pop, rate)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
                point = master.derive(f"grid/{kind.value}/{sigma!r}/{rate!r}")
                report = compare_conditions(pop, rate, n, point, workers=workers)
                mc_order = (
                    Ordering.U_BEATS_P if report.mc_eu < report.mc_ep
                    else Ordering.P_BEATS_U
                )
                eu_ok = abs(report.mc_eu - report.analytic_eu) <= tol * report.mc_eu_stderr
                if kind is PopulationKind.NORMAL:
                    ep_ok = abs(report.mc_ep - report.analytic_ep) <= tol * report.mc_ep_stderr
                    order_ok = analytic_order is Ordering.U_BEATS_P
                    point_pass = eu_ok and ep_ok and order_ok
                else:
                    # The half-normal E_P closed form is a verbatim
                    # transcription under adjudication; it is reported and
                    # compared but never gates the exit code.
                    ep_ok = None
                    point_pass = eu_ok
                all_pass = all_pass and point_pass
                payload = {
                    "population": {"kind": kind.value, "mu": pop.mu, "sigma": sigma},
                    "lambda": rate,
                    "analytic": {
                        "e_u": report.analytic_eu,
                        "e_p": report.analytic_ep,
                        "diamond": report.diamond,
                    },
                    "mc": {"e_u": report.mc_eu, "e_p": report.mc_ep},
                    "stderr": {"e_u": report.mc_eu_stderr, "e_p": report.mc_ep_stderr},
                    "ordering": {
                        "analytic": analytic_order.value,
                        "mc": mc_order.value,
                        "agree": analytic_order.value == mc_order.value,
                    },
                    "n": n,
                    "seed": report.seed,
                    "checks": {
                        "eu_within_tol": eu_ok,
                        "ep_within_tol": ep_ok,
                        "passed": point_pass,
                    },
                }
                name = f"report_{kind.value}_s{sigma:g}_r{rate:g}.json"
                with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                rows.append((kind.value, sigma, rate, report, analytic_order, mc_order, point_pass))

    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(
            "population sigma rate analytic_eu analytic_ep mc_eu mc_ep "
            "se_eu se_ep ordering_analytic ordering_mc pass\n"
        )
        for kind, sigma, rate, rep, a_ord, m_ord, ok in rows:
            fh.write(
                f"{kind} {sigma:g} {rate:g} {_fmt(rep.analytic_eu)} {_fmt(rep.analytic_ep)} "
                f"{_fmt(rep.mc_eu)} {_fmt(rep.mc_ep)} {_fmt(rep.mc_eu_stderr)} "
                f"{_fmt(rep.mc_ep_stderr)} {a_ord.value} {m_ord.value} {str(ok).lower()}\n"
            )

    print(f"simulate: {len(rows)} grid points, all checks passed: {all_pass}")
    return 0 if all_pass else 1


def _wrapper_config(cfg: dict) -> CrucialConfig | None:
    name = str(cfg["wrapper"]).lower()
    if name == "none":
        return None
    try:
        variant = Variant(name)
    except ValueError:
        raise ConfigError(f"unknown wrapper {name!r}") from None
    policy = str(cfg["mu_policy"])
    if policy not in ("fixed", "epoch_mean"):
        raise ConfigError(f"unknown mu_policy {policy!r}")
    try:
        return CrucialConfig(
            variant,
            lam=float(cfg["lam"]),
            omega=float(cfg["omega"]),
            phase=float(cfg["phase"]),
            mu_fixed=float(cfg["mu_value"]) if policy == "fixed" else None,
            threshold=float(cfg["threshold"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _generate(cfg: dict, kind: str, n: int, rng: SeededRng):
    """n generated samples of kind (sine or drift) from cfg's generator keys."""
    t = int(cfg["t"])
    try:
        if kind == "sine":
            return gen_sine_regression(n, t, float(cfg["noise_sd"]), rng,
                                       freq_range=(float(cfg["freq_lo"]), float(cfg["freq_hi"])))
        if kind == "drift":
            return gen_drift_classification(n, t, float(cfg["drift_rate"]),
                                            float(cfg["label_noise"]), rng,
                                            class_sep=float(cfg["class_sep"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown dataset kind {kind!r}")


def _make_datasets(cfg: dict, rng: SeededRng):
    kind = str(cfg["dataset"])
    if kind == "csv":
        path = str(cfg["csv_path"])
        if not path:
            raise ConfigError("dataset=csv requires csv_path")
        try:
            result = load_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load csv {path}: {exc}") from None
        if result.rejected:
            msgs = "; ".join(issue.message for issue in result.rejected[:5])
            raise ConfigError(f"csv rejected {len(result.rejected)} rows: {msgs}")
        return result.dataset, result.dataset
    return (_generate(cfg, kind, int(cfg["n"]), rng.derive("data/train")),
            _generate(cfg, kind, int(cfg["test_n"]), rng.derive("data/test")))


def _train_one(cfg: dict, run_seed: int, run_id: str, out_dir: str) -> dict:
    rng = SeededRng(run_seed)
    wrapper = _wrapper_config(cfg)
    train_ds, test_ds = _make_datasets(cfg, rng)
    hidden = _list(cfg, "hidden", int)
    try:
        task = TaskSpec(str(cfg["task"]), int(cfg["epochs"]), float(cfg["learning_rate"]),
                        wrapper)
        model = make_model(str(cfg["model"]), int(cfg["window"]), task.n_outputs,
                           rng.derive("model"), hidden=tuple(hidden))
        for ds in (train_ds, test_ds):  # bad data fails here, before any training
            featurize(ds, model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    metrics_rows = []
    if task.task == "continuous":
        cuts = _list(cfg, "cuts", int)
        if len(cuts) < 2:  # a transfer matrix needs at least two stages
            raise ConfigError(f"key cuts: the continuous task needs at least 2 cuts, "
                              f"got {len(cuts)}")
        try:
            prefixes = make_prefixes(train_ds, cuts)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        tm = run_continuous(model, prefixes, task, rng.derive("continuous"))
        write_transfer_json(os.path.join(out_dir, f"transfer_{run_id}.json"), tm)
        for i in range(tm.R.shape[0]):
            for j in range(tm.R.shape[1]):
                metrics_rows.append((run_id, run_seed, i, f"prefix{j}", "score", tm.R[i, j]))
        metrics_rows.append((run_id, run_seed, tm.R.shape[0] - 1, "final", "bwt", bwt(tm)))
        metrics_rows.append((run_id, run_seed, tm.R.shape[0] - 1, "final", "fwt", fwt(tm)))
        final_metrics = {"bwt": bwt(tm), "fwt": fwt(tm)}
    else:
        result = train_model(model, train_ds, task, keep_traces=True)
        ids = train_ds.ids
        write_loss_trace(os.path.join(out_dir, f"loss_trace_{run_id}.csv"),
                         np.repeat(np.arange(task.epochs), ids.size), np.tile(ids, task.epochs),
                         ModulatedLoss.concat(result.traces))
        for epoch, (mean_loss, k_count) in enumerate(
            zip(result.epoch_mean_losses, result.kappa_ge1_counts)
        ):
            metrics_rows.append((run_id, run_seed, epoch, "train", "mean_raw_loss", mean_loss))
            metrics_rows.append((run_id, run_seed, epoch, "train", "kappa_ge1_count", k_count))
        final_metrics = evaluate(result.model, test_ds, task)
        last_epoch = task.epochs - 1
        for name, value in final_metrics.items():
            metrics_rows.append((run_id, run_seed, last_epoch, "test", name, value))
    write_metrics_csv(os.path.join(out_dir, f"metrics_{run_id}.csv"), metrics_rows)
    return final_metrics


def cmd_train(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    sweep = int(cfg["sweep_seeds"])
    if sweep < 1:
        raise ConfigError("sweep_seeds must be >= 1")
    master_seed = int(cfg["seed"])
    finals: list[dict] = []
    try:
        if sweep == 1:
            finals.append(_train_one(cfg, master_seed, "run0", out_dir))
        else:
            for i in range(sweep):
                run_seed = derive_seed(master_seed, f"sweep/{i}")
                finals.append(_train_one(cfg, run_seed, f"run{i}", out_dir))
    except TrainingDiverged as exc:
        print(f"train: diverged: {exc}", file=sys.stderr)
        return 1

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
    out_dir = cfg["output_dir"]
    names = None
    if str(cfg["suites"]).strip():
        names = _list(cfg, "suites")
        unknown = [s for s in names if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
    report = run_suites(int(cfg["seed"]), names)
    payload = {
        "seed": int(cfg["seed"]),
        "suites": report,
        "all_passed": all(entry["passed"] for entry in report.values()),
    }
    with open(os.path.join(out_dir, "properties.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in report.items():
        print(f"{'PASS' if entry['passed'] else 'FAIL'} {name}: {entry['detail']}")
    return 0 if payload["all_passed"] else 1


def cmd_trace_loss(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    epochs = int(cfg["epochs"])
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    for key in ("threshold", "easy_start", "hard_start", "decay"):
        if not math.isfinite(float(cfg[key])):
            raise ConfigError(f"key {key}: must be finite, got {cfg[key]}")
    try:
        wrapper = CrucialConfig(Variant.BASELINE, lam=float(cfg["lam"]),
                                threshold=float(cfg["threshold"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # Row e holds the easy and hard losses after e decay steps, multiplied
    # in the same order as a running product.
    steps = np.full((epochs, 2), float(cfg["decay"]))
    steps[0] = (float(cfg["easy_start"]), float(cfg["hard_start"]))
    with np.errstate(over="ignore", invalid="ignore"):
        losses = np.cumprod(steps, axis=0).ravel()
    if not np.isfinite(losses).all():
        raise ConfigError(f"a loss leaves the float range within {epochs} epochs "
                          f"(easy_start={cfg['easy_start']}, hard_start={cfg['hard_start']}, "
                          f"decay={cfg['decay']})")
    write_loss_trace(os.path.join(out_dir, "trace.csv"), np.repeat(np.arange(epochs), 2),
                     np.tile([0, 1], epochs),
                     modulate_epoch(losses, initial_epoch_state(), wrapper))
    print(f"trace-loss: wrote {epochs} epochs for easy/hard trajectories")
    return 0


def cmd_gen_data(cfg: dict) -> int:
    out_dir = cfg["output_dir"]
    kind = str(cfg["kind"])
    n, t = int(cfg["n"]), int(cfg["t"])
    ds = _generate(cfg, kind, n, SeededRng(int(cfg["seed"])).derive("data/train"))
    path = os.path.join(out_dir, str(cfg["filename"]))
    try:
        save_csv(path, ds)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    meta = {
        "kind": kind,
        "n": n,
        "t": t,
        "flipped_ids": list(ds.flipped_ids),
        "seed": int(cfg["seed"]),
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        file_values = {}
        if "config" in flags:
            file_values = parse_config_file(flags["config"])
        cfg = resolve_config(command, file_values, flags)
        os.makedirs(cfg["output_dir"], exist_ok=True)
        _echo_config(cfg, cfg["output_dir"])
        return _COMMANDS[command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
