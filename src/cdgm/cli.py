"""Command-line interface.

Subcommands: generate (dataset to disk), train, eval, baseline, bounds,
experiment (full pipeline), report (re-aggregate replicate outputs).
Exit codes: 0 success, 1 usage error (a bad argument or setting: ``UsageError``),
2 runtime failure (a damaged input file among them).
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import math
import sys
import types
import typing
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import baselines, datagen, estimator, graphops, harness, metrics, theory
from .errors import DomainError, UsageError
from .files import write_atomic


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 instead of 2."""

    def error(self, message):
        raise UsageError(message)


def _int(text: str) -> int:
    """An ``int()`` literal, or a decimal literal of a whole value within float
    range, read exactly: ``1e4`` is 10000 and ``1e23`` is 10**23."""
    try:
        return int(text)
    except ValueError:
        if not math.isfinite(float(text)):  # abc raises here, 1e400 and nan below
            raise
        value = decimal.Decimal(text)
        if value != value.to_integral_value():  # 12.5
            raise
        return int(value)


def _cast(tp, where: str, text: str):
    """``text`` as a value of the declared type ``tp``, for config values and
    flags alike, with an unreadable value as a usage error that starts with
    ``where``. An int is read by ``_int``, a bool is ``true`` or ``false``
    and a tuple is a comma-separated list of its item type."""
    if typing.get_origin(tp) is tuple:
        return tuple(_cast(typing.get_args(tp)[0], where, v.strip())
                     for v in text.split(",") if v.strip())
    if typing.get_origin(tp) is types.UnionType:  # ``int | None``: a value is never None
        tp = typing.get_args(tp)[0]
    try:
        return {"true": True, "false": False}[text.lower()] if tp is bool else \
            (_int if tp is int else tp)(text)
    except (KeyError, ValueError):  # argparse passes this UsageError on, so main reports it
        raise UsageError(f"{where}: {text!r} is not a valid {tp.__name__}") from None


def _config_keys() -> dict[str, tuple[str | None, str, object]]:
    """Every config key as (override group or None, name, declared type):
    the fields of ``ExperimentConfig``, ``TrainConfig`` (``dnn.*``) and
    ``LassoConfig`` (``lasso.*``), and the generator options of
    ``SettingSpec`` (``gen.*``)."""
    gen = typing.get_type_hints(datagen.SettingSpec)
    keys = {}
    for prefix, group, hints in (
            ("", None, typing.get_type_hints(harness.ExperimentConfig)),
            ("dnn.", "dnn", typing.get_type_hints(estimator.TrainConfig)),
            ("lasso.", "lasso", typing.get_type_hints(baselines.LassoConfig)),
            ("gen.", "generator", {name: gen[name] for name in datagen.GENERATOR_OPTIONS})):
        keys.update((prefix + name, (group, name, tp)) for name, tp in hints.items()
                    if tp is not dict)
    del keys["dnn.family"]  # the method name picks the family
    return keys


def parse_config_file(path) -> harness.ExperimentConfig:
    """Flat key-value experiment config; '#' starts a comment.

    Each key is read as the type ``_config_keys`` declares for it; dotted
    keys collect into the per-method override dicts. A key may appear once.
    """
    kv = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (need key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise UsageError(f"config key {key!r} is given twice")
        kv[key] = value

    keys = _config_keys()
    cfg = {"dnn": {}, "lasso": {}, "generator": {}}
    for key, value in kv.items():
        if key not in keys:
            prefix = key.rpartition(".")[0]
            known = [k for k in keys if k.rpartition(".")[0] == prefix] or list(keys)
            raise UsageError(f"unknown config key {key!r}; known keys: {', '.join(known)}")
        group, name, tp = keys[key]
        (cfg[group] if group else cfg)[name] = _cast(tp, f"config key {key!r}", value)
    if "setting" not in cfg:
        raise UsageError("config must define 'setting'")
    return harness.ExperimentConfig(**cfg)


def _thresholds(text: str) -> tuple[float, ...]:
    """Comma-separated thresholds under ``harness.check_thresholds``'s rule."""
    try:
        return harness.check_thresholds(text.split(","))
    except (ValueError, UsageError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def _threshold(text: str) -> float:
    (tau,) = _thresholds(text)  # a list is a ValueError, so a usage error too
    return tau


def _split_sizes(n: int, splits: tuple[int, ...] | None) -> tuple[int, int, int]:
    """``--splits`` under ``datagen``'s split rule, or the default splits:
    ``ExperimentConfig``'s validation and test sizes, the rest for training."""
    if splits is not None:
        return datagen._checked_splits(splits, n)
    val, test = harness.ExperimentConfig.n_val, harness.ExperimentConfig.n_test
    if n <= val + test:
        raise UsageError(f"default splits need n > {val + test}; pass --splits")
    return (n - val - test, val, test)


def cmd_generate(args) -> int:
    spec = datagen.SettingSpec(args.setting, **args.fields)
    datagen.check_options_read(args.setting, [k for k in args.fields if k != "seed"])
    splits = _split_sizes(args.n, args.splits)
    ds = datagen.generate_dataset(spec, args.n, splits)
    datagen.save_dataset(ds, args.out, csv=args.csv)
    print(f"wrote {args.n} samples for {args.setting} to {args.out}")
    return 0


def cmd_train(args) -> int:
    estimator.TrainConfig(**args.fields)  # before any data is read
    ds = datagen.load_dataset(args.data)
    cfg = estimator.default_train_config(ds.spec.setting, **args.fields)
    model, history = estimator.train(ds, cfg)
    estimator.save_model(model, args.out)
    write_atomic(Path(args.out) / "history.json", json.dumps(asdict(history), indent=2) + "\n")
    best_val = min([history.init_val_loss] + history.val_loss)
    print(f"trained {cfg.family} model for {ds.spec.setting}; "
          f"best epoch {history.best_epoch}, val MSE {best_val:.6g}")
    return 0


def cmd_eval(args) -> int:
    ds = datagen.load_dataset(args.data)
    harness.check_pseudo_moral(ds.spec, args.pseudo_moral)
    model = estimator.load_model(args.model)
    if (model.p, model.q) != (ds.spec.p, ds.spec.q):
        raise UsageError(f"{Path(args.model, 'model.json')} is for (p, q) = {model.p, model.q}; "
                         f"{Path(args.data, 'meta.json')} holds {ds.spec.p, ds.spec.q}")
    graphs, per_sample = harness.score_test_split(model, ds, args.pseudo_moral, args.thresholds)
    out = Path(args.out)
    summary = {k: metrics.mean(v) for k, v in per_sample.items()}
    write_atomic(out / "eval.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    counts, edges = graphops.magnitude_histogram(graphs)
    write_atomic(out / "histogram.csv", graphops.histogram_csv(counts, edges))
    if args.edge_list_tau is not None:
        # the AND-rule skeletons of the normalized graphs, as scoring builds them
        kept = graphops.threshold_pairs(graphops.normalize_pairs(*graphops.pair_scores(graphs)),
                                        args.edge_list_tau)
        j, k = np.triu_indices(model.p, 1)
        for i, row in enumerate(kept):
            graphops.write_edge_list(j[row], k[row], out / "edges" / f"sample_{i:05d}.csv")
    for key in sorted(summary):
        print(f"{key}: {summary[key]:.4f}")
    return 0


def cmd_baseline(args) -> int:
    baselines.LassoConfig(**args.fields)  # before any data is read
    ds = datagen.load_dataset(args.data)
    if not ds.splits[0]:  # else ExperimentConfig names n_train, a key the user never typed
        raise UsageError(f"{Path(args.data, 'meta.json')} splits {ds.splits} have no train set")
    cfg = harness.ExperimentConfig(  # checks --pseudo-moral against the setting too
        setting=ds.spec.setting, seeds=(ds.spec.seed,), methods=("nodewise-lasso",),
        n_train=ds.splits[0], n_val=ds.splits[1], n_test=ds.splits[2],
        pseudo_moral=args.pseudo_moral, lasso=args.fields, out_dir=args.out)
    res = harness.fit_eval_lasso(cfg, ds)
    summary = {k: metrics.mean(v) for k, v in res["per_sample"].items()}
    summary["best_lambdas"] = res["best_lambdas"]
    write_atomic(Path(args.out) / "baseline.json",
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for key in ("auroc", "auprc"):
        print(f"{key}: {summary[key]:.4f}")
    return 0


def cmd_bounds(args) -> int:
    if not (args.fields["n"] and args.fields["p"]):  # else the table has no rows
        raise UsageError("bounds needs at least one --n and one --p value")
    print("order-level diagnostics (hidden constants set to 1); "
          "values indicate scaling, not certified bounds")
    header = f"{'n':>12} {'p':>6} {'gen_term':>12} {'rate':>12} {'rate_smooth':>12} {'depth':>6} {'width':>8}"
    print(header)
    for n in args.fields["n"]:
        for p in args.fields["p"]:
            inp = theory.BoundInputs(**{**args.fields, "n": n, "p": p})
            gen = theory.generalization_error_term(inp)
            rate = theory.excess_risk_rate(inp, mode="lipschitz")
            rate_s = theory.excess_risk_rate(inp, mode="smooth")
            if 0.0 < rate < 1.0:
                depth, width = theory.network_size_for_rate(inp.smoothness, inp.q, rate)
                size = f"{depth:>6d} {width:>8d}"
            else:
                size = f"{'-':>6} {'-':>8}"
            print(f"{n:>12d} {p:>6d} {gen:>12.4e} {rate:>12.4e} {rate_s:>12.4e} {size}")
    return 0


def cmd_experiment(args) -> int:
    cfg = parse_config_file(args.config)
    reports = harness.run_experiment(cfg)
    for method, rep in reports.items():
        print(f"{method}: auroc {rep.mean['auroc']:.4f} ({rep.std['auroc']:.4f})  "
              f"auprc {rep.mean['auprc']:.4f} ({rep.std['auprc']:.4f})")
    print(f"artifacts in {cfg.out_dir}")
    failed = [m for m in cfg.methods if m not in reports]
    if failed:
        print(f"error: failed in every replicate: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    harness.write_report(*harness.load_run(args.dir), args.dir)
    print(f"wrote {Path(args.dir) / 'report.csv'}")
    return 0


class _Field(argparse.Action):
    """Stores a flag's value in ``args.fields`` under the name of the declared
    field it sets, so that only the flags the user gave reach the declaration."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.fields = {**namespace.fields, self.dest: self.const if self.nargs == 0 else values}


def build_parser() -> _Parser:
    parser = _Parser(prog="cdgm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    declared = {key: tp for key, (_, _, tp) in _config_keys().items()}
    for cls in (datagen.SettingSpec, estimator.TrainConfig, theory.BoundInputs):
        declared.update((f"{cls.__name__}.{name}", tp)
                        for name, tp in typing.get_type_hints(cls).items())

    # ``flag`` sets the field that the config key (or ``Class.field``) ``key`` names, read
    # as its declared type (a list of it for a ``grid``); a bool field's flag takes no value
    def field(command, flag, key, note="", grid=False, **kwargs):
        tp = tuple[declared[key], ...] if grid else declared[key]
        read = dict(nargs=0, const=True) if tp is bool else \
            dict(type=functools.partial(_cast, tp, f"argument {flag}"))
        command.add_argument(flag, action=_Field, dest=key.rpartition(".")[2],
                             default=argparse.SUPPRESS, help=f"sets {key}{note}", **read, **kwargs)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--setting", required=True, choices=datagen.SETTING_IDS)
    g.add_argument("--n", type=functools.partial(_cast, int, "argument --n"), required=True)
    field(g, "--seed", "SettingSpec.seed")
    g.add_argument("--out", required=True)
    g.add_argument("--splits", type=functools.partial(_cast, tuple[int, ...], "argument --splits"),
                   help="train,val,test sizes")
    field(g, "--noise-sd", "gen.noise_sd", "; D1 and D2 only")
    field(g, "--p", "gen.p", "; the node count")
    g.add_argument("--csv", action="store_true")
    g.set_defaults(fn=cmd_generate, fields={})

    t = sub.add_parser("train", help="fit the coefficient network")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    field(t, "--family", "TrainConfig.family", choices=estimator.MODEL_FAMILIES)
    field(t, "--seed", "dnn.seed")
    field(t, "--epochs", "dnn.epochs")
    field(t, "--lr", "dnn.lr")
    t.set_defaults(fn=cmd_train, fields={})

    e = sub.add_parser("eval", help="score a trained model on the test split")
    e.add_argument("--data", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--pseudo-moral", action="store_true", dest="pseudo_moral")
    e.add_argument("--thresholds", type=_thresholds, default=harness.DEFAULT_THRESHOLDS)
    e.add_argument("--edge-list-tau", type=_threshold, default=None, dest="edge_list_tau",
                   help="also write skeleton edge lists thresholded at this level")
    e.set_defaults(fn=cmd_eval)

    b = sub.add_parser("baseline", help="nodewise lasso per covariate cluster")
    b.add_argument("--data", required=True)
    b.add_argument("--out", required=True)
    field(b, "--n-lambdas", "lasso.n_lambdas")
    field(b, "--lambda-min-ratio", "lasso.lambda_min_ratio")
    field(b, "--export-paths", "lasso.export_paths", ": one penalty-path CSV per cluster")
    b.add_argument("--pseudo-moral", action="store_true", dest="pseudo_moral")
    b.set_defaults(fn=cmd_baseline, fields={})

    d = sub.add_parser("bounds", help="closed-form scaling diagnostics")
    field(d, "--n", "BoundInputs.n", "; a comma list", grid=True)
    field(d, "--p", "BoundInputs.p", "; a comma list", grid=True)
    field(d, "--q", "BoundInputs.q")
    field(d, "--m", "BoundInputs.smoothness")
    field(d, "--alpha", "BoundInputs.strong_convexity",
          "; 0.5 if not given: at BoundInputs' 1, log(1/alpha) = 0 and every rate is 0")
    field(d, "--delta", "BoundInputs.delta")
    field(d, "--pseudo-dim", "BoundInputs.pseudo_dim")
    bound = theory.BoundInputs
    d.set_defaults(fn=cmd_bounds, fields={"n": (bound.n,), "p": (bound.p,),
                                          "strong_convexity": 0.5})

    x = sub.add_parser("experiment", help="full multi-replicate pipeline")
    x.add_argument("--config", required=True)
    x.set_defaults(fn=cmd_experiment)

    r = sub.add_parser("report", help="re-aggregate replicate artifacts")
    r.add_argument("--dir", required=True)
    r.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (UsageError, DomainError) as exc:  # theory's inputs are the bounds arguments
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
