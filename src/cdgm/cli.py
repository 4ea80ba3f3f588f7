"""Command-line interface.

Subcommands: generate (dataset to disk), train, eval, baseline, bounds,
experiment (full pipeline), report (re-aggregate replicate outputs).
Exit codes: 0 success, 1 usage error (a bad argument or setting: ``UsageError``),
2 runtime failure (a damaged input file among them).
"""

from __future__ import annotations

import argparse
import json
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


def _cast(tp, key: str, text: str):
    """``text`` as a value of the declared type ``tp``, with an unreadable
    value as a usage error naming ``key``. A tuple is a comma-separated
    list and a bool is ``true`` or ``false``."""
    if typing.get_origin(tp) is tuple:
        return tuple(_cast(typing.get_args(tp)[0], key, v.strip())
                     for v in text.split(",") if v.strip())
    if typing.get_origin(tp) is types.UnionType:  # ``int | None``: a value is never None
        tp = typing.get_args(tp)[0]
    try:
        return {"true": True, "false": False}[text.lower()] if tp is bool else tp(text)
    except (KeyError, ValueError):
        raise UsageError(f"config key {key!r}: {text!r} is not a valid "
                         f"{tp.__name__}") from None


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
        (cfg[group] if group else cfg)[name] = _cast(tp, key, value)
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


def _integers(text: str) -> list[int]:
    """A comma list of integers, each also writable like ``1e5``."""
    values = [float(v) for v in text.split(",")]  # a ValueError is a usage error too
    if not all(v.is_integer() for v in values):  # 12.5, inf and nan are not
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of integers")
    return [int(v) for v in values]


def _split_sizes(n: int, splits: list[int] | None) -> tuple[int, int, int]:
    """``--splits`` under ``datagen``'s split rule, or the default splits:
    ``ExperimentConfig``'s validation and test sizes, the rest for training."""
    if splits:
        return datagen._checked_splits(splits, n)
    val, test = harness.ExperimentConfig.n_val, harness.ExperimentConfig.n_test
    if n <= val + test:
        raise UsageError(f"default splits need n > {val + test}; pass --splits")
    return (n - val - test, val, test)


def cmd_generate(args) -> int:
    options = {k: v for k, v in (("p", args.p), ("noise_sd", args.noise_sd)) if v is not None}
    spec = datagen.SettingSpec(args.setting, seed=args.seed, **options)
    datagen.check_options_read(args.setting, options)
    splits = _split_sizes(args.n, args.splits)
    ds = datagen.generate_dataset(spec, args.n, splits)
    datagen.save_dataset(ds, args.out, csv=args.csv)
    print(f"wrote {args.n} samples for {args.setting} to {args.out}")
    return 0


def cmd_train(args) -> int:
    overrides = {"family": args.family, "seed": args.seed}
    overrides.update((k, v) for k, v in (("epochs", args.epochs), ("lr", args.lr))
                     if v is not None)
    estimator.TrainConfig(**overrides)  # before any data is read
    ds = datagen.load_dataset(args.data)
    cfg = estimator.default_train_config(ds.spec.setting, **overrides)
    model, history = estimator.train(ds, cfg)
    estimator.save_model(model, args.out)
    write_atomic(Path(args.out) / "history.json", json.dumps(asdict(history), indent=2) + "\n")
    best_val = min([history.init_val_loss] + history.val_loss)
    print(f"trained {args.family} model for {ds.spec.setting}; "
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
    lasso = {"n_lambdas": args.n_lambdas, "lambda_min_ratio": args.lambda_min_ratio,
             "export_paths": args.export_paths}
    baselines.LassoConfig(**lasso)  # before any data is read
    ds = datagen.load_dataset(args.data)
    if not ds.splits[0]:  # else ExperimentConfig names n_train, a key the user never typed
        raise UsageError(f"{Path(args.data, 'meta.json')} splits {ds.splits} have no train set")
    cfg = harness.ExperimentConfig(  # checks --pseudo-moral against the setting too
        setting=ds.spec.setting, seeds=(ds.spec.seed,), methods=("nodewise-lasso",),
        n_train=ds.splits[0], n_val=ds.splits[1], n_test=ds.splits[2],
        pseudo_moral=args.pseudo_moral, lasso=lasso, out_dir=args.out)
    res = harness.fit_eval_lasso(cfg, ds)
    summary = {k: metrics.mean(v) for k, v in res["per_sample"].items()}
    summary["best_lambdas"] = res["best_lambdas"]
    write_atomic(Path(args.out) / "baseline.json",
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for key in ("auroc", "auprc"):
        print(f"{key}: {summary[key]:.4f}")
    return 0


def cmd_bounds(args) -> int:
    print("order-level diagnostics (hidden constants set to 1); "
          "values indicate scaling, not certified bounds")
    header = f"{'n':>12} {'p':>6} {'gen_term':>12} {'rate':>12} {'rate_smooth':>12} {'depth':>6} {'width':>8}"
    print(header)
    for n in args.n:
        for p in args.p:
            inp = theory.BoundInputs(n=n, p=p, q=args.q, smoothness=args.m,
                                     strong_convexity=args.alpha, delta=args.delta,
                                     pseudo_dim=args.pseudo_dim)
            gen = theory.generalization_error_term(inp)
            rate = theory.excess_risk_rate(inp, mode="lipschitz")
            rate_s = theory.excess_risk_rate(inp, mode="smooth")
            if 0.0 < rate < 1.0:
                depth, width = theory.network_size_for_rate(args.m, args.q, rate)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="cdgm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--setting", required=True, choices=datagen.SETTING_IDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=datagen.SettingSpec.seed)
    g.add_argument("--out", required=True)
    g.add_argument("--splits", type=_integers, default=None, help="train,val,test sizes")
    g.add_argument("--noise-sd", type=float, dest="noise_sd", help="D1 and D2 only")
    g.add_argument("--p", type=int, help="node-count override")
    g.add_argument("--csv", action="store_true")
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="fit the coefficient network")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--family", choices=estimator.MODEL_FAMILIES,
                   default=estimator.TrainConfig.family)
    t.add_argument("--seed", type=int, default=estimator.TrainConfig.seed)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.set_defaults(fn=cmd_train)

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
    b.add_argument("--n-lambdas", type=int, default=baselines.LassoConfig.n_lambdas)
    b.add_argument("--lambda-min-ratio", type=float,
                   default=baselines.LassoConfig.lambda_min_ratio)
    b.add_argument("--export-paths", action="store_true", dest="export_paths",
                   help="write one penalty-path CSV per cluster")
    b.add_argument("--pseudo-moral", action="store_true", dest="pseudo_moral")
    b.set_defaults(fn=cmd_baseline)

    d = sub.add_parser("bounds", help="closed-form scaling diagnostics")
    bound = theory.BoundInputs
    d.add_argument("--n", type=_integers, default=[bound.n], help="comma list, scientific ok")
    d.add_argument("--p", type=_integers, default=[bound.p], help="comma list")
    d.add_argument("--q", type=int, default=bound.q)
    d.add_argument("--m", type=float, default=bound.smoothness)
    d.add_argument("--alpha", type=float, default=0.5,
                   help="strong convexity; 0.5, not BoundInputs' 1: at alpha = 1, "
                        "log(1/alpha) = 0 and every rate prints 0")
    d.add_argument("--delta", type=float, default=bound.delta)
    d.add_argument("--pseudo-dim", type=float, default=bound.pseudo_dim, dest="pseudo_dim")
    d.set_defaults(fn=cmd_bounds)

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
