"""Command-line interface.

Subcommands: generate (dataset to disk), train, eval, baseline, bounds,
experiment (full pipeline), report (re-aggregate replicate outputs).
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
from pathlib import Path

from . import baselines, datagen, estimator, graphops, harness, metrics, theory
from .errors import CdgmError, DomainError, UsageError


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


def _checked(make, **options):
    """``make(**options)``, with a rejected option as a usage error."""
    try:
        return make(**options)
    except (CdgmError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _config_keys() -> dict[str, tuple[str | None, str, object]]:
    """Every config key as (override group or None, name, declared type):
    the fields of ``ExperimentConfig``, ``TrainConfig`` (``dnn.*``) and
    ``LassoConfig`` (``lasso.*``), and the generator options of ``SettingSpec``
    (``gen.*``)."""
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
    keys["dnn.lr"] = keys["dnn.base_lr"]
    return keys


def parse_config_file(path) -> harness.ExperimentConfig:
    """Flat key-value experiment config; '#' starts a comment.

    Each key is read as the type ``_config_keys`` declares for it; dotted
    keys collect into the per-method override dicts.
    """
    kv = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (need key = value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
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
    return _checked(harness.ExperimentConfig, **cfg)


def _thresholds(text: str) -> tuple[float, ...]:
    """Comma-separated thresholds under ``harness.check_thresholds``'s rule."""
    try:
        return harness.check_thresholds(text.split(","))
    except (ValueError, CdgmError) as exc:
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


def _split_sizes(n: int, splits_arg: str | None) -> tuple[int, int, int]:
    if splits_arg:
        try:
            parts = tuple(int(v) for v in splits_arg.split(","))
        except ValueError:
            parts = ()
        if len(parts) != 3 or min(parts) < 0:
            raise UsageError(f"--splits {splits_arg!r}: need three nonnegative integers "
                             "train,val,test")
        if sum(parts) != n:
            raise UsageError(f"--splits {splits_arg} does not sum to --n {n}")
        return parts
    if n <= 2000:
        raise UsageError("default splits need n > 2000; pass --splits")
    return (n - 2000, 1000, 1000)


def cmd_generate(args) -> int:
    spec = _checked(datagen.SettingSpec, setting=args.setting, seed=args.seed,
                    noise_sd=args.noise_sd, p=args.p)
    splits = _split_sizes(args.n, args.splits)
    ds = datagen.generate_dataset(spec, args.n, splits)
    datagen.save_dataset(ds, args.out, csv=args.csv)
    print(f"wrote {args.n} samples for {args.setting} to {args.out}")
    return 0


def cmd_train(args) -> int:
    overrides = {"family": args.family, "seed": args.seed}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.lr is not None:
        overrides["base_lr"] = args.lr
    _checked(estimator.TrainConfig, **overrides)  # before any data is read
    ds = datagen.load_dataset(args.data)
    cfg = estimator.default_train_config(ds.spec.setting, **overrides)
    model, history = estimator.train(ds, cfg)
    out = Path(args.out)
    estimator.save_model(model, out)
    (out / "history.json").write_text(json.dumps({
        "train_loss": history.train_loss,
        "val_loss": history.val_loss,
        "init_val_loss": history.init_val_loss,
        "best_epoch": history.best_epoch,
        "wall_time_s": history.wall_time_s,
    }, indent=2) + "\n")
    best_val = min([history.init_val_loss] + history.val_loss)
    print(f"trained {args.family} model for {ds.spec.setting}; "
          f"best epoch {history.best_epoch}, val MSE {best_val:.6g}")
    return 0


def cmd_eval(args) -> int:
    ds = datagen.load_dataset(args.data)
    model = estimator.load_model(args.model)
    graphs, per_sample = harness.score_test_split(model, ds, args.pseudo_moral, args.thresholds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {k: metrics.mean(v) for k, v in per_sample.items()}
    (out / "eval.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    graphops.write_histogram(*graphops.magnitude_histogram(graphs), out / "histogram.csv")
    if args.edge_list_tau is not None:
        edge_dir = out / "edges"
        edge_dir.mkdir(exist_ok=True)
        for i, g in enumerate(graphs):
            skel = graphops.threshold_and(graphops.normalize_if_nonzero(g), args.edge_list_tau)
            graphops.write_edge_list(skel, edge_dir / f"sample_{i:05d}.csv")
    for key in sorted(summary):
        print(f"{key}: {summary[key]:.4f}")
    return 0


def cmd_baseline(args) -> int:
    lasso = {"n_lambdas": args.n_lambdas, "lambda_min_ratio": args.lambda_min_ratio,
             "export_paths": args.export_paths}
    _checked(baselines.LassoConfig, **lasso)  # before any data is read
    ds = datagen.load_dataset(args.data)
    cfg = harness.ExperimentConfig(
        setting=ds.spec.setting, seeds=(ds.seed,), methods=("nodewise-lasso",),
        n_train=ds.splits[0], n_val=ds.splits[1], n_test=ds.splits[2],
        pseudo_moral=args.pseudo_moral, lasso=lasso, out_dir=args.out)
    res = harness.fit_eval_lasso(cfg, ds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {k: metrics.mean(v) for k, v in res["per_sample"].items()}
    summary["best_lambdas"] = res["best_lambdas"]
    (out / "baseline.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
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
    cfg = harness.load_config(args.dir)
    reps = harness.load_replicates(args.dir)
    if not reps:
        raise CdgmError(f"no replicate artifacts under {args.dir}")
    harness.write_report(cfg, reps, args.dir)
    print(f"wrote {Path(args.dir) / 'report.csv'}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cdgm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--setting", required=True, choices=datagen.SETTING_IDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--splits", default=None, help="train,val,test sizes")
    g.add_argument("--noise-sd", type=float, default=datagen.SettingSpec.noise_sd,
                   dest="noise_sd")
    g.add_argument("--p", type=int, help="node-count override")
    g.add_argument("--csv", action="store_true")
    g.set_defaults(fn=cmd_generate)

    t = sub.add_parser("train", help="fit the coefficient network")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--family", choices=("dnn", "linear"), default="dnn")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--lr", type=float, default=None)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="score a trained model on the test split")
    e.add_argument("--data", required=True)
    e.add_argument("--model", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--pseudo-moral", action="store_true", dest="pseudo_moral")
    e.add_argument("--thresholds", type=_thresholds, default="0.01,0.025,0.05,0.075,0.1")
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
    d.add_argument("--n", type=_integers, default="10000", help="comma list, scientific ok")
    d.add_argument("--p", type=_integers, default="50", help="comma list")
    d.add_argument("--q", type=int, default=2)
    d.add_argument("--m", type=float, default=2.0)
    d.add_argument("--alpha", type=float, default=0.5)
    d.add_argument("--delta", type=float, default=0.05)
    d.add_argument("--pseudo-dim", type=float, default=100.0, dest="pseudo_dim")
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
