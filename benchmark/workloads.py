"""The benchmark's workloads: one experiment config per replicate seed.

Each workload is a `cdgm experiment` config with a single replicate; a
run fits several of them, with replicate seeds derived from the run's
``--seed``. ``nominal_s`` is a replicate's wall time at the reference
kernel speed; it fixes how many replicates a run of ``--seconds`` fits,
so the work a run does depends only on its arguments, never on how fast
the host happens to be.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    setting: str
    methods: tuple[str, ...]
    n_train: int
    n_val: int
    n_test: int
    nominal_s: float
    dnn: dict = field(default_factory=dict)
    lasso: dict = field(default_factory=dict)


WORKLOADS = {
    # Training-bound: neuralnet and estimator.train take most of the time.
    # dnn spends it in the network matmuls, reggmm in train's own dense
    # coefficient scatter, einsum and gradient gather.
    "g1-dnn": Workload(setting="G1", methods=("dnn", "reggmm"),
                       n_train=1300, n_val=250, n_test=50,
                       dnn={"epochs": 10}, nominal_s=3.0),
    # Generation- and scoring-bound: the per-sample Hermite SEM and one
    # rank-metric call per test sample; training is short.
    "d2-dnn": Workload(setting="D2", methods=("dnn",),
                       n_train=400, n_val=120, n_test=150,
                       dnn={"epochs": 25}, nominal_s=2.7),
    # Lasso-bound: no training; one score vector is shared by a whole
    # covariate cluster, so scoring makes few rank-metric calls.
    "g1-lasso": Workload(setting="G1", methods=("nodewise-lasso",),
                         n_train=1200, n_val=0, n_test=0,
                         lasso={"n_lambdas": 6}, nominal_s=3.5),
}


def replicate_count(wl: Workload, seconds: float, minimum: int) -> int:
    """Replicates that fill ``seconds`` at reference speed, at least ``minimum``."""
    return max(minimum, round(seconds / wl.nominal_s))


def replicate_seeds(seed: int, count: int) -> list[int]:
    """Distinct replicate seeds, a pure function of the run's seed."""
    return [1000 * seed + i for i in range(count)]


def experiment_config(name: str, seed: int, out_dir):
    """The one-replicate `cdgm experiment` config for replicate ``seed``."""
    from cdgm import harness

    wl = WORKLOADS[name]
    return harness.ExperimentConfig(
        setting=wl.setting, replicates=1, seeds=(seed,),
        n_train=wl.n_train, n_val=wl.n_val, n_test=wl.n_test,
        methods=wl.methods, out_dir=str(out_dir),
        dnn=dict(wl.dnn), lasso=dict(wl.lasso))
