"""Experiment harness: every paper table/figure as a runnable experiment.

Key entry points:

* :func:`run_experiment` / :data:`EXPERIMENTS` — the registry keyed by
  table/figure id (``table3``, ``fig4``, ...), see README.md, "Quickstart";
* :func:`build_system` — system factory by paper name;
* :func:`run_one` / :func:`fanout_sweep` — building blocks for custom
  studies;
* :func:`get_scale` — the ``small`` / ``medium`` / ``paper`` scale
  profiles (``REPRO_SCALE`` environment variable).
"""

from repro.experiments.ablations import (
    exp_ablation_metrics,
    exp_ablation_rps_view,
    exp_ablation_window,
    exp_ablation_wup_ratio,
)
from repro.experiments.dynamics import DynamicsTrace, run_dynamics_experiment
from repro.experiments.extensions import (
    exp_ext_churn,
    exp_ext_drift,
    exp_shard_outage,
    exp_ext_latency,
    exp_ext_privacy,
)
from repro.experiments.factory import SYSTEM_NAMES, build_system
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.reporting import ExperimentReport, results_table, series_table
from repro.experiments.results import RunResult
from repro.experiments.runner import run_one, score_system
from repro.experiments.scale import SCALES, ScaleProfile, get_scale
from repro.experiments.sweeps import (
    best_result,
    fanout_sweep,
    topology_sweep,
    ttl_sweep,
)

# ablations and extensions join the registry under their own ids
EXPERIMENTS.setdefault("ablate-window", exp_ablation_window)
EXPERIMENTS.setdefault("ablate-rpsvs", exp_ablation_rps_view)
EXPERIMENTS.setdefault("ablate-wupvs", exp_ablation_wup_ratio)
EXPERIMENTS.setdefault("ablate-metric", exp_ablation_metrics)
EXPERIMENTS.setdefault("ext-churn", exp_ext_churn)
EXPERIMENTS.setdefault("ext-privacy", exp_ext_privacy)
EXPERIMENTS.setdefault("ext-latency", exp_ext_latency)
EXPERIMENTS.setdefault("ext-drift", exp_ext_drift)
EXPERIMENTS.setdefault("shard-outage", exp_shard_outage)

__all__ = [
    "DynamicsTrace",
    "run_dynamics_experiment",
    "SYSTEM_NAMES",
    "build_system",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "ExperimentReport",
    "results_table",
    "series_table",
    "RunResult",
    "run_one",
    "score_system",
    "SCALES",
    "ScaleProfile",
    "get_scale",
    "best_result",
    "fanout_sweep",
    "topology_sweep",
    "ttl_sweep",
    "exp_ext_churn",
    "exp_ext_privacy",
    "exp_ext_latency",
    "exp_ext_drift",
    "exp_shard_outage",
    "exp_ablation_metrics",
    "exp_ablation_rps_view",
    "exp_ablation_window",
    "exp_ablation_wup_ratio",
]
