"""WHATSUP reproduction: a decentralized instant news recommender.

A complete, from-scratch Python reproduction of *Boutet, Frey, Guerraoui,
Jégou, Kermarrec — "WHATSUP: A Decentralized Instant News Recommender",
IEEE IPDPS 2013*:

* the **WUP** implicit social network (random peer sampling + similarity
  clustering with the paper's asymmetric metric);
* the **BEEP** heterogeneous dissemination protocol (opinion-driven
  amplification and orientation);
* all five competitor systems, the three workload generators, a
  cycle-based simulation engine with loss/churn models, and an experiment
  harness regenerating every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import WhatsUpSystem, WhatsUpConfig, survey_dataset
>>> from repro.metrics import evaluate_dissemination
>>> dataset = survey_dataset(n_base_users=60, n_base_items=80)
>>> system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=5), seed=42)
>>> system.run()
>>> scores = evaluate_dissemination(system.reached_matrix(), dataset.likes)

See ``README.md`` for the front door (quickstart, gate matrix),
``ARCHITECTURE.md`` ("Layer map") for the system inventory, and
``python -m repro list`` for the per-experiment index.
"""

from repro.core import (
    WhatsUpConfig,
    WhatsUpNode,
    WhatsUpSystem,
    cosine_similarity,
    wup_similarity,
)
from repro.datasets import (
    Dataset,
    dataset_from_likes,
    digg_dataset,
    survey_dataset,
    synthetic_dataset,
)
from repro.experiments import (
    EXPERIMENTS,
    build_system,
    get_scale,
    run_experiment,
    run_one,
)

__version__ = "1.0.0"

__all__ = [
    "WhatsUpConfig",
    "WhatsUpNode",
    "WhatsUpSystem",
    "cosine_similarity",
    "wup_similarity",
    "Dataset",
    "dataset_from_likes",
    "digg_dataset",
    "survey_dataset",
    "synthetic_dataset",
    "EXPERIMENTS",
    "build_system",
    "get_scale",
    "run_experiment",
    "run_one",
    "__version__",
]
