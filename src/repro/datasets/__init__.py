"""Workload generators reproducing the paper's three datasets (Table I).

| Paper workload           | Generator                     | Paper scale      |
|--------------------------|-------------------------------|------------------|
| Synthetic (Arxiv-based)  | :func:`synthetic_dataset`     | 3180 users, ~2500 news |
| Digg crawl               | :func:`digg_dataset`          | 750 users, 2500 news   |
| WHATSUP survey           | :func:`survey_dataset`        | 480 users, ~1000 news  |

The original traces are not redistributable, so each generator synthesises
an equivalent workload preserving the structural property the paper's
evaluation exercises (ARCHITECTURE.md, "Layer map").  All generators are
deterministic in their ``seed`` argument.  :func:`dataset_from_likes` wraps
arbitrary external interest matrices into runnable workloads.
"""

from repro.datasets.base import Dataset, OpinionOracle
from repro.datasets.custom import dataset_from_likes
from repro.datasets.digg import digg_dataset, zipf_weights
from repro.datasets.drift import drifting_survey_dataset
from repro.datasets.survey import survey_dataset
from repro.datasets.synthetic import community_sizes, synthetic_dataset

__all__ = [
    "Dataset",
    "OpinionOracle",
    "dataset_from_likes",
    "digg_dataset",
    "drifting_survey_dataset",
    "survey_dataset",
    "synthetic_dataset",
    "community_sizes",
    "zipf_weights",
]
