"""The experiment registry: every paper table and figure, reproducible by id.

Each entry is a callable ``(scale, seed) -> ExperimentReport``.  The
benchmark suite (``benchmarks/``) wraps these one-to-one; the CLI
(``python -m repro run <id>``) invokes them directly.

See README.md ("Quickstart") for the CLI; ``python -m repro list`` prints
the experiment index.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import WhatsUpConfig
from repro.experiments.dynamics import run_dynamics_experiment
from repro.experiments.factory import build_system
from repro.experiments.reporting import ExperimentReport, results_table, series_table
from repro.experiments.runner import run_one
from repro.experiments.scale import ScaleProfile
from repro.experiments.sweeps import (
    best_result,
    fanout_sweep,
    topology_sweep,
    ttl_sweep,
)
from repro.metrics.bandwidth import bandwidth_breakdown
from repro.metrics.dissemination import (
    dislike_counter_distribution,
    f1_vs_sociability,
    hops_breakdown,
    recall_vs_popularity,
)
from repro.network.transport import PlanetLabTransport, UniformLossTransport
from repro.utils.exceptions import ConfigurationError
from repro.utils.tables import format_distribution, format_table

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]

ExperimentFn = Callable[[ScaleProfile, int], ExperimentReport]

_FIG3_SYSTEMS = ("cf-wup", "cf-cos", "whatsup", "whatsup-cos")


# --------------------------------------------------------------------- #
# Tables                                                                 #
# --------------------------------------------------------------------- #


def exp_table1(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Table I: summary of the workloads."""
    rows = []
    for name in ("synthetic", "digg", "survey"):
        ds = scale.dataset(name, seed)
        rows.append(ds.summary_row())
    text = format_table(
        ["Name", "Number of users", "Number of news"],
        rows,
        title=f"Table I (scale={scale.name})",
    )
    return ExperimentReport("table1", "Summary of the workloads", text, {"rows": rows})


def exp_table2(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Table II: WHATSUP parameters."""
    rows = WhatsUpConfig().table2_rows()
    text = format_table(
        ["Parameter", "Description", "value"], rows, title="Table II"
    )
    return ExperimentReport("table2", "WHATSUP parameters", text, {"rows": rows})


def exp_table3(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Table III: best operating point of each approach on the survey."""
    ds = scale.survey(seed)
    grid = scale.fanouts("survey")
    results = []
    results += fanout_sweep(ds, ("gossip",), [2, 3, 4, 6], seed=seed)
    results += fanout_sweep(ds, ("cf-wup", "cf-cos"), grid, seed=seed)
    results += fanout_sweep(ds, ("whatsup", "whatsup-cos"), grid, seed=seed)
    best = [
        best_result(results, name)
        for name in ("gossip", "cf-cos", "cf-wup", "whatsup-cos", "whatsup")
    ]
    text = results_table(
        best, title=f"Table III: best performance of each approach (scale={scale.name})"
    )
    return ExperimentReport(
        "table3",
        "Survey: best performance of each approach",
        text,
        {
            "best": {r.system: r.table_row() for r in best},
            "all": [r.table_row() for r in results],
        },
    )


def exp_table4(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Table IV: news received and liked via dislike forwards.

    The dislike path's contribution depends on the fanout *relative to the
    population*: the reduced scales use a proportionally reduced fanout so
    the like-path coverage ratio matches the paper's 480-user deployment.
    """
    ds = scale.survey(seed)
    fanout = 10 if scale.name == "paper" else 5
    system = build_system("whatsup", ds, fanout=fanout, seed=seed)
    system.run()
    dist = dislike_counter_distribution(system.log, max_ttl=4)
    text = format_distribution(
        dist,
        title=f"Table IV: dislike counter at liked receptions (scale={scale.name})",
    )
    return ExperimentReport(
        "table4", "News received and liked via dislike", text, {"distribution": dist}
    )


def exp_table5(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Table V: WHATSUP vs Cascading (Digg) and vs C-Pub/Sub (survey)."""
    rows = []
    data = {}
    digg = scale.digg(seed)
    for name in ("cascade", "whatsup"):
        r = run_one(name, digg, fanout=None if name == "cascade" else 10, seed=seed)
        rows.append(("Digg", r.system, r.precision, r.recall, r.f1, r.item_messages))
        data[f"digg/{r.system}"] = (r.precision, r.recall, r.f1, r.item_messages)
    survey = scale.survey(seed)
    for name in ("c-pubsub", "whatsup"):
        r = run_one(name, survey, fanout=None if name == "c-pubsub" else 10, seed=seed)
        rows.append(("Survey", r.system, r.precision, r.recall, r.f1, r.item_messages))
        data[f"survey/{r.system}"] = (r.precision, r.recall, r.f1, r.item_messages)
    text = format_table(
        ["Dataset", "Approach", "Precision", "Recall", "F1-Score", "Messages"],
        rows,
        title=f"Table V (scale={scale.name})",
    )
    return ExperimentReport(
        "table5", "WHATSUP vs C-Pub/Sub and Cascading", text, data
    )


def exp_table6(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Table VI: performance versus message-loss rate (ModelNet)."""
    ds = scale.survey(seed)
    loss_rates = (0.0, 0.05, 0.20, 0.50)
    fanouts = (3, 6)
    recall_rows = []
    precision_rows = []
    data = {}
    for fanout in fanouts:
        rr: list = [f"f={fanout}"]
        pr: list = [f"f={fanout}"]
        for loss in loss_rates:
            r = run_one(
                "whatsup",
                ds,
                fanout=fanout,
                seed=seed,
                transport=UniformLossTransport(loss),
            )
            rr.append(r.recall)
            pr.append(r.precision)
            data[(fanout, loss)] = (r.precision, r.recall, r.f1)
        recall_rows.append(rr)
        precision_rows.append(pr)
    headers = ["Fanout", *[f"loss={int(100 * l)}%" for l in loss_rates]]
    text = (
        format_table(
            headers, recall_rows, title=f"Table VI — Recall (scale={scale.name})"
        )
        + "\n\n"
        + format_table(headers, precision_rows, title="Table VI — Precision")
    )
    return ExperimentReport(
        "table6", "Performance versus message-loss rate", text, {"cells": data}
    )


# --------------------------------------------------------------------- #
# Figures                                                                #
# --------------------------------------------------------------------- #


def _fig3(dataset_name: str, scale: ScaleProfile, seed: int) -> ExperimentReport:
    ds = scale.dataset(dataset_name, seed)
    fanouts = scale.fanouts(dataset_name)
    results = fanout_sweep(ds, _FIG3_SYSTEMS, fanouts, seed=seed)
    f1_cols = {
        name: [r.f1 for r in results if r.system == name]
        for name in _FIG3_SYSTEMS
    }
    msg_cols = {}
    for name in _FIG3_SYSTEMS:
        sysrows = [r for r in results if r.system == name]
        msg_cols[name] = [
            (r.messages_per_user_per_cycle, r.f1) for r in sysrows
        ]
    text = series_table(
        "fanout",
        list(fanouts),
        f1_cols,
        title=f"Figure 3 ({dataset_name}): F1-Score vs fanout (scale={scale.name})",
    )
    msg_lines = ["", f"Figure 3 ({dataset_name}): F1-Score vs messages/cycle/node"]
    for name, pairs in msg_cols.items():
        series = "  ".join(f"({m:.2f}, {f:.3f})" for m, f in pairs)
        msg_lines.append(f"  {name:12s} {series}")
    return ExperimentReport(
        f"fig3-{dataset_name}",
        f"F1-Score vs fanout and message cost ({dataset_name})",
        text + "\n" + "\n".join(msg_lines),
        {"f1_vs_fanout": f1_cols, "f1_vs_messages": msg_cols, "fanouts": list(fanouts)},
    )


def exp_fig3_synthetic(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figures 3a/3d."""
    return _fig3("synthetic", scale, seed)


def exp_fig3_digg(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figures 3b/3e."""
    return _fig3("digg", scale, seed)


def exp_fig3_survey(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figures 3c/3f."""
    return _fig3("survey", scale, seed)


def exp_fig4(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 4: LSCC fraction vs fanout (plus §V-A topology numbers)."""
    ds = scale.survey(seed)
    fanouts = tuple(f for f in scale.fanouts("survey") if f <= 14)
    rows = topology_sweep(ds, _FIG3_SYSTEMS, fanouts, seed=seed)
    cols: dict[str, list[float]] = {}
    comp_cols: dict[str, list[float]] = {}
    clus_cols: dict[str, list[float]] = {}
    for name in _FIG3_SYSTEMS:
        sysrows = [r for r in rows if r["system"] == name]
        cols[name] = [r["lscc"] for r in sysrows]
        comp_cols[name] = [float(r["components"]) for r in sysrows]
        clus_cols[name] = [r["clustering"] for r in sysrows]
    text = (
        series_table(
            "fanout",
            list(fanouts),
            cols,
            title=f"Figure 4: LSCC fraction (scale={scale.name})",
        )
        + "\n\n"
        + series_table(
            "fanout",
            list(fanouts),
            comp_cols,
            title="Weakly connected components",
            float_fmt=".1f",
        )
        + "\n\n"
        + series_table(
            "fanout",
            list(fanouts),
            clus_cols,
            title="Average clustering coefficient (§V-A)",
        )
    )
    return ExperimentReport(
        "fig4", "Size of the LSCC depending on the approach", text, {"rows": rows}
    )


def exp_fig5(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 5: impact of the dislike TTL."""
    ds = scale.survey(seed)
    ttls = (0, 1, 2, 4, 6, 8)
    results = ttl_sweep(ds, ttls, f_like=10, seed=seed)
    text = series_table(
        "TTL",
        list(ttls),
        {
            "Precision": [r.precision for r in results],
            "Recall": [r.recall for r in results],
            "F1-Score": [r.f1 for r in results],
        },
        title=f"Figure 5: impact of the BEEP TTL (scale={scale.name})",
    )
    return ExperimentReport(
        "fig5",
        "Impact of the dislike feature of BEEP",
        text,
        {
            "ttls": ttls,
            "f1": [r.f1 for r in results],
            "recall": [r.recall for r in results],
        },
    )


def exp_fig6(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 6: dissemination actions by hop distance (fLIKE = 5)."""
    ds = scale.survey(seed)
    system = build_system("whatsup", ds, fanout=5, seed=seed)
    system.run()
    hb = hops_breakdown(system.log)
    hops = list(range(min(hb.max_hops, 30) + 1))
    text = series_table(
        "hops",
        hops,
        {
            "Forward by like": [int(hb.forwards_by_like[h]) for h in hops],
            "Infection by like": [int(hb.infections_by_like[h]) for h in hops],
            "Forward by dislike": [int(hb.forwards_by_dislike[h]) for h in hops],
            "Infection by dislike": [int(hb.infections_by_dislike[h]) for h in hops],
        },
        title=f"Figure 6: impact of amplification (fLIKE=5, scale={scale.name})",
        float_fmt=".0f",
    )
    text += f"\nmean infection hop distance: {hb.mean_infection_hops():.2f}"
    return ExperimentReport(
        "fig6",
        "Impact of amplification of BEEP",
        text,
        {
            "mean_hops": hb.mean_infection_hops(),
            "forwards_by_like": hb.forwards_by_like.tolist(),
            "forwards_by_dislike": hb.forwards_by_dislike.tolist(),
            "infections_by_like": hb.infections_by_like.tolist(),
            "infections_by_dislike": hb.infections_by_dislike.tolist(),
        },
    )


def exp_fig7(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 7: cold start and interest dynamics, WUP metric vs cosine."""
    traces = {}
    for metric in ("wup", "cosine"):
        traces[metric] = run_dynamics_experiment(metric_name=metric, seed=seed)
    lines = []
    data = {}
    for metric, tr in traces.items():
        join_c = tr.convergence_cycle()
        change_c = tr.change_convergence_cycle()
        data[metric] = {
            "join_convergence": join_c,
            "change_convergence": change_c,
        }
        lines.append(
            f"  {metric:7s} joining-node convergence: "
            f"{join_c if join_c is not None else '>not reached'} cycles; "
            f"interest-change convergence: "
            f"{change_c if change_c is not None else '>not reached'} cycles"
        )
    # Figure 7c: joiner reception right after joining (wup metric)
    tr = traces["wup"]
    t0 = tr.intervention_cycle
    window = range(t0, t0 + 40, 5)
    recv = [
        sum(tr.joiner_liked_per_cycle.get(c + d, 0) for d in range(5))
        for c in window
    ]
    ref_recv = [
        sum(tr.reference_liked_per_cycle.get(c + d, 0) for d in range(5))
        for c in window
    ]
    text = "Figure 7: view convergence after join / interest change\n" + "\n".join(
        lines
    )
    text += "\n\nFigure 7c (wup): liked news received per 5-cycle bucket after join\n"
    text += series_table(
        "cycle",
        list(window),
        {
            "joining node": [float(x) for x in recv],
            "reference node": [float(x) for x in ref_recv],
        },
        float_fmt=".0f",
    )
    data["joiner_reception"] = recv
    return ExperimentReport("fig7", "Cold start and dynamics", text, data)


def exp_fig8(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 8: simulation vs ModelNet vs PlanetLab + bandwidth."""
    ds = scale.survey(seed)
    fanouts = tuple(f for f in scale.fanouts("survey") if f <= 12)
    transports = {
        "Simulation": None,
        "ModelNet": UniformLossTransport(0.05),
        "PlanetLab": PlanetLabTransport(),
    }
    f1_cols: dict[str, list[float]] = {}
    recall_small_fanout = {}
    for label, transport in transports.items():
        series = []
        for fanout in fanouts:
            r = run_one("whatsup", ds, fanout=fanout, seed=seed, transport=transport)
            series.append(r.f1)
            if fanout == min(fanouts):
                recall_small_fanout[label] = r.recall
        f1_cols[label] = series
    text = series_table(
        "fanout",
        list(fanouts),
        f1_cols,
        title=f"Figure 8a: F1-Score by deployment setting (scale={scale.name})",
    )

    # Figure 8b: bandwidth split on the lossless setting
    bw_rows = []
    cfg = WhatsUpConfig()
    for fanout in fanouts:
        system = build_system("whatsup", ds, fanout=fanout, seed=seed)
        system.run()
        bw = bandwidth_breakdown(
            system.stats,
            ds.n_users,
            system.engine.cycles_run,
            cfg.cycle_seconds,
        )
        bw_rows.append((fanout, bw.total_kbps, bw.wup_kbps, bw.beep_kbps))
    text += "\n\n" + format_table(
        ["Fanout", "Total Kbps", "WUP Kbps", "BEEP Kbps"],
        bw_rows,
        title="Figure 8b: bandwidth per node (30 s cycles)",
    )
    return ExperimentReport(
        "fig8",
        "Implementation: bandwidth and performance",
        text,
        {
            "f1": f1_cols,
            "fanouts": list(fanouts),
            "bandwidth": bw_rows,
            "recall_at_min_fanout": recall_small_fanout,
        },
    )


def exp_fig9(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 9: centralized vs decentralized."""
    ds = scale.survey(seed)
    fanouts = scale.fanouts("survey")
    cols: dict[str, list[float]] = {}
    prec: dict[str, list[float]] = {}
    rec: dict[str, list[float]] = {}
    for name in ("c-whatsup", "whatsup", "whatsup-cos"):
        rows = [run_one(name, ds, fanout=f, seed=seed) for f in fanouts]
        key = {
            "c-whatsup": "Centralized",
            "whatsup": "WhatsUp",
            "whatsup-cos": "WhatsUp-Cos",
        }[name]
        cols[key] = [r.f1 for r in rows]
        prec[key] = [r.precision for r in rows]
        rec[key] = [r.recall for r in rows]
    text = series_table(
        "fanout", list(fanouts), cols,
        title=f"Figure 9: centralized vs decentralized, F1 (scale={scale.name})",
    )
    text += "\n\n" + series_table("fanout", list(fanouts), prec, title="Precision")
    text += "\n\n" + series_table("fanout", list(fanouts), rec, title="Recall")
    return ExperimentReport(
        "fig9",
        "Centralized vs decentralized",
        text,
        {"f1": cols, "precision": prec, "recall": rec, "fanouts": list(fanouts)},
    )


def exp_fig10(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 10: recall vs item popularity."""
    ds = scale.survey(seed)
    cols = {}
    for name in ("whatsup", "cf-wup"):
        system = build_system(name, ds, fanout=10, seed=seed)
        system.run()
        centres, mean_recall, fraction = recall_vs_popularity(
            system.reached_matrix(), ds.likes
        )
        cols[name] = mean_recall.tolist()
    text = series_table(
        "popularity",
        [round(c, 2) for c in centres],
        {
            "WhatsUp recall": cols["whatsup"],
            "CF-WUP recall": cols["cf-wup"],
            "item fraction": fraction.tolist(),
        },
        title=f"Figure 10: recall vs popularity (scale={scale.name})",
    )
    return ExperimentReport(
        "fig10",
        "Recall vs popularity",
        text,
        {"centres": centres.tolist(), "recall": cols, "fraction": fraction.tolist()},
    )


def exp_fig11(scale: ScaleProfile, seed: int) -> ExperimentReport:
    """Figure 11: F1-Score vs user sociability."""
    ds = scale.survey(seed)
    system = build_system("whatsup", ds, fanout=10, seed=seed)
    system.run()
    centres, mean_f1, fraction = f1_vs_sociability(
        system.reached_matrix(), ds.likes, k=15
    )
    text = series_table(
        "sociability",
        [round(c, 2) for c in centres],
        {"F1-Score": mean_f1.tolist(), "node fraction": fraction.tolist()},
        title=f"Figure 11: F1 vs sociability (scale={scale.name})",
    )
    # correlation between sociability and F1 across populated bins
    mask = ~np.isnan(mean_f1) & (fraction > 0)
    corr = (
        float(np.corrcoef(centres[mask], mean_f1[mask])[0, 1])
        if mask.sum() > 2
        else float("nan")
    )
    text += f"\nsociability/F1 correlation over bins: {corr:.3f}"
    return ExperimentReport(
        "fig11",
        "F1-Score vs sociability",
        text,
        {
            "centres": centres.tolist(),
            "f1": mean_f1.tolist(),
            "fraction": fraction.tolist(),
            "correlation": corr,
        },
    )


# --------------------------------------------------------------------- #
# Registry                                                               #
# --------------------------------------------------------------------- #

EXPERIMENTS: dict[str, ExperimentFn] = {
    "table1": exp_table1,
    "table2": exp_table2,
    "table3": exp_table3,
    "table4": exp_table4,
    "table5": exp_table5,
    "table6": exp_table6,
    "fig3-synthetic": exp_fig3_synthetic,
    "fig3-digg": exp_fig3_digg,
    "fig3-survey": exp_fig3_survey,
    "fig4": exp_fig4,
    "fig5": exp_fig5,
    "fig6": exp_fig6,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "fig9": exp_fig9,
    "fig10": exp_fig10,
    "fig11": exp_fig11,
}


def get_experiment(exp_id: str) -> ExperimentFn:
    """Look up an experiment by id."""
    try:
        return EXPERIMENTS[exp_id.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(
    exp_id: str,
    scale: ScaleProfile,
    seed: int = 1,
    run_config=None,
) -> ExperimentReport:
    """Run one registered experiment.

    *run_config* (a :class:`repro.api.RunConfig`) pins the pipeline gate
    matrix for the whole run — the experiment body builds and runs its
    systems under ``run_config.apply()``.
    """
    fn = get_experiment(exp_id)
    if run_config is None:
        return fn(scale, seed)
    with run_config.apply():
        return fn(scale, seed)
