"""Compare two result files of ``run`` at one seed (A = base, B = candidate).

One row per (end-to-end metric, workload) with both medians and quartiles, the
same-seed bound from ``spec.SAME_SEED_BOUNDS`` (a share of A's median; for
``f1`` an absolute difference) and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the bound, or every run of B
  beats every run of A;
* ``unresolved`` — the run-to-run spread (quartile distance, the wider side)
  exceeds the bound and the two sides' runs overlap;
* ``same`` — anything else.

Then the exact counts that differ (they repeat bit-for-bit, so any difference
is a behaviour change), ``f1``, and the per-span ``self_s`` deltas.  Files of
different seeds are refused: ``f1``, memory and every count depend on the seed.
"""

from __future__ import annotations

from .spec import END_TO_END, EXACT, SAME_SEED_BOUNDS
from .tracer import SPANS

__all__ = ["compare", "verdict"]


def verdict(
    a: dict, b: dict, better: str, bound: float, absolute: bool = False
) -> tuple[str, float]:
    """``(verdict, gain)`` for two metric summaries; gain > 0 means B is better.

    Gain and spread are shares of the side's own median, or plain differences
    when the bound is *absolute*.
    """
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"]) / (1.0 if absolute else a["median"])
    spread = max(
        (s["q3"] - s["q1"]) / (1.0 if absolute else s["median"]) for s in (a, b)
    )
    if better == "higher":
        b_wins = min(b["values"]) > max(a["values"])
        a_wins = min(a["values"]) > max(b["values"])
    else:
        b_wins = max(b["values"]) < min(a["values"])
        a_wins = max(a["values"]) < min(b["values"])
    if spread > bound and not (a_wins or b_wins):
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bound or b_wins:
        return "better", gain
    return "same", gain


def compare(a: dict, b: dict) -> tuple[str, bool]:
    """The comparison as text, and whether anything is worse."""
    if a["seed"] != b["seed"]:
        raise ValueError(
            f"A ran seed {a['seed']} and B seed {b['seed']}: f1, memory and the "
            "exact counts depend on the seed, compare two runs of one seed"
        )
    lines = [
        f"seed {a['seed']}   A: commit {a['host']['git_commit']}   "
        f"B: commit {b['host']['git_commit']}",
        f"{'workload':<18}{'metric':<14}{'A median [q1, q3]':>32}"
        f"{'B median [q1, q3]':>32}{'gain':>9}{'bound':>7}  verdict",
    ]
    worse = False
    shared = [w for w in a["workloads"] if w in b["workloads"]]
    for name in sorted(set(a["workloads"]) ^ set(b["workloads"])):
        worse = True
        lines.append(f"{name}: in one file only, nothing to compare  worse")
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        ea, eb = wa.get("end_to_end"), wb.get("end_to_end")
        if ea is None or eb is None:
            # a side without one completed untraced repeat; its cycles all
            # failed, so the failed-operation share below carries the verdict
            lines.append(f"{name}: no completed untraced repeat on one side")
        else:
            for metric, _unit, better, _driver_bound in END_TO_END:
                bound, absolute = SAME_SEED_BOUNDS[metric]
                sa, sb = ea[metric], eb[metric]
                result, gain = verdict(sa, sb, better, bound, absolute)
                worse |= result == "worse"
                lines.append(
                    f"{name:<18}{metric:<14}"
                    f"{sa['median']:>12.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}]".ljust(64)
                    + f"{sb['median']:>12.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}]".ljust(
                        32
                    )
                    + f"{gain:>+9.3f}{bound:>6.3f}{'a' if absolute else ' '}  {result}"
                )
        share_a = wa["failed"] / max(1, wa["attempted"])
        share_b = wb["failed"] / max(1, wb["attempted"])
        if share_b > share_a:
            worse = True
            lines.append(
                f"{name}: failed-operation share rose "
                f"{share_a:.4f} -> {share_b:.4f}  worse"
            )
        if not (wa["valid_host"] and wb["valid_host"]):
            lines.append(
                f"{name}: valid_host false on one side (fewer cores than shards)"
            )

    lines.append("")
    lines.append("exact counts and f1 (must be identical for a speed-only change):")
    differing = 0
    for name in shared:
        wa, wb = a["workloads"][name], b["workloads"][name]
        pairs = []
        if "end_to_end" in wa and "end_to_end" in wb:
            f1_a, f1_b = wa["end_to_end"]["f1"], wb["end_to_end"]["f1"]
            pairs.append(("f1", f1_a["median"], f1_b["median"]))
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        pairs += [(m, la[m], lb[m]) for m in la if m in EXACT and m in lb]
        for metric, va, vb in pairs:
            if va != vb:
                differing += 1
                lines.append(f"  {name:<18}{metric:<44}{va!r:>22} -> {vb!r}")
    lines.append(
        f"  {differing} differ: B changes behaviour, it is not speed-only"
        if differing
        else "  identical"
    )

    lines.append("")
    lines.append("per-span self_s (traced runs), B - A:")
    for name in shared:
        la = a["workloads"][name].get("per_layer", {})
        lb = b["workloads"][name].get("per_layer", {})
        for span in SPANS:
            key = f"{span}.self_s"
            va, vb = la.get(key, 0.0), lb.get(key, 0.0)
            if va or vb:
                lines.append(
                    f"  {name:<18}{span:<36}{va:>10.4f}{vb:>10.4f}{vb - va:>+10.4f}"
                )
    return "\n".join(lines), worse
