#!/usr/bin/env python3
"""Render a markdown delta table between two bench_kernel_throughput JSONs.

Usage:
    perf_delta.py [--no-gate] BASELINE.json CURRENT.json

Prints a GitHub-flavoured markdown table comparing the current run against
the committed baseline (BENCH_THROUGHPUT.json), then gates: the script
exits nonzero when a kernel's GB/s or the batched-UPDATE speedup ratio
(batched_mups / per_record_mups) regresses more than 25% below the
baseline. Those two are ratios of co-located measurements, so shared-runner
noise largely cancels — a 25% drop is a real codegen or kernel regression.
The absolute end-to-end rows stay informational only (they swing
with runner load); a >20% drop there gets a loud callout but never fails.

--no-gate restores the pure-summary behaviour (always exit 0) for the
$GITHUB_STEP_SUMMARY rendering step. Missing files or rows degrade to a
note instead of an error and never gate.
"""
from __future__ import annotations

import json
import sys

# Kernel GB/s or the batched-UPDATE ratio more than this fraction below the
# baseline fails the perf gate.
GATE_REGRESSION_FRACTION = 0.25


def load(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"> perf delta unavailable: cannot read `{path}`: {exc}")
        return None


def fmt_delta(base: float, cur: float) -> str:
    if base <= 0:
        return "n/a"
    pct = 100.0 * (cur - base) / base
    return f"{pct:+.1f}%"


def kernel_rows(base: dict, cur: dict) -> list[str]:
    baseline = {
        (r["kernel"], r["backend"], r["n"]): r["gb_per_s"]
        for r in base.get("kernels_gb_per_s", [])
    }
    rows = []
    for r in cur.get("kernels_gb_per_s", []):
        key = (r["kernel"], r["backend"], r["n"])
        b = baseline.get(key)
        if b is None:
            continue
        rows.append(
            f"| {r['kernel']} | {r['backend']} | {r['n']} "
            f"| {b:.2f} | {r['gb_per_s']:.2f} "
            f"| {fmt_delta(b, r['gb_per_s'])} |"
        )
    return rows


SCALAR_METRICS = [
    ("update", "per_record_mups", "UPDATE (Mupd/s)"),
    ("update", "batched_mups", "batched UPDATE (Mupd/s)"),
    ("end_to_end", "m_records_per_s", "end-to-end W=1 (Mrec/s)"),
    ("end_to_end_w4", "m_records_per_s", "end-to-end W=4 (Mrec/s)"),
]

# End-to-end records/s is the headline number of docs/PERFORMANCE.md; a drop
# past this fraction gets a loud callout on the step summary (still never a
# build failure — shared-runner absolute numbers stay advisory).
E2E_REGRESSION_FRACTION = 0.20


def scalar_rows(base: dict, cur: dict) -> list[str]:
    rows = []
    for section, field, label in SCALAR_METRICS:
        b = base.get(section, {}).get(field)
        c = cur.get(section, {}).get(field)
        if b is None or c is None:
            continue
        rows.append(
            f"| {label} | — | — | {b:.3f} | {c:.3f} | {fmt_delta(b, c)} |"
        )
    return rows


def e2e_regressions(base: dict, cur: dict) -> list[str]:
    """Returns loud-warning lines for end-to-end throughput drops > 20%."""
    warnings = []
    for section, field, label in SCALAR_METRICS:
        if not section.startswith("end_to_end"):
            continue
        b = base.get(section, {}).get(field)
        c = cur.get(section, {}).get(field)
        if b is None or c is None or b <= 0:
            continue
        if (b - c) / b > E2E_REGRESSION_FRACTION:
            warnings.append(
                f"> ## :rotating_light: {label} regressed {fmt_delta(b, c)} "
                f"({b:.3f} -> {c:.3f})\n"
                "> More than 20% below the committed baseline. Shared-runner "
                "noise can do this, but so can a real ingest regression — "
                "re-run locally in full mode before merging. (Informational: "
                "this does not gate the build.)"
            )
    return warnings


def batched_ratio(run: dict) -> float | None:
    """batched_mups / per_record_mups — the batching speedup this host sees."""
    update = run.get("update", {})
    per_record = update.get("per_record_mups")
    batched = update.get("batched_mups")
    if per_record is None or batched is None or per_record <= 0:
        return None
    return batched / per_record


def gate_failures(base: dict, cur: dict) -> list[str]:
    """Gating regressions: kernel GB/s and the batched-UPDATE ratio."""
    failures = []
    baseline = {
        (r["kernel"], r["backend"], r["n"]): r["gb_per_s"]
        for r in base.get("kernels_gb_per_s", [])
    }
    for r in cur.get("kernels_gb_per_s", []):
        key = (r["kernel"], r["backend"], r["n"])
        b = baseline.get(key)
        c = r["gb_per_s"]
        if b is None or b <= 0:
            continue
        if (b - c) / b > GATE_REGRESSION_FRACTION:
            failures.append(
                f"kernel {r['kernel']}/{r['backend']} n={r['n']}: "
                f"{b:.2f} -> {c:.2f} GB/s ({fmt_delta(b, c)})"
            )
    b_ratio = batched_ratio(base)
    c_ratio = batched_ratio(cur)
    if b_ratio is not None and c_ratio is not None:
        if (b_ratio - c_ratio) / b_ratio > GATE_REGRESSION_FRACTION:
            failures.append(
                f"batched-UPDATE ratio: {b_ratio:.2f}x -> {c_ratio:.2f}x "
                f"({fmt_delta(b_ratio, c_ratio)})"
            )
    return failures


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if a != "--no-gate"]
    gate = "--no-gate" not in argv[1:]
    if len(args) != 2:
        print("usage: perf_delta.py [--no-gate] BASELINE.json CURRENT.json")
        return 0
    base = load(args[0])
    cur = load(args[1])
    if base is None or cur is None:
        return 0

    print("### Throughput vs committed baseline")
    print()
    base_quick = base.get("host", {}).get("quick", False)
    cur_quick = cur.get("host", {}).get("quick", False)
    if cur_quick and not base_quick:
        print(
            "> Current run is quick mode on shared CI hardware; the "
            "baseline is a full run (docs/PERFORMANCE.md). Absolute deltas "
            "are informational; only kernel GB/s and the batched-UPDATE "
            "ratio gate."
        )
        print()
    print("| benchmark | backend | n | baseline | current | delta |")
    print("|---|---|---|---|---|---|")
    rows = kernel_rows(base, cur) + scalar_rows(base, cur)
    for row in rows:
        print(row)
    if not rows:
        print("| _no comparable rows_ | | | | | |")
    warnings = e2e_regressions(base, cur)
    if warnings:
        print()
        for warning in warnings:
            print(warning)
    if not gate:
        return 0
    failures = gate_failures(base, cur)
    if failures:
        print()
        print(
            f"PERF GATE: {len(failures)} regression(s) more than "
            f"{GATE_REGRESSION_FRACTION:.0%} below baseline:"
        )
        for failure in failures:
            print(f"  {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
