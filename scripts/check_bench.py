#!/usr/bin/env python3
"""Compare fresh bench documents against their committed baselines.

Usage: check_bench.py <baseline.json> <candidate.json>
                      [<baseline2.json> <candidate2.json> ...]
                      [--max-regress PCT] [--max-latency-regress PCT]
                      [--hit-rate-slack FLOAT] [--fleet-subset-ok]

Positional arguments come in (baseline, candidate) pairs; each pair is
dispatched on the document's `name` field, so one invocation can gate
the simulator bench and the fleet bench together:

* `BENCH_simx86` — CI's perf-smoke job reruns the bench harness's quick
  sweep and fails if its wall time regressed more than `--max-regress`
  percent (default 25) over the committed baseline — a coarse gate,
  deliberately tolerant of runner-to-runner variance, that still
  catches order-of-magnitude slowdowns in the simulator's hot paths.
  Two microbenchmark lines are gated the same way: `fp_ports` (the
  batched FP steady-state jump) and `dram_stream` (the per-access
  memory path). The remaining microbenchmark rates are reported
  for attribution only: they are noisier than the end-to-end sweep.

* `BENCH_roofd` — the fleet load-generator report. Fleets are matched
  by node count. Per fleet: p99 client latency may not exceed the
  baseline by more than `--max-latency-regress` percent (default 50)
  plus a 20 ms absolute slack (sub-50 ms baselines would otherwise
  gate on scheduler noise); the fleet-wide hit rate (completions
  answered without a local compute) may not drop more than
  `--hit-rate-slack` (default 0.10) below the baseline; and the
  candidate must have zero hard errors. `served`, `peer_hit_share`,
  and `fairness_ratio` are reported for attribution.

Ids present on only one side (benchmarks added since the baseline was
recorded, retired from the harness, or fleet sizes added since) produce
a warning, never a failure, so baseline files do not need to be
regenerated in the same commit that adds a benchmark. Fleet sizes the
candidate *lost* are the exception: a candidate covering fewer fleet
sizes than its baseline fails, because a silently shrunken run would
wave through regressions in the missing fleets. Pass
`--fleet-subset-ok` to downgrade that specific failure to a warning
when the subset is intentional (e.g. CI reruns only the 3-node fleet
against a baseline that also carries the 1-node entry).

Exit status: 0 ok, 1 regression, 2 usage/malformed input.
"""

import json
import sys

# Microbench ids whose rate regression fails CI (when present in both
# baseline and candidate).
GATED_IDS = ("fp_ports", "dram_stream")

# Sections of the simx86 bench document that hold microbenchmark entries.
MICRO_SECTIONS = ("memsys", "service")

# Absolute p99 slack (ms) on top of the relative fleet-latency gate.
LATENCY_ABS_SLACK_MS = 20


def quick_wall_ms(doc: dict, name: str) -> int:
    for sweep in doc.get("sweeps", []):
        if sweep.get("fidelity") == "quick":
            wall = sweep.get("wall_ms")
            if not isinstance(wall, int) or wall <= 0:
                raise ValueError(f"{name}: quick sweep has no positive wall_ms")
            return wall
    raise ValueError(f"{name}: no quick sweep entry")


def micro_rates(doc: dict) -> dict:
    """id -> Mops/s for every well-formed microbenchmark entry."""
    rates = {}
    for section in MICRO_SECTIONS:
        for micro in doc.get(section, []):
            ident = micro.get("id")
            rate = micro.get("mops_per_s")
            if isinstance(ident, str) and isinstance(rate, (int, float)) and rate > 0:
                rates[ident] = float(rate)
    return rates


def check_simx86(baseline, candidate, names, opts) -> list:
    base_ms = quick_wall_ms(baseline, names[0])
    cand_ms = quick_wall_ms(candidate, names[1])
    max_regress = opts["max_regress"]

    failures = []
    change = (cand_ms - base_ms) / base_ms * 100.0
    print(
        f"quick sweep: baseline {base_ms} ms, candidate {cand_ms} ms "
        f"({change:+.1f}%, limit +{max_regress:.0f}%)"
    )
    if change > max_regress:
        failures.append(
            f"quick sweep regressed {change:+.1f}% (limit +{max_regress:.0f}%)"
        )

    base_rates = micro_rates(baseline)
    cand_rates = micro_rates(candidate)
    for ident in sorted(cand_rates.keys() - base_rates.keys()):
        print(f"warning: new benchmark id '{ident}' not in baseline; not compared")
    for ident in sorted(base_rates.keys() - cand_rates.keys()):
        print(f"warning: benchmark id '{ident}' removed since baseline; not compared")

    for ident, rate in cand_rates.items():
        base = base_rates.get(ident)
        if base is None:
            print(f"  {ident:<32} {rate:>10.2f} Mops/s (new)")
            continue
        delta = (rate - base) / base * 100.0
        gated = ident in GATED_IDS
        tag = "gated" if gated else "info"
        print(f"  {ident:<32} {rate:>10.2f} Mops/s ({delta:+.1f}%, {tag})")
        if gated and -delta > max_regress:
            failures.append(
                f"{ident} regressed {delta:+.1f}% "
                f"({base:.2f} -> {rate:.2f} Mops/s, limit -{max_regress:.0f}%)"
            )
    return failures


def fleet_hit_rate(fleet: dict) -> float:
    """Fleet-wide no-local-compute share, weighted by per-node volume."""
    completed = hits = 0
    for node in fleet.get("per_node", []):
        completed += node.get("completed", 0)
        hits += (
            node.get("hits", 0)
            + node.get("coalesced", 0)
            + node.get("peer_hits", 0)
        )
    return hits / completed if completed > 0 else 0.0


def fleets_by_nodes(doc: dict, name: str) -> dict:
    fleets = {}
    for fleet in doc.get("fleets", []):
        nodes = fleet.get("nodes")
        if not isinstance(nodes, int) or nodes <= 0:
            raise ValueError(f"{name}: fleet entry without a positive node count")
        fleets[nodes] = fleet
    if not fleets:
        raise ValueError(f"{name}: no fleet entries")
    return fleets


def check_roofd(baseline, candidate, names, opts) -> list:
    base_fleets = fleets_by_nodes(baseline, names[0])
    cand_fleets = fleets_by_nodes(candidate, names[1])
    latency_pct = opts["max_latency_regress"]
    hit_slack = opts["hit_rate_slack"]

    failures = []
    for nodes in sorted(cand_fleets.keys() - base_fleets.keys()):
        print(f"warning: new fleet size {nodes} not in baseline; not compared")
    missing = sorted(base_fleets.keys() - cand_fleets.keys())
    if missing:
        sizes = ", ".join(str(n) for n in missing)
        if opts["fleet_subset_ok"]:
            print(
                f"warning: fleet size(s) {sizes} in baseline but not candidate; "
                f"skipped (--fleet-subset-ok)"
            )
        else:
            failures.append(
                f"candidate is missing baseline fleet size(s) {sizes}; a "
                f"shrunken run hides regressions in the absent fleets "
                f"(pass --fleet-subset-ok if the subset is intentional)"
            )
    for nodes, cand in sorted(cand_fleets.items()):
        base = base_fleets.get(nodes)
        label = f"fleet[{nodes} node{'s' if nodes != 1 else ''}]"
        errors = cand.get("errors", 0)
        print(
            f"{label}: served {cand.get('served', 0)}, "
            f"quota_rejected {cand.get('quota_rejected', 0)}, errors {errors}, "
            f"peer_hit_share {cand.get('peer_hit_share', 0.0):.3f}, "
            f"fairness {cand.get('fairness_ratio', 1.0):.2f}"
        )
        if errors > 0:
            failures.append(f"{label} has {errors} hard errors")
        if base is None:
            print(f"  p99 {cand.get('p99_ms', 0)} ms (new fleet size)")
            continue

        base_p99 = base.get("p99_ms", 0)
        cand_p99 = cand.get("p99_ms", 0)
        limit = base_p99 * (1.0 + latency_pct / 100.0) + LATENCY_ABS_SLACK_MS
        print(
            f"  p99: baseline {base_p99} ms, candidate {cand_p99} ms "
            f"(limit {limit:.0f} ms = +{latency_pct:.0f}% +{LATENCY_ABS_SLACK_MS} ms)"
        )
        if cand_p99 > limit:
            failures.append(
                f"{label} p99 regressed: {base_p99} -> {cand_p99} ms "
                f"(limit {limit:.0f} ms)"
            )

        base_hit = fleet_hit_rate(base)
        cand_hit = fleet_hit_rate(cand)
        floor = base_hit - hit_slack
        print(
            f"  hit rate: baseline {base_hit:.3f}, candidate {cand_hit:.3f} "
            f"(floor {floor:.3f})"
        )
        if cand_hit < floor:
            failures.append(
                f"{label} hit rate dropped: {base_hit:.3f} -> {cand_hit:.3f} "
                f"(floor {floor:.3f})"
            )
    return failures


def check_pair(base_path: str, cand_path: str, opts) -> list:
    with open(base_path, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(cand_path, encoding="utf-8") as f:
        candidate = json.load(f)
    base_name = baseline.get("name", "BENCH_simx86")
    cand_name = candidate.get("name", "BENCH_simx86")
    if base_name != cand_name:
        raise ValueError(
            f"document mismatch: {base_path} is {base_name!r} "
            f"but {cand_path} is {cand_name!r}"
        )
    if base_name == "BENCH_roofd":
        return check_roofd(baseline, candidate, (base_path, cand_path), opts)
    return check_simx86(baseline, candidate, (base_path, cand_path), opts)


def main() -> int:
    args = []
    opts = {
        "max_regress": 25.0,
        "max_latency_regress": 50.0,
        "hit_rate_slack": 0.10,
        "fleet_subset_ok": False,
    }
    flags = {
        "--max-regress": "max_regress",
        "--max-latency-regress": "max_latency_regress",
        "--hit-rate-slack": "hit_rate_slack",
    }
    it = iter(sys.argv[1:])
    for arg in it:
        if arg == "--fleet-subset-ok":
            opts["fleet_subset_ok"] = True
        elif arg in flags:
            try:
                opts[flags[arg]] = float(next(it))
            except (StopIteration, ValueError):
                print(f"error: {arg} needs a number", file=sys.stderr)
                return 2
        else:
            args.append(arg)
    if (
        len(args) < 2
        or len(args) % 2 != 0
        or opts["max_regress"] <= 0
        or opts["max_latency_regress"] <= 0
        or opts["hit_rate_slack"] < 0
    ):
        print(__doc__.strip(), file=sys.stderr)
        return 2

    failures = []
    try:
        for base_path, cand_path in zip(args[0::2], args[1::2]):
            failures.extend(check_pair(base_path, cand_path, opts))
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
