"""Statistics and metric derivation for the repository benchmark.

perfbench/run.py feeds the raw samples printed by the lore_perfbench harness
through `end_to_end` (untraced metrics) or `per_layer` (traced run). The
helpers are small and pure so perfbench/test_benchstats.py can pin them.
"""

import math
import statistics

# Layers are the repository's modules under src/.
LAYERS = ("common", "arch", "ml", "device", "circuit", "os", "rollback", "core",
          "scenario", "fabric", "obs")

# Spans recorded inside src/ carry no layer tag; map them by name. The first
# matching prefix wins. The benchmark's own spans are named "<layer>:<call>".
SPAN_PREFIX_LAYERS = (
    ("campaign.chunk", "common"),
    ("campaign.", "arch"),  # campaign.arch, campaign.pipeline, ...: arch entry points
    ("scenario.stage/device", "device"),
    ("scenario.stage/fault", "arch"),
    ("scenario.stage/os", "os"),
    ("scenario.stage/mixed_crit", "os"),
    ("scenario.stage/replica", "os"),
    ("scenario.stage/rollback", "rollback"),
    ("scenario.stage/crosslayer", "core"),
    ("scenario.", "scenario"),
    ("circuit.", "circuit"),
    ("rollback.", "rollback"),
    ("os.", "os"),
    ("fabric.", "fabric"),
)

NO_SPAN = "0" * 16


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(numerator, base):
    """numerator / base, or 0.0 when the base is empty (nothing attempted)."""
    return numerator / base if base > 0 else 0.0


def percentile(samples, q, min_beyond=10):
    """Nearest-rank q-th percentile of `samples`, or None when fewer than
    `min_beyond` samples lie above it (the sample does not support it)."""
    if not samples or not 0 < q <= 100:
        return None
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def layer_of(span_name):
    if ":" in span_name:
        return span_name.split(":", 1)[0]
    for prefix, layer in SPAN_PREFIX_LAYERS:
        if span_name.startswith(prefix):
            return layer
    return "other"


def covered(interval, children):
    """Length of the part of `interval` that the union of `children` covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(events):
    """Self time (same unit as the events) of every span: its duration minus
    the part of its interval that its direct child spans cover. `events` are
    [name, tid, start, dur, id, parent] rows; returns [(name, self)]."""
    children = {}
    for _name, _tid, start, dur, _sid, parent in events:
        if parent != NO_SPAN:
            children.setdefault(parent, []).append((start, start + dur))
    out = []
    for name, _tid, start, dur, sid, _parent in events:
        kids = children.get(sid, ()) if sid != NO_SPAN else ()
        out.append((name, max(0.0, dur - covered((start, start + dur), kids))))
    return out


def layer_self_seconds(events):
    """Self time per layer in seconds (events in microseconds)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, self_us in self_times(events):
        layer = layer_of(name)
        if layer in totals:
            totals[layer] += self_us / 1e6
    return totals


def span_seconds(events, prefix):
    """Total duration in seconds of spans whose name starts with `prefix`."""
    return sum(e[3] for e in events if e[0].startswith(prefix)) / 1e6


def _per_round(rounds, key):
    return [r[key] for r in rounds if key in r]


def _rate(rounds, num, den):
    return median([r[num] / r[den] for r in rounds if r.get(den, 0) > 0])


def best_parts(rounds):
    """Per part of the job (a campaign, a scenario, a signoff step), its
    fastest time over `rounds`. Interference on a shared host only ever slows
    a part down, so the fastest repeat is the steadiest estimate of its cost.
    Callers pass a fixed number of rounds, so the minimum is taken over the
    same sample size however fast the code runs."""
    if not rounds:
        return []
    n = min(len(r["parts"]) for r in rounds)
    return [min(r["parts"][i] for r in rounds) for i in range(n)]


def untraced(raw):
    return [r for r in raw["rounds"] if not r["traced"]]


def traced(raw):
    return [r for r in raw["rounds"] if r["traced"]]


def estimate_rounds(raw):
    """The untraced rounds the best-part estimators use: the first
    `best_of` of them, a count fixed per workload by the harness."""
    return untraced(raw)[:raw["best_of"]]


def setup_seconds(raw):
    """Fastest of the workload's set-ups, plus the fastest fabric worker
    spawn and hello where the job dispatches to workers."""
    spawn = _per_round(estimate_rounds(raw), "spawn_s")
    return min(raw["setup_s"]) + (min(spawn) if spawn else 0.0)


def attempted_failed(raw):
    rounds = raw["rounds"]
    return sum(r["attempted"] for r in rounds), sum(r["failed"] for r in rounds)


def job(raw):
    """(operations per job, seconds of the operations' parts, seconds of the
    whole job), from the best parts. On crosslayer the operations are the
    scenarios, and the signoff parts before them count only in the job."""
    rounds = estimate_rounds(raw)
    best = best_parts(rounds)
    ops_from = rounds[0].get("ops_parts_from", 0)
    return rounds[0]["ops"], sum(best[ops_from:]), sum(best)


def end_to_end(raw):
    ops, ops_s, job_s = job(raw)
    return {
        "setup_s": (setup_seconds(raw), "s"),
        "ops_per_s": (ratio(ops, ops_s), "1/s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw, events, trace_export_s):
    """Every per-layer metric. Figures that need spans come from the traced
    rounds (per traced job); the rest from the untraced rounds of the same
    run. A metric whose layer the workload never calls reads 0."""
    u, t = untraced(raw), traced(raw)
    last = raw["rounds"][-1]
    summary = raw["summary"]
    host = raw["host"]
    n_traced = max(1, len(t))
    workload = raw["workload"]
    is_campaign = workload in ("fi_plain", "fi_resilient")

    def per_job(key):
        return median(_per_round(u, key))

    def stage_seconds(name):
        return span_seconds(events, "scenario.stage/" + name) / n_traced

    m = {}
    m["host.nproc"] = (host["nproc"], "count")
    m["host.parallelism"] = (host["parallelism"], "ratio")
    m["host.scalar_score"] = (host["scalar_score"], "Mop/s")

    # The workload's throughput is the gated ops_per_s, under its own name.
    attempted, failed = attempted_failed(raw)
    ops, ops_s, job_s = job(raw)
    m["trials_per_s"] = (ratio(ops, ops_s) if is_campaign else 0.0, "trials/s")
    m["scenarios_per_s"] = (0.0 if is_campaign else ratio(ops, ops_s), "1/s")
    scenario_ms = [x for r in u for x in r.get("scenario_ms", [])]
    m["scenario_p50_ms"] = (percentile(scenario_ms, 50) or 0.0, "ms")
    m["scenario_p90_ms"] = (percentile(scenario_ms, 90) or 0.0, "ms")
    m["scenario_samples"] = (len(scenario_ms), "count")
    m["signoff_s"] = (0.0 if is_campaign else job_s - ops_s, "s")
    m["fabric_efficiency"] = (median([
        ratio(r["fabric_ops"] / r["fabric_s"], r["inproc_ops"] / r["inproc_s"])
        for r in u if r.get("inproc_s", 0) > 0 and r.get("fabric_s", 0) > 0]), "ratio")
    audits = sum(_per_round(raw["rounds"], "audits"))
    m["false_benign_rate"] = (ratio(sum(_per_round(raw["rounds"], "false_benign")), audits),
                              "ratio")
    m["failed_ratio"] = (ratio(failed, attempted), "ratio")

    m["campaign.busy_s"] = (median([r.get("fault_s", 0.0) + r.get("pipeline_s", 0.0)
                                     for r in u]), "s")
    m["campaign.batch_share"] = (ratio(last.get("batch_campaigns", 0),
                                       last.get("campaigns", 0)), "ratio")
    for key in ("checkpoints_written", "checkpoint_bytes", "retries", "timeouts"):
        m["campaign." + key] = (last.get(key, 0), "bytes" if key.endswith("bytes") else "count")

    m["arch.golden_s"] = (summary.get("golden_s", 0.0), "s")
    m["arch.golden_cycles"] = (summary.get("golden_cycles", 0), "cycles")
    m["arch.fault.trials_per_s"] = (_rate(u, "fault_trials", "fault_s"), "trials/s")
    m["arch.pipeline.trials_per_s"] = (_rate(u, "pipeline_trials", "pipeline_s"), "trials/s")
    outcomes = last.get("outcomes", {})
    for key in ("benign", "sdc", "crash", "hang", "detected"):
        m["arch.outcome." + key] = (outcomes.get(key, 0), "count")

    m["ml.warmup_s"] = (summary.get("warmup_s", 0.0), "s")
    m["ml.predict_rows_per_s"] = (_rate(u, "predict_rows", "predict_s"), "rows/s")
    for key in ("pruned", "audits", "false_benign"):
        m["ml.prune." + key] = (last.get(key, 0), "count")
    m["ml.prune.useful_ratio"] = (ratio(last.get("pruned", 0), last.get("prune_trials", 0)),
                                  "ratio")
    m["ml.mlp_train_s"] = (per_job("mlp_train_s"), "s")

    m["circuit.characterize_s"] = (per_job("characterize_s"), "s")
    m["circuit.transient_sims"] = (last.get("transient_sims", 0), "count")
    m["circuit.sta_s"] = (per_job("sta_s"), "s")
    m["circuit.aging_flow_s"] = (per_job("aging_flow_s"), "s")

    device_s, os_s = stage_seconds("device"), stage_seconds("os")
    rollback_s, core_s = stage_seconds("rollback"), stage_seconds("crosslayer")
    traced_last = t[-1] if t else last
    m["device.stage_s"] = (device_s, "s")
    m["os.stage_s"] = (os_s, "s")
    m["os.sim_ms_per_host_s"] = (ratio(traced_last.get("os_sim_ms", 0.0), os_s), "ms/s")
    m["rollback.stage_s"] = (rollback_s, "s")
    m["rollback.mc_trials_per_s"] = (ratio(traced_last.get("mc_trials", 0), rollback_s),
                                     "trials/s")
    m["core.stage_s"] = (core_s, "s")
    m["core.steps_per_s"] = (ratio(traced_last.get("core_steps", 0), core_s), "steps/s")

    m["scenario.codec_s"] = (per_job("codec_s"), "s")
    m["scenario.codec_rejects"] = (last.get("codec_rejects", 0), "count")
    m["scenario.invariants_s"] = (per_job("invariants_s"), "s")
    m["scenario.findings"] = (last.get("findings", 0), "count")

    m["fabric.spawn_s"] = (per_job("spawn_s"), "s")
    m["fabric.compute_s"] = (per_job("compute_s"), "s")
    m["fabric.merge_s"] = (per_job("merge_s"), "s")
    # A forked worker's peak counts the harness pages it shares, so this sum
    # stays out of peak_rss_mb. Fixed rounds: it grows with the harness heap.
    m["fabric.workers_peak_rss_mb"] = (max(_per_round(estimate_rounds(raw),
                                                      "children_peak_rss_mb") or [0.0]), "MB")
    m["fabric.wire_bytes"] = (last.get("wire_bytes", 0), "bytes")
    m["fabric.shards"] = (last.get("shards", 0), "count")
    for key in ("steals", "duplicates_discarded", "payload_rejects"):
        m["fabric." + key] = (sum(_per_round(raw["rounds"], key)), "count")

    wall_u = median(_per_round(u, "wall_s"))
    wall_t = median(_per_round(t, "wall_s"))
    m["obs.trace_overhead"] = (ratio(wall_t, wall_u), "ratio")
    m["obs.spans"] = (len(events) / n_traced, "count")

    self_s = layer_self_seconds(events)
    # The obs layer's own cost: what tracing adds to a job, plus writing the
    # spans out at the end, spread over the traced jobs.
    self_s["obs"] = max(0.0, wall_t - wall_u) + trace_export_s / n_traced
    for layer in LAYERS:
        value = self_s[layer] if layer == "obs" else self_s[layer] / n_traced
        m[layer + ".self_s"] = (value, "s")
    return m
