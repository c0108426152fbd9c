"""Derivations the benchmark reports: medians, the tail percentile, rates,
ratios, the run-to-run spread and the per-layer metrics of a traced run.
Pure functions; test_stats.py checks them.
"""

import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it, so one slow op cannot be the whole tail.
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count). The value is the sample of
    nearest rank k = n - beyond, so exactly `beyond` samples rank above it;
    its percentile is 100 * k / n. Needs at least beyond + 1 samples.
    """
    n = len(values)
    if n < beyond + 1:
        raise ValueError(f"tail needs {beyond + 1} samples, got {n}")
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n, n


def rate(count, seconds):
    """Completed ops per second of timed wall."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive interval")
    return count / seconds


def ratio(part, base):
    """part / base, for ratios reported next to their base."""
    if base <= 0:
        raise ValueError("ratio over a non-positive base")
    return part / base


def spread(values):
    """Quartile distance as a share of the median, as the bound check
    computes it: (Q3 - Q1) / median with statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worsening(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`;
    negative when it is better. `better` is "lower" or "higher"."""
    change = ratio(after - before, before)
    return change if better == "lower" else -change


# Traced stages whose N-thread wall is reported as-is, and those whose
# 1-thread / N-thread ratio is reported as a speed-up.
STAGE_WALLS = {
    "layout.region_prep_s": "layout.region_prep",
    "density.wire_map_s": "density.wire_map",
    "density.bounds_s": "density.bounds",
    "fill.candidates_s": "fill.candidates",
    "fill.sizing_s": "fill.sizing",
}
SPEEDUPS = ("layout.region_prep", "density.bounds", "fill.candidates",
            "fill.sizing")


def layer_metrics(raw):
    """Per-layer metrics from `perfbench trace` output: lists are per-round
    samples (reduced to their median), numbers are counts."""
    m = {k: median(v) if isinstance(v, list) else v for k, v in raw.items()
         if not k.startswith(("stage.", "staged.", "trace.", "gds.read_mib",
                              "gds.write_mib", "service.cache_hits"))}
    stage = {k: median(v) for k, v in raw.items() if k.startswith("stage.")}
    for name, key in STAGE_WALLS.items():
        m[name] = stage[f"stage.{key}.N"]
    for key in SPEEDUPS:
        m[key + ".speedup"] = ratio(stage[f"stage.{key}.1"],
                                    stage[f"stage.{key}.N"])
    m["fill.plan_s"] = stage["stage.fill.plan.N"] + stage["stage.fill.replan.N"]
    m["gds.read_mib_per_s"] = ratio(raw["gds.read_mib"], m["gds.read_s"])
    m["gds.write_mib_per_s"] = ratio(raw["gds.write_mib"], m["gds.write_s"])
    staged_1, staged_n = median(raw["staged.1"]), median(raw["staged.N"])
    m["engine.parallel_efficiency"] = ratio(
        staged_1, staged_n * raw["engine.threads"])
    m["engine.unaccounted_s"] = m["engine.run_s"] - staged_n
    m["mcf.warm_start_ratio"] = ratio(raw["mcf.warm_starts"],
                                      raw["mcf.solves"])
    m["service.overhead_s"] = m["service.job_s"] - m["engine.eco_s"]
    m["service.cache_hit_ratio"] = ratio(raw["service.cache_hits"],
                                         raw["service.jobs"])
    m["trace.overhead_s"] = (median(raw["trace.traced_s"])
                             - median(raw["trace.untraced_s"]))
    return m
