"""Turning worker passes into the benchmark's metrics.

A worker pass is a dict whose ``jobs`` are ``[pool index, status, latency s,
output digest or error, calibration loop s]``.  Timings are scaled to
reference machine speed (``calibration.py``).
"""

import statistics

from calibration import scale, scale_factors
from layers import LAYERS

# A failed job counts as missing any latency limit; where a latency statistic
# lands on one, the job budget is reported.
FAILED = float("inf")


def tail(latencies, beyond=10):
    """(value, percentile, samples) at the highest percentile that still has at
    least ``beyond`` samples above it.

    With n samples in ascending order that is the (n - beyond)-th one, at
    percentile 100 (n - beyond) / n.  With ``beyond`` or fewer samples there
    is no such percentile and the maximum is reported at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def _latency_stats(latencies, jobs, budget_s):
    values = [lat if j[1] == "ok" else FAILED for lat, j in zip(latencies, jobs)]
    tail_value, percentile, samples = tail(values)
    ok = len(values) - values.count(FAILED)
    return (ok / sum(latencies), min(statistics.median(values), budget_s),
            min(tail_value, budget_s), percentile, samples)


def verdict(passes, mismatched=0):
    """(attempted, failed, correct) over worker passes.

    A job fails when it raised an unexpected exception, ran past its budget,
    returned other output than the reference, or failed the independent
    check; ``mismatched`` counts traced outputs that differ from the untraced
    ones and adds to the failures.  A failed job's output is not the
    reference, so the run is correct only when no job failed.
    """
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j[1] != "ok") + mismatched
    return attempted, failed, failed == 0


def scaled_latencies(jobs):
    return [j[2] * f for j, f in zip(jobs, scale_factors([j[4] for j in jobs]))]


def end_to_end(untraced, setup_s, budget_s):
    """The end_to_end metrics of one untraced pass, and details printed beside
    them: the tail's percentile and sample count, failed_frac, unscaled values."""
    jobs = untraced["jobs"]
    rate, p50, tail_s, percentile, samples = _latency_stats(scaled_latencies(jobs), jobs, budget_s)
    raw_rate, raw_p50, raw_tail, _, _ = _latency_stats([j[2] for j in jobs], jobs, budget_s)
    ok = sum(1 for j in jobs if j[1] == "ok")
    metrics = {
        "jobs_per_s": (rate, "1/s"),
        "job_p50_ms": (1000.0 * p50, "ms"),
        "job_tail_ms": (1000.0 * tail_s, "ms"),
        "ok_frac": (ok / len(jobs), "frac"),
        "peak_rss_mb": (untraced["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, {
        "tail_percentile": round(percentile, 2), "tail_samples": samples,
        "failed_frac": 1.0 - ok / len(jobs),
        "raw_jobs_per_s": raw_rate, "raw_job_p50_ms": 1000.0 * raw_p50, "raw_job_tail_ms": 1000.0 * raw_tail,
        "scale_factor": scale(statistics.median(j[4] for j in jobs)),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced):
    """The per_layer metrics of a traced pass, with the untraced pass over the
    same jobs as the base of ``trace_overhead_frac``.

    Counts and self times are per job, self times scaled to reference speed
    by the pass's median calibration loop time; shares are of the traced jobs'
    wall time.  A ratio whose base is zero is reported as 0.
    """
    trace = traced["trace"]
    jobs = len(traced["jobs"])
    wall = sum(j[2] for j in traced["jobs"])
    factor = scale(statistics.median(j[4] for j in traced["jobs"]))
    calls, self_s = trace["calls"], trace["self_s"]
    distinct, edges, counts = trace["distinct"], trace["edges"], trace["counts"]
    out = {}
    for layer in LAYERS:
        layer_calls, layer_self = trace["layers"][layer]
        out[f"{layer}.self_s"] = (factor * layer_self / jobs, "s/job")
        out[f"{layer}.self_share"] = (layer_self / wall, "frac")
        out[f"{layer}.calls"] = (layer_calls / jobs, "1/job")

    def span_calls(metric, span):
        out[metric] = (calls.get(span, 0) / jobs, "1/job")

    def span_self(metric, span):
        out[metric] = (factor * self_s.get(span, 0.0) / jobs, "s/job")

    def span_distinct(metric, span):
        out[metric] = (_ratio(distinct.get(span, 0), calls.get(span, 0)), "frac")

    sign, enclosure = "logforms.LogLinear.sign", "logforms.LogLinear.enclosure"
    span_calls("logforms.sign.calls", sign)
    out["logforms.enclosures_per_sign"] = (_ratio(edges.get(f"{sign}>{enclosure}", 0), calls.get(sign, 0)), "1/sign")
    span_calls("precision.log_enclosure.calls", "precision.log_enclosure")
    span_distinct("precision.log_enclosure.distinct_frac", "precision.log_enclosure")
    span_calls("points.weil_height.calls", "points.weil_height")
    span_self("points.weil_height.self_s", "points.weil_height")
    span_calls("matrices.modulus_profile.calls", "matrices.modulus_profile")
    span_distinct("matrices.modulus_profile.distinct_frac", "matrices.modulus_profile")
    span_self("matrices.modulus_profile.self_s", "matrices.modulus_profile")
    span_calls("jordan.limit_matrix_B.calls", "jordan.limit_matrix_B")
    span_distinct("jordan.limit_matrix_B.distinct_frac", "jordan.limit_matrix_B")
    span_calls("jordan.jordan_profile.calls", "jordan.jordan_profile")
    for fname in ("factor_list", "all_roots", "resultant", "gcd"):
        out[f"matrices.sympy.{fname}.calls"] = (counts.get(f"matrices.sympy.{fname}", 0) / jobs, "1/job")
    for layer in ("matrices", "rationals"):
        total = sum(n for k, n in counts.items() if k.startswith(f"{layer}.sympy."))
        out[f"{layer}.sympy_calls"] = (total / jobs, "1/job")
    words = counts.get("systems.words_enumerated", 0)
    out["systems.words_enumerated"] = (words / jobs, "1/job")
    radius = edges.get("systems.growth_table>matrices.spectral_radius", 0)
    out["systems.exact_radius_per_word"] = (_ratio(radius, words), "frac")
    span_calls("heights.canonical_height_truncated.calls", "heights.canonical_height_truncated")
    span_calls("rationals.factor_rational.calls", "rationals.factor_rational")
    span_self("rationals.factor_rational.self_s", "rationals.factor_rational")
    out["untraced_share"] = (1.0 - trace["covered_s"] / wall, "frac")
    base = sum(scaled_latencies(untraced["jobs"])[:jobs])
    out["trace_overhead_frac"] = (_ratio(sum(scaled_latencies(traced["jobs"])), base) - 1.0, "frac")
    return out
