"""Statistics and metric definitions of the repository benchmark.

The C++ harness (perfbench/src/) writes raw samples; everything reported
is derived here, so the reporting rules live in one place:

* a timing is reported as its median plus the highest percentile that
  still has at least ten samples beyond it, with the sample count;
* a ratio is reported with its numerator and denominator;
* a failure count is reported as failed/attempted;
* a host time of an end-to-end metric is taken at the reference host
  speed: divided by the reference kernel's slowdown around it.
"""

import math
import statistics

# Percentiles considered for the tail of a timing, lowest first.
TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)
MIN_BEYOND = 10

# Every workload run.py runs. BENCHMARK.json gates on paper_sweep and
# daemon_mix only: replay_cmp4's host time drifts by up to 35% with the
# host's load (README.md), too much for the largest bound it allows.
# Its per-layer rows are printed by every traced run all the same.
WORKLOADS = ("paper_sweep", "replay_cmp4", "daemon_mix")

# What one operation of each workload is: ops_per_s, op_p50_ms and
# op_p95_ms count and time these, and every failure is one of them.
OPERATION = {"paper_sweep": "point", "replay_cmp4": "replay",
             "daemon_mix": "session"}

# FADE's monitored slowdown per monitor in the paper's Fig. 9.
FIG9_FADE_SLOWDOWN = {"AddrCheck": 1.2, "AtomCheck": 1.6, "MemCheck": 1.4,
                      "MemLeak": 1.8, "TaintCheck": 1.6}

# End-to-end metrics: (name, unit). Every workload reports all of them.
END_TO_END = (
    ("events_per_s", "events/s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metrics: (name, unit, workload whose traced run measures it,
# raw value written by the harness, statistic). Every traced run reports
# all of them: the selected workload's traced run supplies its own rows
# and short traced runs of the other two supply the rest, so each name
# has one definition whatever --workload is.
PER_LAYER = (
    ("trace.synth_ns_per_instr", "ns/instr", "paper_sweep",
     "trace.synth_ns_per_instr", "median"),
    ("trace.decode_ns_per_instr", "ns/instr", "replay_cmp4",
     "trace.decode_ns_per_instr", "median"),
    ("trace.open_ms", "ms", "replay_cmp4", "trace.open_ms", "median"),
    ("trace.bytes_per_instr", "B/instr", "replay_cmp4",
     "trace.bytes_per_instr", "ratio"),
    ("monitor.dispatch_ns_per_instr", "ns/instr", "replay_cmp4",
     "monitor.dispatch_ns_per_instr", "median"),
    ("monitor.handlers_per_event", "handlers/event", "paper_sweep",
     "monitor.handlers_per_event", "ratio"),
    ("monitor.handler_instr_per_handler", "instr/handler", "paper_sweep",
     "monitor.handler_instr_per_handler", "ratio"),
    ("core.filtering_ratio", "fraction", "paper_sweep",
     "core.filtering_ratio", "ratio"),
    ("core.busy_share", "fraction", "paper_sweep", "core.busy_share",
     "ratio"),
    ("core.ueq_full_stall_share", "fraction", "paper_sweep",
     "core.ueq_full_stall_share", "ratio"),
    ("core.eq_occupancy_p95", "entries", "paper_sweep",
     "core.eq_occupancy_p95", "median"),
    ("cpu.app_stall_share", "fraction", "paper_sweep",
     "cpu.app_stall_share", "ratio"),
    ("cpu.mon_idle_share", "fraction", "paper_sweep",
     "cpu.mon_idle_share", "ratio"),
    ("mem.mdcache_miss_ratio", "fraction", "paper_sweep",
     "mem.mdcache_miss_ratio", "ratio"),
    ("mem.llc_miss_ratio", "fraction", "replay_cmp4", "mem.llc_miss_ratio",
     "ratio"),
    ("mem.slice_commit_s", "s", "replay_cmp4", "mem.slice_commit_s",
     "median"),
    ("mem.slice_rebase_s", "s", "replay_cmp4", "mem.slice_rebase_s",
     "median"),
    ("system.construct_ms", "ms", "paper_sweep", "system.construct_ms",
     "median"),
    ("system.warmup_s", "s", "paper_sweep", "system.warmup_s", "median"),
    ("system.cmp4_construct_ms", "ms", "replay_cmp4",
     "system.cmp4_construct_ms", "median"),
    ("system.cmp4_warmup_s", "s", "replay_cmp4", "system.cmp4_warmup_s",
     "median"),
    ("system.extract_ns_per_instr", "ns/instr", "replay_cmp4",
     "system.extract_ns_per_instr", "median"),
    ("system.percycle_residual_ns_per_instr", "ns/instr", "paper_sweep",
     "system.percycle_residual_ns_per_instr", "median"),
    ("system.rungrain_residual_ns_per_instr", "ns/instr", "replay_cmp4",
     "system.rungrain_residual_ns_per_instr", "median"),
    ("system.rungrain_stepped_share", "fraction", "replay_cmp4",
     "system.rungrain_stepped_share", "ratio"),
    ("system.sched_epochs", "epochs", "replay_cmp4", "system.sched_epochs",
     "median"),
    ("system.sched_slice_s", "s", "replay_cmp4", "system.sched_slice_s",
     "median"),
    ("system.sched_imbalance", "max/mean", "replay_cmp4",
     "system.sched_imbalance", "ratio"),
    ("system.sched_ideal_speedup", "x", "replay_cmp4",
     "system.sched_ideal_speedup", "ratio"),
    ("system.sched_speedup", "x", "replay_cmp4", "system.sched_speedup",
     "ratio"),
    ("system.sched_sync_s", "s", "replay_cmp4", "system.sched_sync_s",
     "median"),
    ("system.sched_epoch_p50_us", "us", "replay_cmp4",
     "system.sched_epoch_us", "p50"),
    ("system.sched_epoch_p95_us", "us", "replay_cmp4",
     "system.sched_epoch_us", "p95"),
    ("daemon.connect_ms", "ms", "daemon_mix", "daemon.connect_ms",
     "median"),
    ("daemon.configure_ms", "ms", "daemon_mix", "daemon.configure_ms",
     "median"),
    ("daemon.admit_ms", "ms", "daemon_mix", "daemon.admit_ms", "median"),
    ("daemon.first_progress_ms", "ms", "daemon_mix",
     "daemon.first_progress_ms", "median"),
    ("daemon.exec_ms", "ms", "daemon_mix", "daemon.exec_ms", "median"),
    ("daemon.overhead_ms", "ms", "daemon_mix", "daemon.overhead_ms",
     "median"),
    ("daemon.quanta_per_session", "quanta", "daemon_mix",
     "daemon.quanta_per_session", "median"),
    ("daemon.parks", "parks/session", "daemon_mix", "daemon.parks", "ratio"),
)


def percentile(samples, q):
    """The q-th percentile (0 <= q <= 100) of samples, interpolating
    linearly between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile out of range: %r" % (q,))
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(n, q):
    """How many of n sorted samples rank above the q-th percentile's
    position (the samples percentile() does not reach)."""
    if n == 0:
        return 0
    return n - 1 - math.floor((n - 1) * q / 100.0 + 1e-9)


def tail_percentile(samples, min_beyond=MIN_BEYOND):
    """The highest of TAIL_PERCENTILES with at least min_beyond samples
    beyond it, as (q, value); None when not even the median has."""
    best = None
    for q in TAIL_PERCENTILES:
        if beyond(len(samples), q) >= min_beyond:
            best = (q, percentile(samples, q))
    return best


def fmt_num(v):
    """A number with four significant digits, without exponent for the
    magnitudes this benchmark prints."""
    if v == 0 or not math.isfinite(v):
        return str(v)
    mag = math.floor(math.log10(abs(v)))
    digits = max(0, 3 - mag)
    return "%.*f" % (digits, v)


def fmt_q(q):
    return "p%g" % q


def describe_samples(samples, unit):
    """'median U (pQ V U, n=N)' with the tail percentile when one has at
    least ten samples beyond it."""
    if not samples:
        return "no samples"
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    if tail is None or tail[0] == 50:
        return "%s %s (n=%d)" % (fmt_num(med), unit, len(samples))
    return "%s %s (%s %s %s, n=%d)" % (fmt_num(med), unit, fmt_q(tail[0]),
                                      fmt_num(tail[1]), unit, len(samples))


def describe_ratio(num, den):
    value = num / den if den else float("nan")
    return "%s (%s / %s)" % (fmt_num(value), fmt_num(num), fmt_num(den))


def host_scaled(raw, key, rate=False, scaled=True):
    """The samples raw[key] at the reference host speed: each host time
    divided by the host's slowdown over its interval (raw[key + "_host"],
    the reference kernel's time there ÷ its nominal time), each rate
    multiplied by it. With scaled=False, the samples as measured."""
    if not scaled:
        return list(raw[key])
    return [v * h if rate else v / h
            for v, h in zip(raw[key], raw[key + "_host"])]


def end_to_end(raw, smoke=False, scaled=True):
    """End-to-end metrics of one untraced (or traced) workload run, plus
    the problems that make them unreportable. Host times and rates are
    taken at the reference host speed (host_scaled); scaled=False gives
    them as measured."""
    problems = []
    ops = host_scaled(raw, "op_ms", scaled=scaled)
    if not ops:
        return {}, ["no operation completed"]
    if not smoke and beyond(len(ops), 95) < MIN_BEYOND:
        problems.append("op_p95_ms has only %d samples beyond it (n=%d)"
                        % (beyond(len(ops), 95), len(ops)))
    metrics = {
        "events_per_s": statistics.median(
            host_scaled(raw, "events_per_s", rate=True, scaled=scaled)),
        "ops_per_s": raw["ops"] / host_scaled(raw, "wall_s",
                                              scaled=scaled)[0],
        "op_p50_ms": percentile(ops, 50),
        "op_p95_ms": percentile(ops, 95),
        "setup_s": statistics.median(host_scaled(raw, "setup_s",
                                                 scaled=scaled)),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    for name, value in metrics.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and value > 0):
            problems.append("%s is %r" % (name, value))
    return metrics, problems


def sim_slowdown_err(info):
    """Mean over the Fig. 9 monitors of |simulated FADE geomean slowdown
    - paper value| / paper value, from paper_sweep's info block."""
    errs = [abs(info["fade_slowdown." + mon] - ref) / ref
            for mon, ref in FIG9_FADE_SLOWDOWN.items()]
    return sum(errs) / len(errs)


def layer_value(layer, statistic):
    """Reduce one raw layer entry to the reported number."""
    if statistic == "ratio":
        return layer["num"] / layer["den"] if layer["den"] else float("nan")
    samples = layer["samples"]
    if statistic == "median":
        return statistics.median(samples)
    if statistic in ("p50", "p95"):
        return percentile(samples, float(statistic[1:]))
    raise ValueError("unknown statistic " + statistic)


def per_layer(raws):
    """Per-layer metrics from traced runs keyed by workload. Returns
    (metrics, printable rows, problems)."""
    metrics, rows, problems = {}, [], []
    for name, unit, workload, key, statistic in PER_LAYER:
        layer = raws.get(workload, {}).get("layers", {}).get(key)
        if layer is None:
            problems.append("%s: %s did not report %s" % (name, workload, key))
            continue
        value = layer_value(layer, statistic)
        if not math.isfinite(value):
            problems.append("%s is %r" % (name, value))
            continue
        metrics[name] = value
        if statistic == "ratio":
            text = describe_ratio(layer["num"], layer["den"]) + " " + unit
        elif statistic == "median":
            text = describe_samples(layer["samples"], unit)
        else:
            text = "%s %s (%s of n=%d)" % (fmt_num(value), unit, statistic,
                                           len(layer["samples"]))
        rows.append((name, workload, text))
    return metrics, rows, problems


def span_self_times(rows):
    """Per span name: (count, total seconds, self seconds), where a
    span's self time is its duration minus its children's.

    rows: iterable of (index, name, parent, start_ns, end_ns)."""
    rows = list(rows)
    child_ns = {}
    for _, _, parent, start, end in rows:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out = {}
    for index, name, _, start, end in rows:
        dur = end - start
        count, total, self_ns = out.get(name, (0, 0, 0))
        out[name] = (count + 1, total + dur,
                     self_ns + dur - child_ns.get(index, 0))
    return {k: (c, t / 1e9, s / 1e9) for k, (c, t, s) in out.items()}
