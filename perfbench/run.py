#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30
    python3 perfbench/run.py --workload replay_cmp4 --trace 1
    python3 perfbench/run.py --smoke

Run it from anywhere inside a FADE source tree. On first use it builds
the simulator, faded and the benchmark harness from source into
.bench_build/ at the root of the tree. It then generates the workload's
inputs from the seed, runs the workload for about --seconds seconds,
checks every output and prints the end-to-end metrics (host times at
the reference host speed, each beside its value as measured), or with
--trace 1 the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
status is 0 only when every check passed.

perfbench/README.md documents the workloads and metrics.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Build and run directories, relative to ROOT (the working directory of
# every command this script starts).
BUILD = ".bench_build"
RUNS = ".bench_run"
HARNESS = os.path.join(BUILD, "perfbench_harness")
FADED = os.path.join(BUILD, "fade", "faded")

DEFAULT_SEED = 1
# Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 2026
DEFAULT_SECONDS = 30
# Wall-clock limits: the build, then everything after it (175 s up to
# 50 s runs; a traced run takes about 2.5x --seconds).
BUILD_BUDGET_S = 840
SMOKE_BUDGET_S = 600


def run_budget(seconds):
    return max(175.0, 3.5 * seconds)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def kill_group(proc):
    """SIGKILL proc's process group, reap proc, and wait until nothing
    else of the group is left (up to 5 s)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    try:
        for _ in range(500):
            os.killpg(proc.pid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


_deadline = [None]


def set_budget(seconds):
    _deadline[0] = time.monotonic() + seconds


def run_cmd(cmd):
    """Run cmd from ROOT in its own process group and return its output.
    It is killed when the current budget runs out, and whatever it
    started is killed with the group once it returns, so no process
    outlives the call."""
    timeout = _deadline[0] - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before: " + " ".join(cmd))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        out, _ = proc.communicate()
        raise BenchError("timed out after %.0f s: %s\n%s"
                         % (timeout, " ".join(cmd), out[-4000:]))
    finally:
        kill_group(proc)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d:\n%s"
                         % (" ".join(cmd), proc.returncode, out[-4000:]))
    return out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("perfbench/ must sit in a FADE source tree: no "
                         "CMakeLists.txt and src/ next to it")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    set_budget(BUILD_BUDGET_S)
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        log("perfbench: configuring %s" % BUILD)
        run_cmd(["cmake", "-S", "perfbench", "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"])
    log("perfbench: building")
    run_cmd(["cmake", "--build", BUILD, "-j", jobs])


def cmake_cache():
    cache = {}
    try:
        with open(os.path.join(ROOT, BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_digest():
    """Digest of the sources the benchmark builds, to tell revisions
    apart where no git metadata exists."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.relpath(os.path.join(dirpath, f), ROOT)
                      for f in files]
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:12]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def host_record(seed):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "load_before": os.getloadavg(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "revision": git_revision(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def read_spans(path):
    rows = []
    with open(os.path.join(ROOT, path)) as f:
        for r in csv.DictReader(f):
            rows.append((int(r["index"]), r["name"], int(r["parent"]),
                         int(r["start_ns"]), int(r["end_ns"])))
    return rows


def run_workload(workload, seed, seconds, trace, smoke=False, probe=False,
                 generate=True):
    """Generate inputs (in their own process) and run one workload;
    returns the harness's raw result."""
    d = os.path.join(RUNS, workload)
    flags = ["--smoke"] if smoke else []
    if generate:
        shutil.rmtree(os.path.join(ROOT, d), ignore_errors=True)
        os.makedirs(os.path.join(ROOT, d))
        run_cmd([HARNESS, "gen", "--workload", workload, "--seed", str(seed),
                 "--dir", d] + flags)
    out = os.path.join(d, "traced.json" if trace else "result.json")
    spans = os.path.join(d, "spans.csv")
    cmd = [HARNESS, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--dir", d, "--out", out, "--faded", FADED] + flags
    if trace:
        cmd += ["--spans", spans]
    if probe:
        cmd.append("--probe")
    run_cmd(cmd)
    with open(os.path.join(ROOT, out)) as f:
        raw = json.load(f)
    raw["span_rows"] = read_spans(spans) if trace else []
    return raw


def print_host(host, raws):
    ref = [ms for raw in raws for ms in raw["ref_kernel_ms"]]
    print("host: nproc %d, load %s -> %s, %s, %s build, revision %s, "
          "source digest %s, seed %d"
          % (host["nproc"], "/".join("%.2f" % x for x in host["load_before"]),
             "/".join("%.2f" % x for x in os.getloadavg()), host["compiler"],
             host["build_type"], host["revision"], host["source_digest"],
             host["seed"]))
    print("host: reference kernel %s, nominal %s ms"
          % (stats.describe_samples(ref, "ms"),
             stats.fmt_num(raws[0]["ref_kernel_nominal_ms"])))


def print_checks(workload, raw, label=""):
    print("checks (%s%s): failed %d/%d operations"
          % (workload, label, raw["failed"], raw["attempted"]))
    for line in raw["failures"]:
        print("  FAILED: " + line)
    info = raw["info"]
    if workload == "paper_sweep":
        print("  sweep fingerprint %s, identical across %d sweeps"
              % (info["sweep_fingerprint"], info["sweeps"]))
    elif workload == "replay_cmp4":
        print("  every replay reproduced its capture's manifest hash (%s)"
              % info["manifest_hash"])
        if "lockstep_passes" in info:
            print("  so did %d Lockstep passes stepped from outside and as "
                  "many parallel passes timed per epoch"
                  % info["lockstep_passes"])
    elif workload == "daemon_mix":
        print("  %d sessions; %d re-run through standaloneRun with "
              "identical hash, resultFp and functionalFp; %d park(s)"
              % (info["sessions"], info["standalone_checked"],
                 info["parks"]))


def e2e_details(workload, raw, metrics):
    """Printable value of each end-to-end metric: at the reference host
    speed, then as measured."""
    measured, _ = stats.end_to_end(raw, smoke=True, scaled=False)
    ops = raw["op_ms"]
    op = stats.OPERATION[workload]
    fmt = stats.fmt_num
    wall = stats.host_scaled(raw, "wall_s")[0]
    text = {
        "events_per_s": "%s (%s events in total)"
                        % (stats.describe_samples(
                            stats.host_scaled(raw, "events_per_s", rate=True),
                            "events/s"), raw["events"]),
        "ops_per_s": "%s %ss/s (%d / %s s)"
                     % (fmt(metrics["ops_per_s"]), op, raw["ops"], fmt(wall)),
        "op_p50_ms": "%s ms (median %s, n=%d)"
                     % (fmt(metrics["op_p50_ms"]), op, len(ops)),
        "op_p95_ms": "%s ms (p95 %s, n=%d, %d beyond)"
                     % (fmt(metrics["op_p95_ms"]), op, len(ops),
                        stats.beyond(len(ops), 95)),
        "setup_s": stats.describe_samples(stats.host_scaled(raw, "setup_s"),
                                          "s"),
        "peak_rss_mib": "%s MiB" % fmt(metrics["peak_rss_mib"]),
    }
    for name, unit in stats.END_TO_END:
        if name != "peak_rss_mib":
            if name == "ops_per_s":
                unit = "%ss/s" % op
            text[name] += "; as measured %s %s" % (fmt(measured[name]), unit)
    return text


def print_e2e(title, workload, raw, metrics):
    """The end-to-end block. The generic operation metrics also carry the
    workload's own name for them (on daemon_mix, ops_per_s is
    sessions_per_s), and two values outside BENCHMARK.json follow:
    failed_ratio, and on paper_sweep the simulated sim_slowdown_err."""
    print(title)
    print("  %-36s %s (reference kernel time ÷ nominal over the timed "
          "phase; host times below are divided by it)"
          % ("host_slowdown", stats.fmt_num(raw["wall_s_host"][0])))
    details = e2e_details(workload, raw, metrics)
    op = stats.OPERATION[workload]
    for name, _ in stats.END_TO_END:
        alias = name.replace("ops", op + "s").replace("op_", op + "_")
        label = name if alias == name else "%s (%s)" % (name, alias)
        print("  %-36s %s" % (label, details[name]))
    print("  %-36s %d/%d %ss" % ("failed_ratio", raw["failed"],
                                raw["attempted"], op))
    info = raw["info"]
    if workload == "paper_sweep":
        print("  %-36s %.4f fraction (simulated: mean over the five monitors "
              "of |FADE geomean slowdown - Fig. 9| / Fig. 9)"
              % ("sim_slowdown_err", stats.sim_slowdown_err(info)))
        for mon, ref in sorted(stats.FIG9_FADE_SLOWDOWN.items()):
            print("    %-10s FADE %.3fx (Fig. 9: %.1fx), unaccelerated %.3fx"
                  % (mon, info["fade_slowdown." + mon], ref,
                     info["unaccelerated_slowdown." + mon]))


def print_spans(workload, raw):
    times = stats.span_self_times(raw["span_rows"])
    if not times:
        return
    print("spans (%s): name, count, total s, self s" % workload)
    for name, (count, total, self_s) in sorted(times.items(),
                                                key=lambda kv: -kv[1][1]):
        print("  %-16s %7d %10.4f %10.4f" % (name, count, total, self_s))


def result_line(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))


def run_untraced(args, host):
    raw = run_workload(args.workload, args.seed, args.seconds, False)
    metrics, problems = stats.end_to_end(raw)
    print("perfbench: %s, seed %d, %g s, tracing off"
          % (args.workload, args.seed, args.seconds))
    print_host(host, [raw])
    print_checks(args.workload, raw)
    for p in problems:
        print("  PROBLEM: " + p)
    if metrics:
        print_e2e("end-to-end:", args.workload, raw, metrics)
    correct = raw["failed"] == 0 and not raw["failures"] and not problems
    result_line(correct, max(1, raw["attempted"]), raw["failed"], metrics,
                dict(stats.END_TO_END))
    return correct


def run_traced(args, host):
    w = args.workload
    base = run_workload(w, args.seed, args.seconds, False)
    raws = {w: run_workload(w, args.seed, args.seconds, True,
                            generate=False)}
    for other in stats.WORKLOADS:
        if other != w:
            raws[other] = run_workload(other, args.seed,
                                       max(2.0, args.seconds / 8), True,
                                       probe=True)
    print("perfbench: %s, seed %d, %g s, traced (per-layer rows of the "
          "other workloads come from short traced runs of them)"
          % (w, args.seed, args.seconds))
    print_host(host, [base] + list(raws.values()))
    problems = []
    print_checks(w, base, ", untraced")
    for name, raw in raws.items():
        print_checks(name, raw, ", traced")
    m0, p0 = stats.end_to_end(base)
    m1, p1 = stats.end_to_end(raws[w])
    problems += p0 + p1
    if m0 and m1:
        print_e2e("end-to-end, traced:", w, raws[w], m1)
        print("tracing overhead (traced vs untraced run of %s):" % w)
        for name, unit in stats.END_TO_END:
            print("  %-14s %s -> %s %s (%+.1f%%)"
                  % (name, stats.fmt_num(m0[name]), stats.fmt_num(m1[name]),
                     unit, 100.0 * (m1[name] - m0[name]) / m0[name]))
    metrics, rows, p2 = stats.per_layer(raws)
    problems += p2
    print("per-layer (layer costs come from isolated probes and outside "
          "timing, not from spans inside the program):")
    for name, source, text in rows:
        print("  %-38s %-12s %s" % (name, source, text))
    for name, raw in raws.items():
        print_spans(name, raw)
    for p in problems:
        print("  PROBLEM: " + p)
    every = [base] + list(raws.values())
    failed = sum(r["failed"] for r in every)
    correct = (failed == 0 and not problems
               and not any(r["failures"] for r in every))
    result_line(correct, max(1, sum(r["attempted"] for r in every)), failed,
                metrics, {name: unit for name, unit, *_ in stats.PER_LAYER})
    return correct


def run_smoke(args, host):
    """Every workload at a tiny size, untraced and traced, every check
    on: the plumbing test of the benchmark's own suite."""
    raws, every, problems = {}, [], []
    print("perfbench: smoke, seed %d" % args.seed)
    for w in stats.WORKLOADS:
        raw = run_workload(w, args.seed, 1, False, smoke=True)
        raws[w] = run_workload(w, args.seed, 1, True, smoke=True,
                               generate=False)
        every += [raw, raws[w]]
        print_checks(w, raw)
        metrics, p = stats.end_to_end(raw, smoke=True)
        problems += ["%s: %s" % (w, x) for x in p]
        if metrics:
            print_e2e("end-to-end (%s):" % w, w, raw, metrics)
    print_host(host, every)
    metrics, rows, p = stats.per_layer(raws)
    problems += p
    print("per-layer:")
    for name, source, text in rows:
        print("  %-38s %-12s %s" % (name, source, text))
    for p in problems:
        print("  PROBLEM: " + p)
    failed = sum(r["failed"] for r in every)
    correct = (failed == 0 and not problems
               and not any(r["failures"] for r in every))
    result_line(correct, sum(r["attempted"] for r in every), failed, metrics,
                {name: unit for name, unit, *_ in stats.PER_LAYER})
    return correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=stats.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default %d; held out for claims: "
                         "%d)" % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measured time per run (default %d)"
                         % DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: print per-layer metrics instead")
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads at a tiny size, every check on")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        set_budget(SMOKE_BUDGET_S if args.smoke else run_budget(args.seconds))
        host = host_record(args.seed)
        if args.smoke:
            ok = run_smoke(args, host)
        elif args.trace:
            ok = run_traced(args, host)
        else:
            ok = run_untraced(args, host)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
