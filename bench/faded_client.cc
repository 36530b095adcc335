/**
 * @file
 * faded_client — submit monitoring sessions to a running faded
 * daemon (bench/faded.cc). Two modes:
 *
 *   faded_client --socket PATH [config flags]
 *       Run one live session and print its result fingerprints.
 *       --check additionally runs the identical experiment standalone
 *       in-process and exits 1 unless the daemon's result is
 *       bit-identical.
 *
 *   faded_client --socket PATH --upload FILE.ftrace [--check]
 *       Upload a captured trace and replay it daemon-side under the
 *       trace's own manifest config.
 *
 * Config flags: --monitor M --profile P (repeatable) --shards N
 * --clusters C --fades K --policy lockstep|parallel
 * --engine percycle|rungrain --warm N --instr N
 * --seed-offset N --slow-ms N (sleep per received frame; exercises
 * daemon backpressure). An unknown --policy or --engine value is a
 * usage error (exit 2).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "daemon/client.hh"
#include "daemon/session.hh"

using namespace fade::daemon;

namespace
{

struct Options
{
    std::string socket;
    std::string upload;
    WireSessionConfig wc;
    bool check = false;
    int slowMs = 0;
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: faded_client --socket PATH [--monitor M] [--profile P]...\n"
        "                    [--shards N] [--clusters C] [--fades K]\n"
        "                    [--policy lockstep|parallel]\n"
        "                    [--engine percycle|rungrain]\n"
        "                    [--warm N] [--instr N] [--seed-offset N]\n"
        "                    [--upload FILE.ftrace] [--check] "
        "[--slow-ms N]\n");
    return 2;
}

/** Wire policy value of @p name, or -1 when unknown. */
int
wirePolicy(const std::string &name)
{
    if (name == "lockstep")
        return 0;
    if (name == "parallel")
        return 1;
    std::fprintf(stderr,
                 "unknown --policy '%s' (expected lockstep or parallel)\n",
                 name.c_str());
    return -1;
}

/** Wire engine value of @p name, or -1 when unknown or retired. */
int
wireEngine(const std::string &name)
{
    if (name == "percycle")
        return 0;
    if (name == "rungrain")
        return 2;
    if (name == "batched")
        std::fprintf(stderr, "the batched engine was retired; use "
                             "percycle (the reference) or rungrain\n");
    else
        std::fprintf(stderr,
                     "unknown --engine '%s' (expected percycle or "
                     "rungrain)\n",
                     name.c_str());
    return -1;
}

bool
fingerprintsMatch(const ResultInfo &a, const ResultInfo &b)
{
    return a.hash == b.hash && a.resultFp == b.resultFp &&
           a.functionalFp == b.functionalFp;
}

int
runOne(const Options &opt)
{
    DaemonClient client(opt.socket);
    WireSessionConfig wc = opt.wc;
    wc.upload = !opt.upload.empty();
    if (auto rej = client.configure(wc, opt.upload)) {
        std::fprintf(stderr, "faded_client: rejected (%s): %s\n",
                     reasonName(rej->reason), rej->message.c_str());
        return 1;
    }
    SessionOutcome o = client.run(opt.slowMs);
    client.close();
    if (!o.ok) {
        std::fprintf(stderr, "faded_client: session failed (%s): %s\n",
                     reasonName(o.error.reason),
                     o.error.message.c_str());
        return 1;
    }
    std::printf("session #%llu: hash %016llx, %llu instructions, "
                "%llu events, %llu cycles, %llu report(s)\n",
                (unsigned long long)o.result.completionSeq,
                (unsigned long long)o.result.hash,
                (unsigned long long)o.result.instructions,
                (unsigned long long)o.result.events,
                (unsigned long long)o.result.cycles,
                (unsigned long long)o.result.bugReports);
    std::printf("scheduling: %llu quanta, %zu progress frame(s)\n",
                (unsigned long long)o.result.quanta, o.progress.size());

    if (opt.check) {
        ResultInfo local = standaloneRun(wc, opt.upload);
        if (!fingerprintsMatch(o.result, local)) {
            std::printf("CHECK FAILED: daemon %016llx vs standalone "
                        "%016llx\n",
                        (unsigned long long)o.result.hash,
                        (unsigned long long)local.hash);
            return 1;
        }
        std::printf("check: daemon result bit-identical to "
                    "standalone run (hash %016llx)\n",
                    (unsigned long long)local.hash);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    // Defaults sized for quick smoke runs; override with --warm/--instr.
    opt.wc.warmup = 2000;
    opt.wc.measure = 10000;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--socket")) {
            opt.socket = next("--socket");
        } else if (!std::strcmp(argv[i], "--upload")) {
            opt.upload = next("--upload");
        } else if (!std::strcmp(argv[i], "--monitor")) {
            opt.wc.monitor = next("--monitor");
        } else if (!std::strcmp(argv[i], "--profile")) {
            opt.wc.profiles.push_back(next("--profile"));
        } else if (!std::strcmp(argv[i], "--shards")) {
            opt.wc.shards =
                unsigned(std::strtoul(next("--shards"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--clusters")) {
            opt.wc.clusters = unsigned(
                std::strtoul(next("--clusters"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--fades")) {
            opt.wc.fadesPerShard =
                unsigned(std::strtoul(next("--fades"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--policy")) {
            int v = wirePolicy(next("--policy"));
            if (v < 0)
                return usage();
            opt.wc.policy = std::uint8_t(v);
        } else if (!std::strcmp(argv[i], "--engine")) {
            int v = wireEngine(next("--engine"));
            if (v < 0)
                return usage();
            opt.wc.engine = std::uint8_t(v);
        } else if (!std::strcmp(argv[i], "--warm")) {
            opt.wc.warmup = std::strtoull(next("--warm"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--instr")) {
            opt.wc.measure =
                std::strtoull(next("--instr"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--seed-offset")) {
            opt.wc.seedOffset =
                std::strtoull(next("--seed-offset"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--check")) {
            opt.check = true;
        } else if (!std::strcmp(argv[i], "--slow-ms")) {
            opt.slowMs =
                int(std::strtol(next("--slow-ms"), nullptr, 10));
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return usage();
        }
    }
    if (opt.socket.empty())
        return usage();
    if (opt.wc.profiles.empty() && opt.upload.empty())
        opt.wc.profiles.push_back("bzip");
    if (!opt.upload.empty()) {
        // Upload sessions take shape and budget from the manifest.
        opt.wc.profiles.clear();
        opt.wc.warmup = 0;
        opt.wc.measure = 0;
        opt.wc.seedOffset = 0;
    }

    try {
        return runOne(opt);
    } catch (const ProtocolError &e) {
        std::fprintf(stderr, "faded_client: %s\n", e.what());
        return 1;
    }
}
