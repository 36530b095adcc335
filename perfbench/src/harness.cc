/**
 * @file
 * perfbench_harness — the measuring half of the repository benchmark
 * (perfbench/README.md). run.py builds it and calls it twice per run:
 *
 *   perfbench_harness gen --workload W --seed N --dir D [--smoke]
 *       Generate W's inputs from the seed into D (captured traces).
 *       Kept in its own process so input generation never counts in
 *       the measured process's time or peak memory.
 *
 *   perfbench_harness run --workload W --seed N --seconds S --dir D
 *                        --out FILE [--trace 0|1] [--spans FILE]
 *                        [--faded PATH] [--smoke] [--probe]
 *       Run W for about S seconds, check every output, and write the
 *       raw samples, counts and failures to FILE as JSON. With
 *       --trace 1 it also records spans and the per-layer probes.
 *
 * Exit status: 0 when the run completed (failed checks are reported in
 * FILE, not through the status), 2 on bad usage, 1 on a fatal error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness gen --workload W --seed N "
                 "--dir D [--smoke]\n"
                 "       perfbench_harness run --workload W --seed N "
                 "--seconds S --dir D --out FILE\n"
                 "                        [--trace 0|1] [--spans FILE] "
                 "[--faded PATH] [--smoke] [--probe]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    RunArgs a;
    std::string out, spans;
    for (int i = 2; i < argc; ++i) {
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload"))
            a.workload = next("--workload");
        else if (!std::strcmp(argv[i], "--seed"))
            a.seed = std::strtoull(next("--seed"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--seconds"))
            a.seconds = std::strtod(next("--seconds"), nullptr);
        else if (!std::strcmp(argv[i], "--trace"))
            a.trace = std::strcmp(next("--trace"), "0") != 0;
        else if (!std::strcmp(argv[i], "--dir"))
            a.dir = next("--dir");
        else if (!std::strcmp(argv[i], "--faded"))
            a.faded = next("--faded");
        else if (!std::strcmp(argv[i], "--out"))
            out = next("--out");
        else if (!std::strcmp(argv[i], "--spans"))
            spans = next("--spans");
        else if (!std::strcmp(argv[i], "--smoke"))
            a.smoke = true;
        else if (!std::strcmp(argv[i], "--probe"))
            a.probe = true;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return usage();
        }
    }
    if (a.dir.empty() || a.workload.empty())
        return usage();

    try {
        if (mode == "gen") {
            if (a.workload == "paper_sweep")
                genPaperSweep(a);
            else if (a.workload == "replay_cmp4")
                genReplayCmp4(a);
            else if (a.workload == "daemon_mix")
                genDaemonMix(a);
            else
                return usage();
            return 0;
        }
        if (mode != "run" || out.empty())
            return usage();

        Outcome o(a.trace);
        for (int k = 0; k < 5; ++k)
            o.host.sample();
        if (a.workload == "paper_sweep")
            runPaperSweep(a, o);
        else if (a.workload == "replay_cmp4")
            runReplayCmp4(a, o);
        else if (a.workload == "daemon_mix")
            runDaemonMix(a, o);
        else
            return usage();

        std::FILE *f = std::fopen(out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", out.c_str());
            return 1;
        }
        std::string doc = o.json(a);
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        if (std::fclose(f) != 0)
            return 1;
        if (a.trace && !spans.empty())
            o.spans.write(spans);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
