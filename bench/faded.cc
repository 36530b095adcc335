/**
 * @file
 * faded — the monitoring daemon executable (src/daemon/). Listens on
 * a unix socket and serves monitoring sessions until SIGINT/SIGTERM,
 * then drains in-flight sessions and exits 0.
 *
 *   faded --socket PATH [--max-sessions N] [--upload-dir DIR]
 *
 * Drive it with bench/faded_client.cc (docs/BENCHMARKS.md).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "daemon/daemon.hh"

using namespace fade::daemon;

namespace
{

std::atomic<bool> stopRequested{false};

void
onSignal(int)
{
    stopRequested.store(true);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: faded --socket PATH [--max-sessions N] "
                 "[--upload-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    FadedConfig cfg;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--socket")) {
            cfg.socketPath = next("--socket");
        } else if (!std::strcmp(argv[i], "--max-sessions")) {
            cfg.maxSessions = unsigned(
                std::strtoul(next("--max-sessions"), nullptr, 10));
        } else if (!std::strcmp(argv[i], "--upload-dir")) {
            cfg.uploadDir = next("--upload-dir");
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return usage();
        }
    }
    if (cfg.socketPath.empty())
        return usage();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    try {
        Faded daemon(cfg);
        daemon.start();
        std::printf("faded: serving on %s (max %u sessions)\n",
                    cfg.socketPath.c_str(), cfg.maxSessions);
        std::fflush(stdout);
        while (!stopRequested.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        std::printf("faded: draining %u in-flight session(s)\n",
                    daemon.activeSessions());
        std::fflush(stdout);
        daemon.stop(true);
        std::printf("faded: clean shutdown\n");
        return 0;
    } catch (const ProtocolError &e) {
        std::fprintf(stderr, "faded: %s\n", e.what());
        return 1;
    }
}
