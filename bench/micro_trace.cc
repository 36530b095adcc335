/**
 * @file
 * Functional-layer microbenchmarks: the trace generator's ns/instr (the
 * floor under both execution engines), the flat-container operation
 * rates (AddrSet / AddrMap vs std::unordered_set, WordSet range
 * erases), and the page-span shadow fill rate. Every measurement is
 * paired with a hard bit-equality check — generator stream determinism
 * across two independent instances, AddrSet/WordSet differential
 * equality against std::unordered_set under a randomized op mix — and
 * the binary exits nonzero on any mismatch. CI runs `--smoke` for the
 * checks alone; perf numbers are tracked through the emitted JSON lines
 * (docs/BENCHMARKS.md) with no perf gate.
 *
 * Every reported rate is the median of --reps timed repetitions, after
 * one discarded host-warmup repetition (reps > 1), so baseline JSON
 * lines stay stable on noisy shared hosts.
 *
 * Usage: micro_trace [--smoke] [--profile NAME] [--instr N] [--reps N]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "isa/event.hh"
#include "monitor/addrcheck.hh"
#include "sim/flatset.hh"
#include "sim/queue.hh"
#include "sim/random.hh"
#include "sim/wordset.hh"
#include "mem/shadow.hh"
#include "system/producer.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

using namespace fade;

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

unsigned gReps = 3;

/** Median of gReps timed runs of @p fn (seconds), after one discarded
 *  warmup run when more than one rep is requested. */
template <typename Fn>
double
medianSeconds(Fn fn)
{
    std::vector<double> walls;
    unsigned total = gReps > 1 ? gReps + 1 : gReps;
    for (unsigned rep = 0; rep < total; ++rep) {
        double t0 = now();
        fn();
        double w = now() - t0;
        if (gReps > 1 && rep == 0)
            continue;
        walls.push_back(w);
    }
    std::sort(walls.begin(), walls.end());
    return walls[(walls.size() - 1) / 2];
}

/** Order-independent fingerprint of one generated instruction. */
std::uint64_t
instHash(const Instruction &i)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(std::uint64_t(i.cls));
    mix(i.pc);
    mix(i.memAddr);
    mix(i.src1 | (std::uint64_t(i.src2) << 8) |
        (std::uint64_t(i.dst) << 16) | (std::uint64_t(i.numSrc) << 24));
    mix(i.frameBase);
    mix(i.frameBytes);
    mix(std::uint64_t(i.hasDst) | (std::uint64_t(i.mispredict) << 1) |
        (std::uint64_t(i.mayPropagate) << 2) |
        (std::uint64_t(i.hlKind) << 8) | (std::uint64_t(i.tid) << 16));
    return h;
}

/** Generator throughput + stream determinism + oracle key alignment. */
bool
generatorMicro(const std::string &profile, std::uint64_t n)
{
    TraceGenerator a(specProfile(profile));
    TraceGenerator b(specProfile(profile));

    std::uint64_t hashA = 0;
    for (std::uint64_t k = 0; k < n; ++k)
        hashA += instHash(a.fetch());

    // Timed reps use fresh instances so every rep generates the same
    // stream from the same startup state.
    std::uint64_t sink = 0;
    double perInstr = medianSeconds([&] {
        TraceGenerator g(specProfile(profile));
        for (std::uint64_t k = 0; k < n; ++k)
            sink += instHash(g.fetch());
    }) / double(n) * 1e9;

    std::uint64_t hashB = 0;
    for (std::uint64_t k = 0; k < n; ++k)
        hashB += instHash(b.fetch());

    // Every timed rep must have reproduced the reference stream too.
    unsigned timedReps = gReps > 1 ? gReps + 1 : gReps;
    bool ok = hashA == hashB && sink == hashA * timedReps;
    if (!ok)
        std::printf("GENERATOR DIVERGED: two identically-seeded "
                    "instances produced different streams\n");

    // Canonical word alignment of the ground-truth mirrors.
    std::uint64_t misaligned = 0;
    a.ptrWords().forEach([&](Addr w) { misaligned += w & 3; });
    a.taintWords().forEach([&](Addr w) { misaligned += w & 3; });
    if (misaligned) {
        std::printf("MISALIGNED mirror keys detected\n");
        ok = false;
    }

    std::printf("generator (%s): %.1f ns/instr over %llu instructions "
                "(streams bit-identical: %s)\n",
                profile.c_str(), perInstr, (unsigned long long)n,
                ok ? "yes" : "NO");
    std::printf("{\"bench\":\"micro_trace\",\"what\":\"generator\","
                "\"profile\":\"%s\",\"instructions\":%llu,"
                "\"ns_per_instr\":%.1f}\n",
                profile.c_str(), (unsigned long long)n, perInstr);
    return ok;
}

/** Order-independent fingerprint of one extracted event. */
std::uint64_t
eventHash(const MonEvent &e)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(std::uint64_t(e.kind) | (std::uint64_t(e.eventId) << 8) |
        (std::uint64_t(e.numSrc) << 16) | (std::uint64_t(e.hasDst) << 24));
    mix(e.appAddr);
    mix(e.appPc);
    mix(e.src1 | (std::uint64_t(e.src2) << 8) |
        (std::uint64_t(e.dst) << 16));
    mix(e.len | (std::uint64_t(e.tid) << 32) |
        (std::uint64_t(e.shard) << 48));
    return h;
}

/**
 * Span fast path: batch synthesis (stageRun + fetchSpan) proven
 * draw-for-draw identical to on-demand fetch(), then the per-stage
 * ns/instr decomposition of the run-grain functional pipeline —
 * synthesis, monitor dispatch (Monitor::monitoredSpan), and bulk event
 * extraction (EventProducer::commitSpan) — each timed over the same
 * staged spans (BENCH_pr9.json holds a historical capture).
 */
bool
spanMicro(const std::string &profile, std::uint64_t n)
{
    constexpr std::size_t kSpan = 64;

    // Differential: batch-synthesized stream == on-demand stream.
    TraceGenerator onDemand(specProfile(profile));
    std::uint64_t hashDemand = 0;
    for (std::uint64_t k = 0; k < n; ++k)
        hashDemand += instHash(onDemand.fetch());

    std::uint64_t hashBatch = 0;
    {
        TraceGenerator g(specProfile(profile));
        std::uint64_t left = n;
        while (left) {
            std::size_t want = std::size_t(std::min<std::uint64_t>(
                kSpan, left));
            g.stageRun(want);
            InstSpan s = g.fetchSpan(want);
            for (const Instruction &i : s)
                hashBatch += instHash(i);
            left -= s.count;
        }
    }
    bool ok = hashDemand == hashBatch;
    if (!ok)
        std::printf("SPAN PATH DIVERGED: batch synthesis != on-demand\n");

    // Stage 1: batch synthesis rate.
    std::uint64_t sink = 0;
    double synthNs = medianSeconds([&] {
        TraceGenerator g(specProfile(profile));
        std::uint64_t left = n;
        while (left) {
            std::size_t want = std::size_t(std::min<std::uint64_t>(
                kSpan, left));
            g.stageRun(want);
            InstSpan s = g.fetchSpan(want);
            sink += s.count;
            left -= s.count;
        }
    }) / double(n) * 1e9;

    // A reusable staged window for the downstream stages: synthesize
    // once, then time dispatch/extraction over the same instructions.
    std::vector<Instruction> window;
    window.reserve(1 << 16);
    {
        TraceGenerator g(specProfile(profile));
        while (window.size() < (1 << 16))
            window.push_back(g.fetch());
    }
    AddrCheck mon;
    std::vector<std::uint8_t> verdicts(window.size());

    // Stage 2: monitor dispatch (batched verdicts).
    std::uint64_t monHits = 0;
    double monNs = medianSeconds([&] {
        std::uint64_t done = 0;
        while (done < n) {
            for (std::size_t at = 0; at < window.size() && done < n;
                 at += kSpan, done += kSpan)
                mon.monitoredSpan(window.data() + at, kSpan,
                                  verdicts.data() + at);
        }
        monHits = 0;
        for (std::uint8_t v : verdicts)
            monHits += v;
    }) / double(n) * 1e9;

    // Stage 3: bulk event extraction over the verdict-carrying spans.
    // The producer needs a bound queue only as an enable flag —
    // commitSpan writes into the caller's flat buffer.
    BoundedQueue<MonEvent> eq(16);
    MonEvent spanEvents[kSpan];
    std::uint64_t evBatch = 0, evHashBatch = 0;
    double extractNs = medianSeconds([&] {
        EventProducer prod(&mon, &eq, nullptr);
        evBatch = 0;
        evHashBatch = 0;
        std::uint64_t done = 0;
        while (done < n) {
            for (std::size_t at = 0; at < window.size() && done < n;
                 at += kSpan, done += kSpan) {
                std::size_t ev = prod.commitSpan(
                    window.data() + at, verdicts.data() + at, kSpan,
                    spanEvents);
                evBatch += ev;
                for (std::size_t e = 0; e < ev; ++e)
                    evHashBatch += eventHash(spanEvents[e]);
            }
        }
    }) / double(n) * 1e9;

    // Differential: bulk extraction == one-at-a-time commitDecided
    // over the same window (events popped from the bound queue).
    {
        BoundedQueue<MonEvent> one(1);
        EventProducer ref(&mon, &one, nullptr);
        std::uint64_t evRef = 0, evHashRef = 0;
        std::uint64_t done = 0;
        while (done < n) {
            for (std::size_t at = 0; at < window.size() && done < n;
                 ++at, ++done) {
                ref.commitDecided(window[at], verdicts[at] != 0);
                if (!one.empty()) {
                    ++evRef;
                    evHashRef += eventHash(one.front());
                    one.pop();
                }
            }
        }
        if (evRef != evBatch || evHashRef != evHashBatch) {
            std::printf("SPAN EXTRACTION DIVERGED: commitSpan != "
                        "commitDecided\n");
            ok = false;
        }
    }

    std::printf("span pipeline (%s, %zu-instr spans): synthesis %.1f + "
                "monitor dispatch %.1f + extraction %.1f ns/instr "
                "(%llu events; batch == on-demand: %s)\n",
                profile.c_str(), kSpan, synthNs, monNs, extractNs,
                (unsigned long long)evBatch, ok ? "yes" : "NO");
    std::printf("{\"bench\":\"micro_trace\",\"what\":\"span_pipeline\","
                "\"profile\":\"%s\",\"span\":%zu,\"instructions\":%llu,"
                "\"synthesis_ns_per_instr\":%.1f,"
                "\"monitor_dispatch_ns_per_instr\":%.1f,"
                "\"extraction_ns_per_instr\":%.1f}\n",
                profile.c_str(), kSpan, (unsigned long long)n, synthNs,
                monNs, extractNs);
    return ok && sink != 0 && monHits != 0;
}

/** Randomized differential check + op-rate micro for AddrSet. */
bool
setMicro(std::uint64_t ops)
{
    Rng rng(0x1234);
    AddrSet flat;
    std::unordered_set<Addr> ref;
    bool ok = true;

    // Differential phase: random insert/erase/count over a small key
    // space (forces collisions, backward-shift chains, and growth).
    for (std::uint64_t k = 0; k < ops / 4; ++k) {
        Addr key = Addr(rng.range(8192)) * wordSize;
        switch (rng.range(3)) {
          case 0:
            ok &= flat.insert(key) == ref.insert(key).second;
            break;
          case 1:
            ok &= flat.erase(key) == (ref.erase(key) != 0);
            break;
          default:
            ok &= flat.count(key) == ref.count(key);
            break;
        }
        if (!ok)
            break;
        ok &= flat.size() == ref.size();
    }
    if (!ok) {
        std::printf("ADDRSET DIVERGED from std::unordered_set\n");
        return false;
    }

    // Rate phase: the generator-shaped mix (insert+erase+2 lookups).
    // Fresh containers per rep so every rep runs the identical op mix.
    auto run = [&](auto &set) {
        Rng r(0x5678);
        std::uint64_t hits = 0;
        for (std::uint64_t k = 0; k < ops; ++k) {
            Addr key = Addr(r.range(1u << 16)) * wordSize;
            set.insert(key);
            hits += set.count(key ^ 0x40);
            set.erase(key ^ 0x80);
            hits += set.count(key);
        }
        return hits;
    };
    std::uint64_t flatHits = 0, refHits = 0;
    double flatS = medianSeconds([&] {
        AddrSet flat2;
        flatHits = run(flat2);
    });
    double refS = medianSeconds([&] {
        std::unordered_set<Addr> ref2;
        refHits = run(ref2);
    });
    if (flatHits != refHits) {
        std::printf("ADDRSET DIVERGED in rate phase\n");
        return false;
    }
    std::printf("set ops (insert+2 lookups+erase): AddrSet %.1f M/s, "
                "std::unordered_set %.1f M/s (%.2fx)\n",
                ops / flatS / 1e6, ops / refS / 1e6, refS / flatS);
    std::printf("{\"bench\":\"micro_trace\",\"what\":\"addrset\","
                "\"ops\":%llu,\"flat_Mops\":%.1f,\"std_Mops\":%.1f}\n",
                (unsigned long long)ops, ops / flatS / 1e6,
                ops / refS / 1e6);
    return true;
}

/** WordSet differential (incl. range erase) + range-erase rate. */
bool
wordSetMicro(std::uint64_t ops)
{
    Rng rng(0x9abc);
    WordSet ws;
    std::unordered_set<Addr> ref;
    bool ok = true;
    for (std::uint64_t k = 0; k < ops / 8; ++k) {
        Addr key = heapBase + Addr(rng.range(1u << 15)) * wordSize;
        switch (rng.range(4)) {
          case 0:
            ws.insert(key);
            ref.insert(key);
            break;
          case 1:
            ws.erase(key);
            ref.erase(key);
            break;
          case 2: {
            Addr lo = heapBase + Addr(rng.range(1u << 15)) * wordSize;
            std::uint64_t len = (1 + rng.range(512)) * wordSize;
            ws.eraseRange(lo, lo + len);
            for (Addr a = lo; a < lo + len; a += wordSize)
                ref.erase(a);
            break;
          }
          default:
            ok &= ws.count(key) == ref.count(key);
            break;
        }
        ok &= ws.size() == ref.size();
        if (!ok)
            break;
    }
    if (ok) {
        // Full-content equality both directions.
        std::size_t seen = 0;
        ws.forEach([&](Addr a) { seen += ref.count(a); });
        ok = seen == ref.size() && ws.size() == ref.size();
    }
    if (!ok) {
        std::printf("WORDSET DIVERGED from std::unordered_set\n");
        return false;
    }

    // Range-erase rate: the free/return pattern.
    std::uint64_t words = 0;
    double s = medianSeconds([&] {
        WordSet w2;
        words = 0;
        for (std::uint64_t k = 0; k < ops / 64; ++k) {
            Addr base = heapBase + (k % 1024) * 0x1000;
            for (unsigned i = 0; i < 16; ++i)
                w2.insert(base + i * 64);
            w2.eraseRange(base, base + 0x1000);
            words += 0x1000 / wordSize;
        }
    });
    std::printf("wordset range-erase: %.0f M words/s\n",
                words / s / 1e6);
    std::printf("{\"bench\":\"micro_trace\",\"what\":\"wordset_erase\","
                "\"Mwords_s\":%.0f}\n", words / s / 1e6);
    return true;
}

/** Page-span shadow fill rate (the SUU / malloc-handler pattern). */
void
shadowMicro(std::uint64_t ops)
{
    std::uint64_t bytes = 0;
    std::size_t pages = 0;
    double s = medianSeconds([&] {
        ShadowMemory sh(0xff);
        bytes = 0;
        for (std::uint64_t k = 0; k < ops / 16; ++k) {
            Addr app = heapBase + (k % 4096) * 0x800;
            sh.fillApp(app, 0x800, std::uint8_t(k));
            bytes += 0x800 / wordSize;
        }
        pages = sh.mappedPages();
    });
    std::printf("shadow fillApp: %.0f M md-bytes/s (%zu pages mapped)\n",
                bytes / s / 1e6, pages);
    std::printf("{\"bench\":\"micro_trace\",\"what\":\"shadow_fill\","
                "\"Mbytes_s\":%.0f}\n", bytes / s / 1e6);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string profile = "astar";
    std::uint64_t instr = 4000000;
    std::uint64_t ops = 2000000;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", what);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--smoke")) {
            instr = 200000;
            ops = 200000;
            gReps = 1;
        } else if (!std::strcmp(argv[i], "--profile")) {
            profile = next("--profile");
        } else if (!std::strcmp(argv[i], "--instr")) {
            instr = std::strtoull(next("--instr"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--reps")) {
            gReps = unsigned(std::strtoul(next("--reps"), nullptr, 10));
            if (!gReps)
                gReps = 1;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }

    std::printf("=== micro_trace: functional-layer microbenchmarks "
                "===\n");
    bool ok = generatorMicro(profile, instr);
    ok &= spanMicro(profile, instr);
    ok &= setMicro(ops);
    ok &= wordSetMicro(ops);
    shadowMicro(ops);
    if (!ok) {
        std::printf("BIT-EQUALITY CHECKS FAILED\n");
        return 1;
    }
    return 0;
}
