/**
 * @file
 * Benchmark profiles for the synthetic workload generator. Each profile
 * captures the monitoring-relevant behaviour of one benchmark from the
 * paper's suite (SPEC2006-int for the single-threaded monitors,
 * SPLASH-2/PARSEC for AtomCheck): instruction mix, ILP and branch
 * behaviour, working-set/locality, function call and stack-frame
 * statistics, allocation lifetimes, pointer and taint densities, and
 * (for parallel workloads) sharing behaviour.
 *
 * Profiles are calibrated against the per-benchmark numbers the paper
 * reports (e.g., MemLeak monitored IPC: bzip 1.2, mcf 0.2, average
 * 0.68; AddrCheck average 0.24) so that event rates, filtering ratios,
 * and queue dynamics reproduce the paper's shapes.
 */

#ifndef FADE_TRACE_PROFILE_HH
#define FADE_TRACE_PROFILE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fade
{

/** Instruction-class mix (fractions; the remainder becomes Nop). */
struct InstMix
{
    double load = 0.20;
    double store = 0.10;
    double alu = 0.35;
    double mul = 0.02;
    double fp = 0.05;
    double branch = 0.12;
    double jumpInd = 0.01;
};

/** Full workload profile for one benchmark. */
struct BenchProfile
{
    std::string name = "generic";

    /** Phase behaviour: the generator alternates low/high phases. */
    InstMix lowMix;
    InstMix highMix;
    double highPhaseFrac = 0.5;
    unsigned phaseLenMean = 2000;

    /** Fraction of ALU ops with an immediate (single source). */
    double aluImmFrac = 0.4;
    double mispredictRate = 0.05;
    /** Register reuse distance; larger = more ILP. */
    unsigned ilpWindow = 6;

    /** Memory reference region weights (normalized internally). */
    double memStackFrac = 0.25;
    double memHeapFrac = 0.45;
    double memGlobalFrac = 0.30;
    /** Heap / global working set sizes (log2 bytes). */
    unsigned heapWsLog2 = 20;
    unsigned globalWsLog2 = 18;
    /** Sequential (strided) vs random addressing within a region. */
    double seqFrac = 0.6;
    /** Random accesses: fraction targeting the hot subset of a region
     *  (skewed/Zipf-like reuse). */
    double hotFrac = 0.85;
    /** Hot-subset size (log2 bytes). */
    unsigned hotWsLog2 = 14;

    /** Function calls per instruction. */
    double callRate = 0.008;
    unsigned frameWordsMin = 8;
    unsigned frameWordsMax = 48;
    /** Stores into fresh frame slots right after a call. */
    unsigned spillSlots = 3;
    /** Fraction of stack stores that touch a previously unused slot. */
    double freshSlotFrac = 0.05;
    /** Target call-stack depth (random walk is biased toward it). */
    unsigned targetDepth = 12;

    /** Heap allocations per instruction. */
    double mallocRate = 0.0006;
    unsigned allocWordsMin = 16;
    unsigned allocWordsMax = 256;
    /** Probability an allocation is eventually freed. */
    double freeFrac = 0.85;
    /** Mean instructions between a malloc and its free. */
    unsigned allocLifetimeMean = 20000;
    /** Fraction of a fresh allocation initialized immediately. */
    double initStoreFrac = 0.5;

    /** Fraction of monitored ops that manipulate pointer values. */
    double ptrOpFrac = 0.10;
    /** Fraction of integer ALU ops that can propagate a value (the
     *  rest are comparisons/flag ops the monitors eliminate). */
    double propAluFrac = 0.55;
    /** Fraction of allocations that hold pointers (node pools). */
    double ptrAllocFrac = 0.15;

    /** Taint-source events per instruction (TaintCheck workloads). */
    double taintSourceRate = 0.0;
    unsigned taintBufWords = 64;
    /** Fraction of ops that touch tainted data while taint is live. */
    double taintOpFrac = 0.0;

    /** Multithreading (AtomCheck workloads). */
    unsigned numThreads = 1;
    unsigned switchQuantum = 0;
    /** Fraction of non-stack refs going to the shared region. */
    double sharedFrac = 0.0;
    /** Of shared refs: chance to touch a word another thread owns. */
    double remoteConflictFrac = 0.0;

    /**
     * Multi-threaded process mode (trace/threads.hh): total threads of
     * ONE process spread across the shards of a multi-core system.
     * 0 keeps the classic per-shard single-process generator. When
     * set, the generator emits synchronization pseudo-ops
     * (lock/thread lifecycle) and shared-heap accesses from a
     * deterministic plan derived from the seed alone, so every shard
     * of the process sees the same global schedule regardless of how
     * threads are placed.
     */
    unsigned procThreads = 0;
    /** Locks guarding the shared heap (plan construction). */
    unsigned procLocks = 4;
    /** Planned critical sections across all threads. */
    unsigned procSections = 48;
    /** Deterministically injected unsynchronized access pairs. */
    unsigned injectRaces = 0;
    /** Deterministically injected cross-thread taint flows. */
    unsigned injectTaintFlows = 0;
    /** Placement (assigned by MultiCoreSystem): this shard's index and
     *  the process's shard count. Thread t runs on shard
     *  t % procShards. */
    unsigned procShardId = 0;
    unsigned procShards = 1;

    std::uint64_t seed = 1;
};

/** Profile for one of the eight SPEC2006-int benchmarks modelled. */
BenchProfile specProfile(const std::string &name);

/** Profile for one of the five parallel benchmarks modelled. */
BenchProfile parallelProfile(const std::string &name);

/**
 * Multi-threaded process profile ("<base>-mt"): @p base is one of the
 * parallel benchmarks; the result runs @p threads threads of one
 * process across the shards of a multi-core system (RaceCheck /
 * SharedTaint workloads, trace/threads.hh).
 */
BenchProfile threadedProfile(const std::string &base,
                             unsigned threads = 4);

/**
 * The profile @p name selects under @p monitor, or empty if none:
 * "<base>-mt" is threadedProfile(<base>), any other name a parallel
 * benchmark under AtomCheck and a SPEC benchmark otherwise.
 */
std::optional<BenchProfile> lookupProfile(const std::string &monitor,
                                          const std::string &name);

/** Names of the modelled SPEC2006-int benchmarks. */
const std::vector<std::string> &specBenchmarks();

/** Benchmarks with taint propagation (used for TaintCheck, Sec. 6). */
const std::vector<std::string> &taintBenchmarks();

/** Names of the modelled parallel benchmarks (AtomCheck, Sec. 6). */
const std::vector<std::string> &parallelBenchmarks();

/**
 * Multiprogrammed workload for a sharded multi-core system: the first
 * profile is @p anchor (so the N=1 sharded system reproduces the
 * single-core run of that benchmark exactly), followed by the remaining
 * SPEC benchmarks in suite order.
 */
std::vector<BenchProfile> multiprogramWorkloads(const std::string &anchor);

} // namespace fade

#endif // FADE_TRACE_PROFILE_HH
