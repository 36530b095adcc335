#include "trace/profile.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fade
{

namespace
{

/** Hash a name into a stable per-benchmark seed. */
std::uint64_t
seedOf(const std::string &name)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : name) {
        h ^= std::uint64_t(std::uint8_t(c));
        h *= 1099511628211ULL;
    }
    return h | 1;
}

bool
listed(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

const std::vector<std::string> &
specBenchmarks()
{
    static const std::vector<std::string> v = {
        "astar", "bzip", "gcc", "gobmk", "hmmer", "libquantum", "mcf",
        "omnetpp",
    };
    return v;
}

const std::vector<std::string> &
taintBenchmarks()
{
    // The paper uses the benchmarks with tainting propagation.
    static const std::vector<std::string> v = {
        "astar", "bzip", "mcf", "omnetpp",
    };
    return v;
}

const std::vector<std::string> &
parallelBenchmarks()
{
    static const std::vector<std::string> v = {
        "water", "ocean", "blackscholes", "streamcluster",
        "fluidanimate",
    };
    return v;
}

std::vector<BenchProfile>
multiprogramWorkloads(const std::string &anchor)
{
    std::vector<BenchProfile> v;
    v.push_back(specProfile(anchor));
    for (const std::string &b : specBenchmarks())
        if (b != anchor)
            v.push_back(specProfile(b));
    return v;
}

BenchProfile
specProfile(const std::string &name)
{
    BenchProfile p;
    p.name = name;
    p.seed = seedOf(name);

    // Baseline mixes: the low phase is control/FP heavy with a light
    // monitored footprint; the high phase is the pointer/data loop
    // kernel that dominates the monitored event stream.
    p.lowMix = InstMix{0.14, 0.06, 0.28, 0.02, 0.10, 0.16, 0.01};
    p.highMix = InstMix{0.24, 0.12, 0.40, 0.02, 0.02, 0.10, 0.01};

    if (name == "astar") {
        // Path-finding: pointer-chasing over grid nodes, frequent
        // calls; low filtering ratio for MemLeak (paper: ~70%).
        p.highPhaseFrac = 0.55;
        p.highMix = InstMix{0.26, 0.10, 0.38, 0.01, 0.03, 0.11, 0.01};
        p.heapWsLog2 = 22;
        p.seqFrac = 0.35;
        p.ilpWindow = 5;
        p.mispredictRate = 0.06;
        p.callRate = 0.008;
        p.spillSlots = 2;
        p.ptrOpFrac = 0.085;
        p.mallocRate = 0.0005;
        p.taintSourceRate = 0.00005;
        p.taintOpFrac = 0.085;
    } else if (name == "bzip") {
        // Compression: extremely regular, ILP-rich loops; monitored
        // IPC above 1.0 for MemLeak (paper: 1.2).
        p.highPhaseFrac = 0.92;
        p.highMix = InstMix{0.27, 0.15, 0.45, 0.01, 0.00, 0.07, 0.00};
        p.lowMix = InstMix{0.20, 0.10, 0.40, 0.02, 0.02, 0.12, 0.01};
        p.heapWsLog2 = 19;
        p.seqFrac = 0.90;
        p.ilpWindow = 10;
        p.mispredictRate = 0.012;
        p.callRate = 0.002;
        p.spillSlots = 2;
        p.ptrOpFrac = 0.015;
        p.mallocRate = 0.0001;
        p.allocWordsMin = 256;
        p.allocWordsMax = 2048;
        p.taintSourceRate = 0.00004;
        p.taintOpFrac = 0.075;
    } else if (name == "gcc") {
        // Compiler: call-heavy, allocation-heavy, irregular control;
        // low MemLeak filtering ratio (paper: ~70%) and sensitivity to
        // call/return drains.
        p.highPhaseFrac = 0.55;
        p.heapWsLog2 = 22;
        p.seqFrac = 0.45;
        p.ilpWindow = 6;
        p.mispredictRate = 0.055;
        p.callRate = 0.011;
        p.spillSlots = 2;
        p.frameWordsMax = 64;
        p.ptrOpFrac = 0.09;
        p.mallocRate = 0.0009;
        p.allocWordsMin = 8;
        p.allocWordsMax = 96;
        p.initStoreFrac = 0.5;
    } else if (name == "gobmk") {
        // Go engine: branchy search with moderate pointer use.
        p.highPhaseFrac = 0.6;
        p.heapWsLog2 = 20;
        p.seqFrac = 0.5;
        p.ilpWindow = 5;
        p.mispredictRate = 0.075;
        p.callRate = 0.009;
        p.spillSlots = 3;
        p.ptrOpFrac = 0.02;
        p.mallocRate = 0.0004;
        p.phaseLenMean = 6000;
    } else if (name == "hmmer") {
        // HMM search: regular dynamic-programming inner loops.
        p.highPhaseFrac = 0.85;
        p.highMix = InstMix{0.28, 0.13, 0.42, 0.02, 0.01, 0.08, 0.00};
        p.heapWsLog2 = 19;
        p.seqFrac = 0.85;
        p.ilpWindow = 9;
        p.mispredictRate = 0.015;
        p.callRate = 0.003;
        p.spillSlots = 2;
        p.ptrOpFrac = 0.012;
        p.mallocRate = 0.0002;
    } else if (name == "libquantum") {
        // Quantum simulation: streaming over a large amplitude array.
        p.highPhaseFrac = 0.8;
        p.highMix = InstMix{0.25, 0.09, 0.41, 0.02, 0.04, 0.10, 0.00};
        p.heapWsLog2 = 23;
        p.seqFrac = 0.95;
        p.ilpWindow = 8;
        p.mispredictRate = 0.02;
        p.callRate = 0.004;
        p.spillSlots = 2;
        p.ptrOpFrac = 0.012;
        p.mallocRate = 0.0001;
        p.allocWordsMin = 1024;
        p.allocWordsMax = 4096;
    } else if (name == "mcf") {
        // Network simplex: huge working set, pointer chasing, memory
        // bound; lowest monitored IPC (paper: ~0.2 for MemLeak).
        p.highPhaseFrac = 0.5;
        p.highMix = InstMix{0.30, 0.08, 0.30, 0.01, 0.02, 0.12, 0.01};
        p.heapWsLog2 = 26;
        p.seqFrac = 0.12;
        p.hotFrac = 0.25;
        p.hotWsLog2 = 16;
        p.ilpWindow = 3;
        p.mispredictRate = 0.07;
        p.callRate = 0.004;
        p.spillSlots = 2;
        p.ptrOpFrac = 0.026;
        p.mallocRate = 0.0002;
        p.allocWordsMin = 64;
        p.allocWordsMax = 512;
        p.taintSourceRate = 0.00003;
        p.taintOpFrac = 0.085;
    } else if (name == "omnetpp") {
        // Discrete-event simulation: sustained allocation/message
        // traffic, long propagation-heavy phases (the paper's deepest
        // event-queue bursts: up to 8K entries).
        p.highPhaseFrac = 0.75;
        p.highMix = InstMix{0.26, 0.13, 0.42, 0.01, 0.01, 0.09, 0.01};
        p.phaseLenMean = 12000;
        p.heapWsLog2 = 22;
        p.seqFrac = 0.5;
        p.ilpWindow = 7;
        p.mispredictRate = 0.03;
        p.callRate = 0.006;
        p.spillSlots = 2;
        p.ptrOpFrac = 0.03;
        p.mallocRate = 0.0010;
        p.allocWordsMin = 16;
        p.allocWordsMax = 128;
        p.initStoreFrac = 0.35;
        p.freeFrac = 0.95;
        p.allocLifetimeMean = 30000;
        p.taintSourceRate = 0.00005;
        p.taintOpFrac = 0.085;
    } else {
        fatal("unknown SPEC benchmark profile: ", name);
    }
    return p;
}

BenchProfile
parallelProfile(const std::string &name)
{
    BenchProfile p;
    p.name = name;
    p.seed = seedOf(name);
    p.numThreads = 4;
    p.switchQuantum = 8000;
    p.lowMix = InstMix{0.11, 0.05, 0.28, 0.02, 0.16, 0.16, 0.01};
    p.highMix = InstMix{0.15, 0.08, 0.34, 0.02, 0.12, 0.13, 0.01};
    p.ilpWindow = 3;
    p.mispredictRate = 0.085;
    p.memStackFrac = 0.20;
    p.memHeapFrac = 0.40;
    p.memGlobalFrac = 0.40;
    p.callRate = 0.006;
    p.mallocRate = 0.0002;
    p.ptrOpFrac = 0.012;
    // Per-thread hot sets are small: most accesses re-touch data the
    // thread recently used (keeps AtomCheck's same-thread check hot).
    p.globalWsLog2 = 14;
    p.seqFrac = 0.85;

    if (name == "water") {
        // Molecular dynamics: mostly private data, light sharing.
        p.sharedFrac = 0.14;
        p.remoteConflictFrac = 0.28;
        p.heapWsLog2 = 19;
        p.seqFrac = 0.7;
    } else if (name == "ocean") {
        // Grid solver: large shared grids, boundary sharing.
        p.sharedFrac = 0.26;
        p.remoteConflictFrac = 0.26;
        p.heapWsLog2 = 23;
        p.seqFrac = 0.85;
    } else if (name == "blackscholes") {
        // Embarrassingly parallel options pricing: minimal sharing.
        p.sharedFrac = 0.05;
        p.remoteConflictFrac = 0.20;
        p.heapWsLog2 = 20;
        p.seqFrac = 0.9;
        p.ilpWindow = 4;
        p.mispredictRate = 0.05;
    } else if (name == "streamcluster") {
        // Clustering: shared centroid tables, frequent conflicts.
        p.sharedFrac = 0.30;
        p.remoteConflictFrac = 0.28;
        p.heapWsLog2 = 21;
        p.seqFrac = 0.6;
    } else if (name == "fluidanimate") {
        // Particle simulation: neighbour-cell sharing.
        p.sharedFrac = 0.20;
        p.remoteConflictFrac = 0.26;
        p.heapWsLog2 = 22;
        p.seqFrac = 0.55;
        p.mispredictRate = 0.04;
    } else {
        fatal("unknown parallel benchmark profile: ", name);
    }
    return p;
}

BenchProfile
threadedProfile(const std::string &base, unsigned threads)
{
    // Start from the parallel benchmark's character (sharing level,
    // working sets), then switch the generator into process mode: the
    // sync/shared-access plan is derived from the seed alone, so every
    // shard hosting threads of this process rebuilds the same plan.
    BenchProfile p = parallelProfile(base);
    p.name = base + "-mt";
    p.seed = seedOf(p.name);
    p.procThreads = threads;
    p.numThreads = threads;
    p.switchQuantum = 64;
    if (base == "ocean" || base == "streamcluster") {
        // Heavier sharing: more critical sections over more locks.
        p.procLocks = 6;
        p.procSections = 72;
    }
    return p;
}

std::optional<BenchProfile>
lookupProfile(const std::string &monitor, const std::string &name)
{
    const std::size_t n = name.size();
    if (n > 3 && name.compare(n - 3, 3, "-mt") == 0) {
        if (listed(parallelBenchmarks(), name.substr(0, n - 3)))
            return threadedProfile(name.substr(0, n - 3));
    } else if (monitor == "AtomCheck") {
        if (listed(parallelBenchmarks(), name))
            return parallelProfile(name);
    } else if (listed(specBenchmarks(), name)) {
        return specProfile(name);
    }
    return std::nullopt;
}

} // namespace fade
