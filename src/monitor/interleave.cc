#include "monitor/interleave.hh"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

namespace fade
{

namespace
{

/** One schedule slot: thread and its per-thread op index. */
struct Slot
{
    unsigned tid;
    std::uint32_t idx;
};

/**
 * Merge the per-thread logs into the canonical schedule: repeatedly
 * sweep the threads, processing each thread's next op when it is ready
 * (program-order predecessor processed; an acquire waits for the
 * release of the previous acquisition of its lock; ops of a created
 * thread wait for the create; a join waits for the child's whole log).
 * The generator constructs the plan in one total order consistent with
 * all of these edges, so a sweep always makes progress until every
 * processable op is scheduled — no arrival-order input, hence the same
 * schedule on every shard of every topology.
 */
std::vector<Slot>
canonicalSchedule(const ProcessShared &ps)
{
    const unsigned T = ps.threads();
    std::vector<std::size_t> next(T, 0);
    std::vector<bool> started(T, false);

    // Threads nobody creates (the main thread; every thread when logs
    // are truncated before the spawn) run from the start.
    std::vector<bool> created(T, false);
    for (const auto &log : ps.logs)
        for (const ThreadOp &op : log)
            if (op.kind == ThreadOp::Kind::Create && op.aux < T)
                created[op.aux] = true;
    for (unsigned t = 0; t < T; ++t)
        started[t] = !created[t];

    std::unordered_map<Addr, std::uint32_t> nextAcq;
    std::vector<Slot> out;
    bool progress = true;
    while (progress) {
        progress = false;
        for (unsigned t = 0; t < T; ++t) {
            while (started[t] && next[t] < ps.logs[t].size()) {
                const ThreadOp &op = ps.logs[t][next[t]];
                if (op.kind == ThreadOp::Kind::Acquire) {
                    auto it = nextAcq.find(op.addr);
                    std::uint32_t cur =
                        it == nextAcq.end() ? 0 : it->second;
                    if (op.aux != cur)
                        break;
                } else if (op.kind == ThreadOp::Kind::Join) {
                    if (op.aux < T && next[op.aux] < ps.logs[op.aux].size())
                        break;
                }
                if (op.kind == ThreadOp::Kind::Release)
                    nextAcq[op.addr] = op.aux + 1;
                if (op.kind == ThreadOp::Kind::Create && op.aux < T)
                    started[op.aux] = true;
                out.push_back({t, std::uint32_t(next[t])});
                ++next[t];
                progress = true;
            }
        }
    }
    return out;
}

/** Placement-invariant report key: thread and per-thread op index. */
std::uint64_t
opSeq(unsigned tid, std::uint32_t idx)
{
    return (std::uint64_t(tid) << 32) | idx;
}

std::string
opLabel(unsigned tid, std::uint32_t idx)
{
    return "t" + std::to_string(tid) + "#" + std::to_string(idx);
}

using VectorClock = std::vector<std::uint32_t>;

void
joinInto(VectorClock &dst, const VectorClock &src)
{
    for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
}

/** FastTrack-style access epoch: (tid, that thread's clock). */
struct Access
{
    bool valid = false;
    unsigned tid = 0;
    std::uint32_t clk = 0;
    std::uint32_t idx = 0;
    bool write = false;
};

} // namespace

std::vector<BugReport>
analyzeRaces(const ProcessShared &ps)
{
    const unsigned T = ps.threads();
    std::vector<Slot> sched = canonicalSchedule(ps);

    std::vector<VectorClock> vc(T, VectorClock(T, 0));
    std::unordered_map<Addr, VectorClock> lockClock;

    struct WordState
    {
        Access write;
        std::vector<Access> reads; ///< one slot per thread
    };
    std::unordered_map<Addr, WordState> words;
    std::set<Addr> reported; ///< one race report per word
    std::vector<BugReport> out;

    auto ordered = [&](const Access &a, unsigned t) {
        return a.clk <= vc[t][a.tid];
    };
    auto raceWith = [&](const Access &prev, const ThreadOp &op,
                        unsigned t, std::uint32_t idx, Addr word) {
        if (!reported.insert(word).second)
            return;
        BugReport r;
        r.kind = "data-race";
        r.pc = op.pc;
        r.addr = word;
        r.seq = opSeq(t, idx);
        r.detail = opLabel(prev.tid, prev.idx) +
                   (prev.write ? " write" : " read") + " vs " +
                   opLabel(t, idx) +
                   (op.kind == ThreadOp::Kind::Read ? " read"
                                                    : " write");
        out.push_back(std::move(r));
    };
    auto touchWrite = [&](const ThreadOp &op, unsigned t,
                          std::uint32_t idx, Addr word) {
        WordState &w = words[word];
        if (w.reads.empty())
            w.reads.resize(T);
        if (w.write.valid && w.write.tid != t && !ordered(w.write, t))
            raceWith(w.write, op, t, idx, word);
        for (unsigned u = 0; u < T; ++u)
            if (u != t && w.reads[u].valid && !ordered(w.reads[u], t))
                raceWith(w.reads[u], op, t, idx, word);
        w.write = Access{true, t, vc[t][t], idx, true};
        for (Access &a : w.reads)
            a.valid = false;
    };

    for (const Slot &s : sched) {
        const unsigned t = s.tid;
        const ThreadOp &op = ps.logs[t][s.idx];
        ++vc[t][t];
        switch (op.kind) {
          case ThreadOp::Kind::Acquire: {
            auto it = lockClock.find(op.addr);
            if (it != lockClock.end())
                joinInto(vc[t], it->second);
            break;
          }
          case ThreadOp::Kind::Release:
            lockClock[op.addr] = vc[t];
            break;
          case ThreadOp::Kind::Create:
            if (op.aux < T)
                joinInto(vc[op.aux], vc[t]);
            break;
          case ThreadOp::Kind::Join:
            if (op.aux < T)
                joinInto(vc[t], vc[op.aux]);
            break;
          case ThreadOp::Kind::Read: {
            WordState &w = words[op.addr];
            if (w.reads.empty())
                w.reads.resize(T);
            if (w.write.valid && w.write.tid != t &&
                !ordered(w.write, t))
                raceWith(w.write, op, t, s.idx, op.addr);
            w.reads[t] = Access{true, t, vc[t][t], s.idx, false};
            break;
          }
          case ThreadOp::Kind::Write:
            touchWrite(op, t, s.idx, op.addr);
            break;
          case ThreadOp::Kind::Taint: {
            std::uint32_t len = op.aux ? op.aux : 4;
            for (Addr w = op.addr; w < op.addr + len; w += 4)
                touchWrite(op, t, s.idx, w);
            break;
          }
        }
    }
    return out;
}

std::vector<BugReport>
analyzeTaintFlows(const ProcessShared &ps)
{
    std::vector<Slot> sched = canonicalSchedule(ps);

    struct TaintState
    {
        unsigned tid = 0;
        std::uint32_t idx = 0;
    };
    std::unordered_map<Addr, TaintState> taint;
    std::set<std::pair<Addr, unsigned>> reported;
    std::vector<BugReport> out;

    for (const Slot &s : sched) {
        const unsigned t = s.tid;
        const ThreadOp &op = ps.logs[t][s.idx];
        switch (op.kind) {
          case ThreadOp::Kind::Taint: {
            std::uint32_t len = op.aux ? op.aux : 4;
            for (Addr w = op.addr; w < op.addr + len; w += 4)
                taint[w] = TaintState{t, s.idx};
            break;
          }
          case ThreadOp::Kind::Write:
            taint.erase(op.addr);
            break;
          case ThreadOp::Kind::Read: {
            auto it = taint.find(op.addr);
            if (it == taint.end() || it->second.tid == t)
                break;
            if (!reported.insert({op.addr, t}).second)
                break;
            BugReport r;
            r.kind = "cross-thread-taint";
            r.pc = op.pc;
            r.addr = op.addr;
            r.seq = opSeq(t, s.idx);
            r.detail = "tainted by " +
                       opLabel(it->second.tid, it->second.idx);
            out.push_back(std::move(r));
            break;
          }
          default:
            break;
        }
    }
    return out;
}

} // namespace fade
