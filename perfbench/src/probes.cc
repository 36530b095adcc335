#include "probes.hh"

#include <algorithm>

#include "common.hh"
#include "sim/queue.hh"
#include "system/producer.hh"
#include "trace/generator.hh"

using namespace fade;

namespace perfbench
{

double
synthesizeSeconds(const BenchProfile &prof, std::uint64_t n)
{
    auto t0 = Clock::now();
    TraceGenerator g(prof);
    std::uint64_t left = n;
    while (left) {
        std::size_t want = std::size_t(std::min<std::uint64_t>(probeSpan,
                                                               left));
        g.stageRun(want);
        left -= g.fetchSpan(want).count;
    }
    return seconds(t0, Clock::now());
}

std::vector<Instruction>
synthesizeWindow(const BenchProfile &prof, std::size_t n)
{
    std::vector<Instruction> w;
    w.reserve(n);
    TraceGenerator g(prof);
    while (w.size() < n) {
        std::size_t want = std::min(probeSpan, n - w.size());
        g.stageRun(want);
        InstSpan s = g.fetchSpan(want);
        w.insert(w.end(), s.begin(), s.end());
    }
    return w;
}

double
decodeSeconds(const TraceReader &r, unsigned s, std::uint64_t &records)
{
    auto t0 = Clock::now();
    ReplaySource src(r, s);
    records = 0;
    for (;;) {
        src.stageRun(probeSpan);
        InstSpan span = src.fetchSpan(probeSpan);
        if (span.empty())
            break;
        records += span.count;
    }
    return seconds(t0, Clock::now());
}

std::vector<Instruction>
decodeWindow(const TraceReader &r, unsigned s, std::size_t max)
{
    std::vector<Instruction> w;
    ReplaySource src(r, s);
    while (w.size() < max) {
        src.stageRun(probeSpan);
        InstSpan span = src.fetchSpan(std::min(probeSpan, max - w.size()));
        if (span.empty())
            break;
        w.insert(w.end(), span.begin(), span.end());
    }
    return w;
}

double
dispatchSeconds(const Monitor &mon, const std::vector<Instruction> &w,
                std::vector<std::uint8_t> &v)
{
    v.assign(w.size(), 0);
    auto t0 = Clock::now();
    for (std::size_t at = 0; at < w.size(); at += probeSpan)
        mon.monitoredSpan(w.data() + at, std::min(probeSpan, w.size() - at),
                          v.data() + at);
    return seconds(t0, Clock::now());
}

double
extractSeconds(Monitor &mon, const std::vector<Instruction> &w,
               const std::vector<std::uint8_t> &v, std::uint64_t &events)
{
    // The producer needs a bound queue only as an enable flag;
    // commitSpan writes into the caller's buffer.
    BoundedQueue<MonEvent> eq(16);
    MonEvent out[probeSpan];
    events = 0;
    auto t0 = Clock::now();
    EventProducer prod(&mon, &eq, nullptr);
    for (std::size_t at = 0; at < w.size(); at += probeSpan)
        events += prod.commitSpan(w.data() + at, v.data() + at,
                                  std::min(probeSpan, w.size() - at), out);
    return seconds(t0, Clock::now());
}

} // namespace perfbench
