/**
 * @file
 * Isolated per-layer probes of the traced mode: each times one layer's
 * public call over a workload's own instruction stream, outside the
 * engine. They measure what a layer costs on these inputs, not how much
 * of a real run it takes (in-run attribution needs spans inside the
 * program).
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <vector>

#include "isa/instruction.hh"
#include "monitor/monitor.hh"
#include "trace/profile.hh"
#include "trace/tracefile.hh"

namespace perfbench
{

/** Span length of every probe (the run-grain engine's batch size). */
constexpr std::size_t probeSpan = 64;

/** Seconds to synthesize @p n instructions of @p prof through
 *  TraceGenerator::stageRun + fetchSpan. */
double synthesizeSeconds(const fade::BenchProfile &prof, std::uint64_t n);

/** The first @p n instructions of @p prof's stream. */
std::vector<fade::Instruction> synthesizeWindow(const fade::BenchProfile &prof,
                                                std::size_t n);

/** Seconds to drain stream @p s of @p r through ReplaySource::stageRun
 *  + fetchSpan; @p records receives the count drained. */
double decodeSeconds(const fade::TraceReader &r, unsigned s,
                     std::uint64_t &records);

/** Stream @p s of @p r, decoded (at most @p max records). */
std::vector<fade::Instruction> decodeWindow(const fade::TraceReader &r,
                                            unsigned s, std::size_t max);

/** Seconds of Monitor::monitoredSpan over @p w; verdicts land in @p v. */
double dispatchSeconds(const fade::Monitor &mon,
                       const std::vector<fade::Instruction> &w,
                       std::vector<std::uint8_t> &v);

/** Seconds of EventProducer::commitSpan over @p w with verdicts @p v;
 *  @p events receives the events extracted. */
double extractSeconds(fade::Monitor &mon,
                      const std::vector<fade::Instruction> &w,
                      const std::vector<std::uint8_t> &v,
                      std::uint64_t &events);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
