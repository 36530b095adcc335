/**
 * @file
 * Factory for the seven lifeguards: the five evaluated in the paper
 * (Section 6) and the cross-shard thread monitors.
 */

#ifndef FADE_MONITOR_FACTORY_HH
#define FADE_MONITOR_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "monitor/monitor.hh"

namespace fade
{

/** Instantiate a monitor by name (AddrCheck, MemCheck, TaintCheck,
 *  MemLeak, AtomCheck, RaceCheck, SharedTaint). Fatal on unknown
 *  names. */
std::unique_ptr<Monitor> makeMonitor(const std::string &name);

/** All monitor names, including the cross-shard thread monitors. */
const std::vector<std::string> &monitorNames();

/** The five lifeguards evaluated in the paper (Section 6), in
 *  monitorNames() order. The figure/table harnesses that print measured
 *  values next to published ones iterate these — the cross-shard
 *  thread monitors have no paper counterpart. */
const std::vector<std::string> &paperMonitorNames();

/** True for the propagation-tracking monitors (Section 3.1). */
bool isPropagationMonitor(const std::string &name);

} // namespace fade

#endif // FADE_MONITOR_FACTORY_HH
