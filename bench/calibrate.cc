/**
 * @file
 * Calibration harness (development tool): prints per-benchmark,
 * per-monitor headline numbers — app IPC, monitored IPC, filtering
 * ratio, and slowdowns — so profile constants can be tuned against the
 * paper's reported values. Not one of the reproduced figures, but kept
 * as a convenient overview binary. It measures with the figure
 * harnesses' slices, benchmark lists and baselines (bench/common.hh),
 * so its slowdown cells equal Fig. 9's.
 */

#include "bench/common.hh"

using namespace fade;
using namespace fade::bench;

int
main()
{
    std::printf("== calibration overview ==\n");
    for (const auto &mon : paperMonitorNames()) {
        TextTable t;
        t.header({"bench", "appIPC", "monIPC", "filter%", "unaccX",
                  "fadeX"});
        for (const auto &b : benchmarksFor(mon)) {
            BenchProfile prof = profileFor(mon, b);
            // Producer side: ideal consumer, unbounded event queue.
            SystemConfig ideal;
            ideal.perfectConsumer = true;
            ideal.eqCapacity = 0;
            Measured mi = measure(ideal, mon, prof);
            SystemConfig unacc;
            unacc.accelerated = false;
            Measured mu = measure(unacc, mon, prof);
            Measured mf = measure(SystemConfig{}, mon, prof);
            t.row({b, fmt("%.2f", mi.run.appIpc),
                   fmt("%.2f", mi.run.monitoredIpc), fmtPct(mf.filtering),
                   fmtX(mu.slowdown), fmtX(mf.slowdown)});
        }
        std::printf("\n-- %s --\n", mon.c_str());
        t.print();
    }
    return 0;
}
