/**
 * @file
 * Figure 6: memory usage for baseline function-level profiling,
 * simsmall vs simmedium.
 *
 * Reported as the peak shadow-memory footprint plus the guest heap the
 * workload touched. The paper's shape: memory grows with the touched
 * address range but stays consistent as the data size increases, with
 * facesim and raytrace the heavier benchmarks. dedup is the benchmark
 * that needs the FIFO memory-limit option, so it is also run with a
 * shadow-chunk cap to show the limiter holding the footprint flat.
 */

#include "bench_common.hh"
#include "support/table.hh"

using namespace sigil;
using namespace sigil::bench;

int
main()
{
    figureHeader("Figure 6",
                 "profiling memory usage (peak shadow bytes + guest "
                 "heap)");

    TextTable table;
    table.header({"benchmark", "simsmall_MB", "simmedium_MB"});
    auto mb = [](std::uint64_t bytes) {
        return strformat("%.2f", static_cast<double>(bytes) / 1e6);
    };
    for (const workloads::Workload &w : workloads::parsecWorkloads()) {
        RunOutput s =
            runWorkload(w, workloads::Scale::SimSmall, Mode::Sigil);
        RunOutput m =
            runWorkload(w, workloads::Scale::SimMedium, Mode::Sigil);
        table.addRow({w.name, mb(s.shadowPeakBytes), mb(m.shadowPeakBytes)});
    }
    table.print();

    std::printf("\nFIFO memory limit (dedup, simsmall):\n");
    const workloads::Workload *dedup = workloads::findWorkload("dedup");
    RunOutput unlimited =
        runWorkload(*dedup, workloads::Scale::SimSmall, Mode::Sigil);
    RunOutput limited = runWorkload(
        *dedup, workloads::Scale::SimSmall, Mode::Sigil, 8);
    std::printf("  unlimited: %.2f MB, 0 evictions\n",
                static_cast<double>(unlimited.shadowPeakBytes) / 1e6);
    std::printf("  limited  : %.2f MB, %llu evictions\n",
                static_cast<double>(limited.shadowPeakBytes) / 1e6,
                static_cast<unsigned long long>(
                    limited.profile.shadowEvictions));

    return 0;
}
