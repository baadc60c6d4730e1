/**
 * @file
 * Figure 4: slowdown of Sigil and Callgrind relative to native runs for
 * baseline function-level profiling (PARSEC serial, simsmall).
 *
 * "Native" is the same workload binary with no instrumentation tools
 * attached. The paper's absolute factors (≈580x for Sigil, tens of x
 * for Callgrind on simsmall) come from binary translation; here the
 * substrate is shared, so the factors are smaller, but the figure's
 * shape must hold: Sigil is substantially slower than Callgrind, which
 * is slower than native, with the gap roughly consistent across
 * benchmarks.
 *
 * Each benchmark's three modes run in interleaved rounds (native,
 * Callgrind, Sigil, then again) and each keeps its best of
 * kRounds runs, so a slow phase of the host cannot inflate the native
 * baseline alone.
 */

#include "bench_common.hh"
#include "support/table.hh"

using namespace sigil;
using namespace sigil::bench;

/** Interleaved rounds per benchmark. */
constexpr int kRounds = 5;

int
main()
{
    figureHeader("Figure 4",
                 "slowdown of Sigil and Callgrind relative to native "
                 "(baseline profiling, simsmall)");

    TextTable table;
    table.header({"benchmark", "native_ms", "callgrind_x", "sigil_x"});
    double cg_sum = 0, sigil_sum = 0;
    int n = 0;
    for (const workloads::Workload &w : workloads::parsecWorkloads()) {
        const std::vector<double> best = bestSecondsInterleaved(
            w, workloads::Scale::SimSmall,
            {Mode::Native, Mode::Callgrind, Mode::Sigil}, kRounds);
        const double native = best[0], cg = best[1], sigil = best[2];
        double cg_x = cg / native;
        double sigil_x = sigil / native;
        cg_sum += cg_x;
        sigil_sum += sigil_x;
        ++n;
        table.addRow({w.name, strformat("%.3f", native * 1e3),
                      strformat("%.1f", cg_x),
                      strformat("%.1f", sigil_x)});
    }
    table.addRow({"average", "", strformat("%.1f", cg_sum / n),
                  strformat("%.1f", sigil_sum / n)});
    table.print();
    return 0;
}
