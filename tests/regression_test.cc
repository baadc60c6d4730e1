/**
 * @file
 * Golden-value regression tests: the workloads are deterministic, so
 * their headline profile numbers are locked in here. A change to any
 * of these values means either the instrumentation substrate, the
 * classification semantics, or a workload changed — all of which must
 * be deliberate (and accompanied by updating this file and rechecking
 * EXPERIMENTS.md).
 *
 * Also: syscall-modeling tests (the paper's Section III special
 * handling) and a line-granularity classification oracle.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/sigil_profiler.hh"
#include "support/rng.hh"
#include "vg/traced.hh"
#include "workloads/workload.hh"

#include "reference_profiler.hh"

namespace sigil {
namespace {

struct Golden
{
    const char *name;
    std::uint64_t instructions;
    std::uint64_t uniqueInput;
    std::uint64_t uniqueLocal;
    std::size_t edges;
    std::size_t rows;
};

constexpr Golden kGolden[] = {
    {"blackscholes", 391454, 148879, 69704, 21, 21},
    {"dedup", 1429333, 218456, 12280, 18, 19},
    {"vips", 1053770, 53268, 3000, 15, 19},
    {"streamcluster", 228413, 55656, 240, 12, 17},
    {"libquantum", 43871, 39960, 24576, 14, 20},
};

class GoldenValues : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GoldenValues, ProfileMatchesLockedNumbers)
{
    const Golden &gold = kGolden[GetParam()];
    const workloads::Workload *w = workloads::findWorkload(gold.name);
    ASSERT_NE(w, nullptr);

    vg::Guest g(w->name);
    core::SigilProfiler prof;
    g.addTool(&prof);
    w->run(g, workloads::Scale::SimSmall);
    g.finish();

    core::SigilProfile p = prof.takeProfile();
    std::uint64_t ui = 0, ul = 0;
    for (const core::SigilRow &r : p.rows) {
        ui += r.agg.uniqueInputBytes;
        ul += r.agg.uniqueLocalBytes;
    }
    EXPECT_EQ(g.counters().instructions(), gold.instructions);
    EXPECT_EQ(ui, gold.uniqueInput);
    EXPECT_EQ(ul, gold.uniqueLocal);
    EXPECT_EQ(p.edges.size(), gold.edges);
    EXPECT_EQ(p.rows.size(), gold.rows);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, GoldenValues,
    ::testing::Range<std::size_t>(0, std::size(kGolden)),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return kGolden[info.param].name;
    });

TEST(Syscalls, OutSyscallConsumesBuffer)
{
    vg::Guest g("t");
    core::SigilProfiler prof;
    g.addTool(&prof);
    vg::Addr buf = g.alloc(8192);
    g.enter("main");
    g.write(buf, 4096);
    g.write(buf + 4096, 4096);
    g.syscallOut("write", buf, 8192);
    g.leave();
    g.finish();

    core::SigilProfile p = prof.takeProfile();
    const core::SigilRow *sys = p.findByDisplayName("sys_write");
    ASSERT_NE(sys, nullptr);
    EXPECT_EQ(sys->agg.uniqueInputBytes, 8192u);
    EXPECT_EQ(sys->agg.calls, 1u);
    // main produced it, the kernel consumed it.
    EXPECT_EQ(p.findByDisplayName("main")->agg.uniqueOutputBytes,
              8192u);
}

TEST(Syscalls, InSyscallProducesBuffer)
{
    vg::Guest g("t");
    core::SigilProfiler prof;
    g.addTool(&prof);
    vg::Addr buf = g.alloc(100);
    g.enter("main");
    g.syscallIn("read", buf, 100);
    g.read(buf, 100);
    g.leave();
    g.finish();

    core::SigilProfile p = prof.takeProfile();
    const core::SigilRow *sys = p.findByDisplayName("sys_read");
    ASSERT_NE(sys, nullptr);
    EXPECT_EQ(sys->agg.writeBytes, 100u);
    EXPECT_EQ(sys->agg.uniqueOutputBytes, 100u);
    EXPECT_EQ(p.findByDisplayName("main")->agg.uniqueInputBytes, 100u);
}

TEST(Syscalls, DedupUsesReadAndWrite)
{
    const workloads::Workload *w = workloads::findWorkload("dedup");
    vg::Guest g(w->name);
    core::SigilProfiler prof;
    g.addTool(&prof);
    w->run(g, workloads::Scale::SimSmall);
    g.finish();

    core::SigilProfile p = prof.takeProfile();
    auto sys_read = p.findByFunction("sys_read");
    auto sys_write = p.findByFunction("sys_write");
    ASSERT_EQ(sys_read.size(), 1u);
    ASSERT_EQ(sys_write.size(), 1u);
    EXPECT_EQ(sys_read[0]->agg.writeBytes, 32768u);
    EXPECT_GT(sys_write[0]->agg.uniqueInputBytes, 0u);
}

/**
 * Line-granularity classification oracle: replay a random trace through
 * the line-mode profiler, the line-mode reference profiler (the
 * differential matrix's answer) and a brute-force per-line model.
 */
class LineModeOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LineModeOracle, MatchesBruteForcePerLine)
{
    vg::Guest g("t");
    core::SigilConfig cfg;
    cfg.granularityShift = 6;
    cfg.collectReuse = false;
    core::SigilProfiler prof(cfg);
    fixtures::ReferenceProfiler ref(cfg);
    g.addTool(&prof);
    g.addTool(&ref);

    struct LineState
    {
        vg::ContextId writer = vg::kInvalidContext;
        vg::ContextId reader = vg::kInvalidContext;
    };
    std::map<std::uint64_t, LineState> lines;
    std::map<vg::ContextId, std::uint64_t> unique_in, unique_local;

    const vg::Addr base = g.alloc(8192);
    const char *fns[] = {"main", "A", "B"};
    Rng rng(GetParam());
    g.enter("main");
    int depth = 1;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t action = rng.nextBounded(10);
        if (action < 2 && depth < 4) {
            g.enter(fns[rng.nextBounded(3)]);
            ++depth;
        } else if (action < 3 && depth > 1) {
            g.leave();
            --depth;
        } else {
            vg::Addr a = base + rng.nextBounded(8192 - 8);
            unsigned size = 1u << rng.nextBounded(4);
            vg::ContextId ctx = g.currentContext();
            bool is_write = (rng.next() & 1) != 0;
            if (is_write) {
                g.write(a, size);
                for (std::uint64_t l = a >> 6; l <= ((a + size - 1) >> 6);
                     ++l) {
                    lines[l].writer = ctx;
                    lines[l].reader = vg::kInvalidContext;
                }
            } else {
                g.read(a, size);
                for (std::uint64_t l = a >> 6; l <= ((a + size - 1) >> 6);
                     ++l) {
                    LineState &s = lines[l];
                    std::uint64_t lo =
                        std::max<std::uint64_t>(a, l << 6);
                    std::uint64_t hi = std::min<std::uint64_t>(
                        a + size, (l + 1) << 6);
                    std::uint64_t w = hi - lo;
                    bool unique = s.reader != ctx;
                    if (unique) {
                        if (s.writer == ctx)
                            unique_local[ctx] += w;
                        else
                            unique_in[ctx] += w;
                    }
                    s.reader = ctx;
                }
            }
        }
    }
    while (depth-- > 0)
        g.leave();
    g.finish();

    for (const auto &[tool, p] :
         {std::pair{"profiler", prof.takeProfile()},
          std::pair{"reference", ref.takeProfile()}}) {
        SCOPED_TRACE(tool);
        for (const core::SigilRow &row : p.rows) {
            EXPECT_EQ(row.agg.uniqueInputBytes,
                      unique_in.count(row.ctx) ? unique_in[row.ctx] : 0u)
                << row.path;
            EXPECT_EQ(row.agg.uniqueLocalBytes,
                      unique_local.count(row.ctx) ? unique_local[row.ctx]
                                                  : 0u)
                << row.path;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineModeOracle,
                         ::testing::Values(21, 42, 63));

} // namespace
} // namespace sigil

namespace sigil {
namespace {

TEST(ObjectAttribution, TaggedAllocationsReceiveTraffic)
{
    vg::Guest g("t");
    core::SigilConfig cfg;
    cfg.collectObjects = true;
    core::SigilProfiler prof(cfg);
    g.addTool(&prof);

    vg::GuestArray<double> a(g, 8, "matrix_a");
    vg::GuestArray<double> b(g, 8, "matrix_b");
    g.enter("main");
    for (std::size_t i = 0; i < 8; ++i)
        a.set(i, 1.0);
    for (std::size_t i = 0; i < 8; ++i) {
        b.set(i, a.get(i));
        a.get(i); // re-read: non-unique
    }
    // Scratch-stack traffic lands in the "<other>" bucket.
    {
        vg::StackMark mark(g);
        vg::ArgSlot<double> arg(g, 1.0);
        g.enter("callee");
        arg.load();
        g.leave();
    }
    g.leave();
    g.finish();

    core::SigilProfile p = prof.takeProfile();
    ASSERT_GE(p.objects.size(), 3u);
    EXPECT_EQ(p.objects[0].tag, "<other>");
    EXPECT_EQ(p.objects[0].readBytes, 8u);  // the arg slot
    EXPECT_EQ(p.objects[0].writeBytes, 8u);

    const core::SigilProfile::ObjectRow *ma = nullptr, *mb = nullptr;
    for (const auto &row : p.objects) {
        if (row.tag == "matrix_a")
            ma = &row;
        if (row.tag == "matrix_b")
            mb = &row;
    }
    ASSERT_NE(ma, nullptr);
    ASSERT_NE(mb, nullptr);
    EXPECT_EQ(ma->size, 64u);
    EXPECT_EQ(ma->writeBytes, 64u);
    EXPECT_EQ(ma->readBytes, 128u);       // two passes
    EXPECT_EQ(ma->uniqueReadBytes, 64u);  // re-read is non-unique
    EXPECT_EQ(mb->writeBytes, 64u);
    EXPECT_EQ(mb->readBytes, 0u);
}

TEST(ObjectAttribution, DisabledByDefault)
{
    vg::Guest g("t");
    core::SigilProfiler prof;
    g.addTool(&prof);
    vg::GuestArray<int> a(g, 4, "arr");
    g.enter("main");
    a.set(0, 1);
    g.leave();
    g.finish();
    EXPECT_TRUE(prof.takeProfile().objects.empty());
}

TEST(ObjectAttribution, AllocationLookupIsExact)
{
    vg::Guest g("t");
    vg::Addr a = g.alloc(100, "first");
    vg::Addr b = g.alloc(50, "second");
    EXPECT_EQ(g.allocationOf(a), 0);
    EXPECT_EQ(g.allocationOf(a + 99), 0);
    EXPECT_EQ(g.allocationOf(a + 100), -1); // alignment padding
    EXPECT_EQ(g.allocationOf(b), 1);
    EXPECT_EQ(g.allocationOf(vg::kStackBase), -1);
    EXPECT_EQ(g.allocationOf(0), -1);
    EXPECT_EQ(g.allocations()[0].tag, "first");
}

} // namespace
} // namespace sigil
