/**
 * @file
 * Minimal, API-compatible subset of the google-benchmark interface
 * (https://github.com/google/benchmark), implemented in-tree.
 *
 * Why a bundled shim: recorded baselines (BENCH_*.json) are only
 * meaningful when the benchmark library itself is an optimized build,
 * and a system-installed libbenchmark is whatever the distribution
 * shipped — frequently a Debug build, which taxes every State
 * iteration and poisons the numbers. Building the harness from source
 * with the project's own flags removes that variable. The subset
 * covers exactly what bench/micro_*.cc uses:
 *
 *   - BENCHMARK(fn) registration with ->Arg / ->Args / ->ArgsProduct /
 *     ->UseRealTime chaining,
 *   - State: `for (auto _ : state)`, range(i), iterations(),
 *     SetItemsProcessed, SetBytesProcessed, counters["name"] = value,
 *   - DoNotOptimize,
 *   - BENCHMARK_MAIN with --benchmark_min_time, --benchmark_filter,
 *     --benchmark_format=json, --benchmark_out,
 *     --benchmark_out_format=json, --benchmark_list_tests,
 *   - JSON output carrying context.num_cpus and
 *     context.library_build_type, which compare_bench.py checks.
 *
 * Anything outside that subset is intentionally absent; porting a
 * benchmark that needs more should flip SIGIL_SYSTEM_BENCHMARK=ON and
 * link a real (Release) google-benchmark instead.
 */

#ifndef MINIBENCH_BENCHMARK_H
#define MINIBENCH_BENCHMARK_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace benchmark {

class State;

namespace internal {

/** One registered benchmark function plus its argument matrix. */
class Benchmark
{
  public:
    Benchmark(std::string name, void (*fn)(State &));

    /** Add one single-argument instance. */
    Benchmark *Arg(std::int64_t a);

    /** Add one multi-argument instance. */
    Benchmark *Args(const std::vector<std::int64_t> &args);

    /** Add the cartesian product of the argument lists. */
    Benchmark *
    ArgsProduct(const std::vector<std::vector<std::int64_t>> &lists);

    /** Report rates against wall-clock time ("/real_time" names). */
    Benchmark *UseRealTime();

    const std::string &name() const { return name_; }
    void (*fn() const)(State &) { return fn_; }
    bool useRealTime() const { return useRealTime_; }
    const std::vector<std::vector<std::int64_t>> &instances() const
    {
        return instances_;
    }

  private:
    std::string name_;
    void (*fn_)(State &);
    bool useRealTime_ = false;
    /** Argument vectors; empty => a single no-argument instance. */
    std::vector<std::vector<std::int64_t>> instances_;
};

/** Register b (takes ownership); returns it for option chaining. */
Benchmark *RegisterBenchmark(Benchmark *b);

} // namespace internal

/**
 * Per-run benchmark state: the timed `for (auto _ : state)` loop plus
 * the run's arguments and result counters. The timer starts when the
 * loop is entered and stops when it exhausts its iteration budget, so
 * setup before the loop is never measured.
 */
class State
{
  public:
    State(std::uint64_t iters, std::vector<std::int64_t> args)
        : max_(iters), args_(std::move(args))
    {}

    /**
     * The loop variable's type. The user-provided destructor makes it
     * non-trivial, so GCC does not flag `_` as set but not used.
     */
    struct Value
    {
        ~Value() {}
    };

    class iterator
    {
      public:
        iterator() = default;
        explicit iterator(State *s) : s_(s) {}
        Value operator*() const { return Value{}; }
        iterator &operator++() { return *this; }
        bool operator!=(const iterator &) { return s_->keepRunning(); }

      private:
        State *s_ = nullptr;
    };

    iterator begin();
    iterator end() { return iterator(); }

    std::int64_t
    range(std::size_t i = 0) const
    {
        return args_.at(i);
    }

    /** Iterations completed by the timed loop. */
    std::int64_t
    iterations() const
    {
        return static_cast<std::int64_t>(count_);
    }

    void SetItemsProcessed(std::int64_t n) { items_ = n; }
    void SetBytesProcessed(std::int64_t n) { bytes_ = n; }

    /** User counters, reported verbatim in the output. */
    std::map<std::string, double> counters;

    /** @name Runner results (read by the harness, not by benchmarks) */
    /// @{
    double realSeconds() const { return realSeconds_; }
    double cpuSeconds() const { return cpuSeconds_; }
    std::int64_t itemsProcessed() const { return items_; }
    std::int64_t bytesProcessed() const { return bytes_; }
    /// @}

  private:
    bool keepRunning();
    void finishTiming();

    std::uint64_t max_ = 0;
    std::uint64_t count_ = 0;
    std::vector<std::int64_t> args_;
    std::int64_t items_ = 0;
    std::int64_t bytes_ = 0;
    double realStart_ = 0;
    double cpuStart_ = 0;
    double realSeconds_ = 0;
    double cpuSeconds_ = 0;
};

/**
 * Keep `value` (and everything feeding it) alive past the optimizer.
 */
template <class T>
inline void
DoNotOptimize(T const &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

template <class T>
inline void
DoNotOptimize(T &value)
{
    asm volatile("" : "+m,r"(value) : : "memory");
}

/** Consume --benchmark_* flags (leaves other args in place). */
void Initialize(int *argc, char **argv);

/** True (after printing them) when non-flag args remain. */
bool ReportUnrecognizedArguments(int argc, char **argv);

/** Run every registered benchmark that matches the filter. */
std::size_t RunSpecifiedBenchmarks();

void Shutdown();

} // namespace benchmark

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)

#define BENCHMARK(fn)                                                   \
    static ::benchmark::internal::Benchmark                             \
        *MINIBENCH_CONCAT(minibench_reg_, __LINE__) =                   \
            ::benchmark::internal::RegisterBenchmark(                   \
                new ::benchmark::internal::Benchmark(#fn, fn))

#define BENCHMARK_MAIN()                                                \
    int main(int argc, char **argv)                                     \
    {                                                                   \
        ::benchmark::Initialize(&argc, argv);                           \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))       \
            return 1;                                                   \
        ::benchmark::RunSpecifiedBenchmarks();                          \
        ::benchmark::Shutdown();                                        \
        return 0;                                                       \
    }                                                                   \
    int main(int, char **)

#endif // MINIBENCH_BENCHMARK_H
