/**
 * @file
 * Shared pieces of the repository benchmark: command-line options,
 * the seeded generator, timers, exact percentiles, the baseline
 * cross-check, and the one-line JSON result the benchmark prints.
 */

#ifndef DSP_PERFBENCH_UTIL_HH
#define DSP_PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30;
    bool trace = false;
};

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p t0 to now. */
double msSince(Clock::time_point t0);

/** Milliseconds from @p t0 to @p t1. */
double msBetween(Clock::time_point t0, Clock::time_point t1);

/** The instant main() started: setup_s runs from here. */
Clock::time_point processStart();

/** splitmix64: small, seedable, and identical on every platform, so a
 *  seed names the same inputs everywhere. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t next();

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n);

    /** Fisher-Yates shuffle of 0..n-1. */
    std::vector<std::size_t> permutation(std::size_t n);

  private:
    std::uint64_t state;
};

/** Nearest-rank percentile (0 < p <= 100) of @p values; 0 if empty. */
double percentile(std::vector<double> values, double p);

/** Median of @p values (the 50th nearest-rank percentile). */
double median(std::vector<double> values);

/** Peak resident set of this process in MiB (getrusage ru_maxrss). */
double peakRssMb();

/**
 * The host-speed probe: a fixed, seeded, data-dependent walk over a
 * 128 KiB table, in benchmark code that no program change can move.
 * The host is a VM on a shared machine whose speed drifts by tens of
 * per cent over minutes; the workloads sample the probe between ops
 * and report their timings at the speed at which the host runs the
 * probe in kReferenceMs. Each sample is the best of three walks, so the
 * first warms the table into cache and the program's own cache
 * footprint does not reach the sample.
 */
class HostProbe
{
  public:
    /** The probe's time on a quiet host of the kind the benchmark was
     *  written on (a 4-vCPU VM); only a fixed scale. */
    static constexpr double kReferenceMs = 2.0;

    /** Time the probe now and keep the sample. */
    void sample();

    /** Median of the samples in ms; kReferenceMs before the first. */
    double medianMs() const;

    /** Reference-speed time per measured time: kReferenceMs over
     *  medianMs(). Latencies are multiplied by it, rates divided. */
    double timeScale() const { return kReferenceMs / medianMs(); }

  private:
    std::vector<double> samplesMs;
};

/** One benchmark/mode cell of the checked-in reference sweep. */
struct BaselineCell
{
    long cycles = 0;
    long cost = 0;
};

/**
 * bench/baselines/BENCH_sim.json, read (never written): per benchmark
 * name, per mode name ("single_bank", "cb", ...), the reference cycles
 * and §4.2 cost. The `ctest -L perf` tier gates the same file, so the
 * benchmark and the test suite agree on what correct output is.
 */
using Baseline = std::map<std::string, std::map<std::string, BaselineCell>>;

/** Load the baseline; throws dsp::UserError if it is missing or
 *  malformed. */
Baseline loadBaseline();

/**
 * The three generated-work figures, derived from a set of measured
 * (benchmark, mode) cells: cycles summed over @p cycle_modes, the
 * cb_dup cost summed, and the geometric mean of single_bank / cb_dup
 * cycles. Both the measured cells and the baseline go through this
 * one function, so the comparison is like for like.
 */
struct GenTotals
{
    long cycles = 0;
    long cost = 0;
    double pgGeomean = 0;

    bool operator==(const GenTotals &) const = default;
};

GenTotals genTotals(const Baseline &cells,
                    const std::vector<std::string> &cycle_modes);

/** Metrics in print order, one JSON object on the last line. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** Print {"correct","attempted","failed","metrics"} as one line on
     *  stdout. A non-finite value is a broken measurement: it prints
     *  as 0 and makes the run incorrect. Returns the printed
     *  "correct". */
    bool print(bool correct, long attempted, long failed) const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
};

/**
 * One slice of a timed window: a round of `figures`, 2.5 s of serve_*.
 * ops_per_s is the median of the slices' rates, and the latency
 * percentiles pool the ops of the faster half of the slices. Contention
 * from other tenants of the shared machine only ever adds time, and a
 * burst of it lands in a few slices; a change to the program moves
 * every slice.
 */
struct Slice
{
    double seconds = 0;
    /** Latency of every op attempted in the slice, in ms. */
    std::vector<double> opMs;
    long ok = 0;
};

/** What every workload measures end to end. */
struct EndToEnd
{
    double setupS = 0;
    /** HostProbe::timeScale() over the timed window; applied to
     *  ops_per_s and the latency percentiles. */
    double timeScale = 1;
    std::vector<Slice> slices;
    /** Ops attempted and validated over the whole window (slices may
     *  leave out a partial tail). */
    long attempted = 0;
    long ok = 0;
    GenTotals gen;
};

/** Add every end-to-end metric (BENCHMARK.json "end_to_end"). */
void addEndToEnd(Report &report, const EndToEnd &e2e);

/**
 * Add every per-layer metric (BENCHMARK.json "per_layer") from
 * @p layers. A layer the workload's path never crosses (the server on
 * `figures`, profile runs on serve_*) is absent from the map and
 * reads 0.
 */
void addLayers(Report &report, const std::map<std::string, double> &layers);

/** Report a benchmark-side failure on stderr; the caller counts it,
 *  which makes the run incorrect and its exit code non-zero. */
void complain(const std::string &what);

} // namespace perfbench

#endif // DSP_PERFBENCH_UTIL_HH
