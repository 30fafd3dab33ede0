#include "util.hh"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "support/diagnostics.hh"
#include "support/json.hh"

namespace perfbench
{

namespace
{

const Clock::time_point kProcessStart = Clock::now();

} // namespace

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

Clock::time_point
processStart()
{
    return kProcessStart;
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
Rng::below(std::size_t n)
{
    return n ? static_cast<std::size_t>(next() % n) : 0;
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[below(i)]);
    return order;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50);
}

namespace
{

/** Keeps the probe's result alive, so its walk is not optimised out. */
volatile std::uint32_t probeSink;

/** One walk of the probe; its host time in ms. */
double
probeWalkMs()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> words(32 * 1024); // 128 KiB
        Rng rng(0x5eed);
        for (std::uint32_t &w : words)
            w = static_cast<std::uint32_t>(rng.next());
        return words;
    }();
    const std::uint32_t mask = static_cast<std::uint32_t>(table.size()) - 1;
    Clock::time_point t0 = Clock::now();
    std::uint32_t x = 1, acc = 0;
    for (std::uint32_t i = 0; i < 200'000; ++i) {
        x = table[(x ^ i) & mask];
        acc = (x & 1) ? acc + x * 2654435761u : acc ^ (acc >> 3);
    }
    probeSink = acc;
    return msSince(t0);
}

} // namespace

void
HostProbe::sample()
{
    samplesMs.push_back(
        std::min({probeWalkMs(), probeWalkMs(), probeWalkMs()}));
}

double
HostProbe::medianMs() const
{
    return samplesMs.empty() ? kReferenceMs : median(samplesMs);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

Baseline
loadBaseline()
{
    std::ifstream in(DSP_PERFBENCH_BASELINE);
    if (!in)
        dsp::fatal("cannot read ", DSP_PERFBENCH_BASELINE,
                   " (run from the repository root)");
    std::stringstream text;
    text << in.rdbuf();
    dsp::json::Value doc = dsp::json::parse(text.str());
    const dsp::json::Value *rows = doc.find("benchmarks");
    dsp::require(rows && rows->isArray(), DSP_PERFBENCH_BASELINE,
                 ": no benchmarks array");

    Baseline baseline;
    for (const dsp::json::Value &row : rows->items) {
        const dsp::json::Value *modes = row.find("modes");
        dsp::require(modes && modes->isObject(), DSP_PERFBENCH_BASELINE,
                     ": row without modes");
        auto &cells = baseline[row.stringAt("name")];
        for (const auto &[mode, m] : modes->members)
            cells[mode] = {m.longAt("cycles"), m.longAt("cost_total")};
    }
    return baseline;
}

GenTotals
genTotals(const Baseline &cells, const std::vector<std::string> &cycle_modes)
{
    GenTotals totals;
    double log_pg = 0;
    for (const auto &[name, modes] : cells) {
        for (const std::string &mode : cycle_modes)
            totals.cycles += modes.at(mode).cycles;
        const BaselineCell &dup = modes.at("cb_dup");
        totals.cost += dup.cost;
        log_pg += std::log(static_cast<double>(modes.at("single_bank").cycles) /
                           static_cast<double>(dup.cycles));
    }
    if (!cells.empty())
        totals.pgGeomean =
            std::exp(log_pg / static_cast<double>(cells.size()));
    return totals;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, {value, unit}});
}

bool
Report::print(bool correct, long attempted, long failed) const
{
    std::ostringstream metrics_json;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &[name, vu] = metrics[i];
        double v = vu.first;
        if (!std::isfinite(v)) {
            complain("non-finite measurement " + name);
            correct = false;
            v = 0;
        }
        // Shortest round-trip form: every digit as measured.
        char buf[64];
        auto res = std::to_chars(buf, buf + sizeof(buf), v);
        metrics_json << (i ? ", " : "") << '"' << name
                     << "\": {\"value\": " << std::string(buf, res.ptr)
                     << ", \"unit\": \"" << vu.second << "\"}";
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {"
              << metrics_json.str() << "}}" << std::endl;
    return correct;
}

void
addEndToEnd(Report &report, const EndToEnd &e2e)
{
    auto perSlice = [&](auto &&statistic) {
        std::vector<double> values;
        for (const Slice &slice : e2e.slices)
            values.push_back(statistic(slice));
        return median(std::move(values));
    };
    report.add("setup_s", e2e.setupS, "s");
    report.add("ops_per_s", perSlice([](const Slice &s) {
                   return static_cast<double>(s.ok) / s.seconds;
               }) / e2e.timeScale,
               "1/s");
    // Latency percentiles pool the ops of the faster half of the slices
    // (by rate, the half at or above ops_per_s).
    std::vector<const Slice *> by_rate;
    for (const Slice &slice : e2e.slices)
        by_rate.push_back(&slice);
    std::sort(by_rate.begin(), by_rate.end(),
              [](const Slice *a, const Slice *b) {
                  return a->ok / a->seconds > b->ok / b->seconds;
              });
    by_rate.resize((by_rate.size() + 1) / 2);
    std::vector<double> op_ms;
    for (const Slice *slice : by_rate)
        op_ms.insert(op_ms.end(), slice->opMs.begin(), slice->opMs.end());
    for (int p : {50, 90, 99})
        report.add("op_p" + std::to_string(p) + "_ms",
                   percentile(op_ms, p) * e2e.timeScale, "ms");
    report.add("ok_frac",
               e2e.attempted ? static_cast<double>(e2e.ok) /
                                   static_cast<double>(e2e.attempted)
                             : 0,
               "ratio");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
    report.add("gen_cycles", static_cast<double>(e2e.gen.cycles), "cycles");
    report.add("gen_cost", static_cast<double>(e2e.gen.cost), "words");
    report.add("gen_pg_geomean", e2e.gen.pgGeomean, "ratio");
}

void
addLayers(Report &report, const std::map<std::string, double> &layers)
{
    static const std::pair<const char *, const char *> kLayers[] = {
        {"minic.parse_ms", "ms"},
        {"minic.sema_ms", "ms"},
        {"lower.ir_ms", "ms"},
        {"opt.pipeline_ms", "ms"},
        {"codegen.isel_ms", "ms"},
        {"codegen.alloc_ms", "ms"},
        {"codegen.regalloc_ms", "ms"},
        {"codegen.layout_ms", "ms"},
        {"codegen.mcverify_ms", "ms"},
        {"sim.profile_ms", "ms"},
        {"sim.cycles.profile", "cycles"},
        {"sim.mcps.profile", "Mcycles/s"},
        {"sim.measure_ms", "ms"},
        {"sim.cycles.measure", "cycles"},
        {"sim.mcps.measure", "Mcycles/s"},
        {"harness.other_ms", "ms"},
        {"round.untraced_ms", "ms"},
        {"round.traced_ms", "ms"},
        {"trace.overhead_ms", "ms"},
        {"host.probe_ms", "ms"},
        {"compile.count", "count"},
        {"ir.ops_after_opt", "count"},
        {"codegen.vliw_words", "words"},
        {"compile.degradations", "count"},
        {"compile.irreproducible", "count"},
        {"serve.compile_us.p50", "us"},
        {"serve.compile_us.p99", "us"},
        {"serve.simulate_us.p50", "us"},
        {"serve.simulate_us.p99", "us"},
        {"serve.serialize_us.p50", "us"},
        {"serve.serialize_us.p99", "us"},
        {"serve.parse_us.p50", "us"},
        {"serve.parse_us.p99", "us"},
        {"serve.write_us.p50", "us"},
        {"serve.write_us.p99", "us"},
        {"serve.cache_us.p50", "us"},
        {"serve.cache_us.p99", "us"},
        {"serve.total_us.p50", "us"},
        {"serve.total_us.p99", "us"},
        {"serve.queue_us.p50", "us"},
        {"serve.queue_us.p99", "us"},
        {"serve.queue_depth.peak", "count"},
        {"client.encode_us", "us"},
        {"client.call_us.p50", "us"},
        {"client.call_us.p99", "us"},
        {"client.validate_us", "us"},
        {"transport_us", "us"},
        {"compile.cache.hit", "count"},
        {"compile.cache.miss", "count"},
        {"compile.cache.eviction", "count"},
        {"compile.cache.hit_ratio", "ratio"},
        {"serve.shed", "count"},
        {"serve.timeouts", "count"},
        {"serve.retries", "count"},
    };
    for (const auto &[name, unit] : kLayers) {
        auto it = layers.find(name);
        report.add(name, it == layers.end() ? 0.0 : it->second, unit);
    }
    for (const auto &[name, value] : layers) {
        bool listed = false;
        for (const auto &layer : kLayers)
            listed = listed || name == layer.first;
        if (!listed)
            throw std::logic_error("unlisted layer metric " + name);
    }
}

void
complain(const std::string &what)
{
    std::cerr << "perfbench: " << what << '\n';
}

} // namespace perfbench
