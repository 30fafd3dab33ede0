/**
 * @file
 * The `serve_cold` and `serve_hot` workloads: the compile service as
 * its callers use it. An in-process Server (1 worker, otherwise
 * default options, no disk cache) is driven by one closed-loop
 * ServeClient connection, which sends its next `compile` request
 * (mode cb, fast engine) only after the previous reply — build tools
 * and the fig harness wait for every reply, so there is no open-loop
 * rate. The whole process runs on one CPU (see pinToCurrentCpu).
 *
 *  - serve_cold: the client cycles through the 23 suite sources, each
 *    cycle in a fresh seeded order, with a request-unique comment
 *    appended, so every request misses L1, compiles once, and runs.
 *  - serve_hot: requests are the 23 unmodified sources, all in L1
 *    after set-up, so every request is a hit that still simulates and
 *    serialises.
 *
 * Every reply is validated against the suite's host reference outside
 * the timed call. Layer numbers come from the server's public `stats`
 * op, read before and after the timed window, and from client-side
 * timers.
 */

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "driver/server.hh"
#include "staged.hh"
#include "suite/suite.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/** Server workers. One closed-loop client keeps one busy. */
constexpr int kWorkers = 1;
/** Set-up repetitions; setup_s reports their median. */
constexpr int kSetUps = 5;
/** Timed-window slice length; ops_per_s is the median slice rate. */
constexpr double kSliceSeconds = 2.5;
/** How often the client samples the host-speed probe between calls. */
constexpr std::chrono::seconds kProbeEvery{1};

/** The set-up reference pass serves each source under these modes;
 *  its cells give the workload's gen_* figures. cb is the timed mode,
 *  so on serve_hot this pass is also what fills L1. */
const std::vector<std::string> kReferenceModes = {"single_bank", "cb_dup",
                                                  "cb"};

/** The dsp-serve-v1 spelling of a report mode name. */
const char *
protocolMode(const std::string &mode)
{
    if (mode == "single_bank")
        return "single";
    if (mode == "cb_dup")
        return "dup";
    return "cb";
}

struct Request
{
    const dsp::Benchmark *bench = nullptr;
    std::string mode;
    std::string source;
};

std::string
encodeRequest(long long id, const Request &r)
{
    std::ostringstream os;
    dsp::json::Writer w(os);
    w.beginObject(dsp::json::Writer::Block::Inline);
    w.field("id", id);
    w.field("op", "compile");
    w.field("source", r.source);
    w.field("mode", protocolMode(r.mode));
    w.key("input").beginArray(dsp::json::Writer::Block::Inline);
    for (uint32_t word : r.bench->input)
        w.value(static_cast<long long>(word));
    w.endArray();
    w.endObject();
    return os.str();
}

/** Validate one reply against the host reference; "" when correct.
 *  Fills @p cell with the reply's cycles and cost. */
std::string
checkReply(const dsp::json::Value &resp, const Request &r,
           BaselineCell &cell)
{
    const dsp::json::Value *ok = resp.find("ok");
    if (!ok || !ok->isBool() || !ok->boolean) {
        const dsp::json::Value *err = resp.find("error");
        return "error reply: " + (err ? err->stringAt("kind") + ": " +
                                            err->stringAt("message")
                                      : std::string("(none)"));
    }
    const dsp::json::Value *result = resp.find("result");
    if (!result)
        return "reply without result";
    const dsp::json::Value *degraded = result->find("degraded");
    if (degraded && degraded->boolean)
        return "degraded compile";
    const dsp::json::Value *out = result->find("output");
    const std::vector<uint32_t> &expected = r.bench->expected;
    if (!out || !out->isArray() || out->items.size() != expected.size())
        return "output size differs from reference";
    for (std::size_t i = 0; i < expected.size(); ++i)
        if (static_cast<uint32_t>(out->items[i].numberAt("raw")) !=
            expected[i])
            return "output word " + std::to_string(i) +
                   " differs from reference";
    cell = {result->longAt("cycles"), result->longAt("cost_words")};
    return "";
}

/** One client connection's closed loop and its tallies. */
struct Client
{
    explicit Client(const std::string &socket) : conn(socket) {}

    dsp::ServeClient conn;
    long long nextId = 0;
    /** Every call: when it returned, its latency, and whether the reply
     *  validated. */
    struct Sample
    {
        Clock::time_point done;
        double ms = 0;
        bool ok = false;
    };
    std::vector<Sample> samples;
    std::vector<double> encodeUs;
    std::vector<double> validateUs;
    long ok = 0;
    /** (benchmark name, mode) cells of validated replies. */
    Baseline cells;

    /** Forget the tallies (the connection stays open). */
    void
    reset()
    {
        samples.clear();
        encodeUs.clear();
        validateUs.clear();
        ok = 0;
        cells.clear();
    }

    /** Send @p r and validate the reply; false (with a complaint) on
     *  any failure. */
    bool
    call(const Request &r)
    {
        Clock::time_point t0 = Clock::now();
        std::string line = encodeRequest(++nextId, r);
        Clock::time_point t1 = Clock::now();
        std::string problem;
        BaselineCell cell;
        Clock::time_point t2;
        try {
            dsp::json::Value resp = conn.call(line);
            t2 = Clock::now();
            problem = checkReply(resp, r, cell);
            validateUs.push_back(msSince(t2) * 1e3);
        } catch (const std::exception &e) {
            t2 = Clock::now();
            problem = e.what();
        }
        encodeUs.push_back(msBetween(t0, t1) * 1e3);
        samples.push_back({t2, msBetween(t1, t2), problem.empty()});
        if (!problem.empty()) {
            complain(r.bench->name + " (" + r.mode + "): " + problem);
            return false;
        }
        cells[r.bench->name][r.mode] = cell;
        ++ok;
        return true;
    }
};

/** An in-process server and its client connection. */
struct Session
{
    /** Start server number @p index of this process and connect. */
    explicit Session(int index)
    {
        std::filesystem::create_directories(".bench_build");
        dsp::ServeOptions sopts;
        sopts.socketPath = ".bench_build/perfbench-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(index) + ".sock";
        sopts.threads = kWorkers;
        server = std::make_unique<dsp::Server>(sopts);
        server->start();
        client = std::make_unique<Client>(sopts.socketPath);
    }

    /** Closes the connection, then stops the server. */
    ~Session()
    {
        client.reset();
        server->stop();
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Serve @p requests in order; the validated cells (a failed
     *  request leaves its cell out). Tallies are reset after. */
    Baseline
    referencePass(const std::vector<Request> &requests)
    {
        for (const Request &r : requests)
            client->call(r);
        Baseline served = std::move(client->cells);
        client->reset();
        return served;
    }

    std::unique_ptr<dsp::Server> server;
    std::unique_ptr<Client> client;
};

/** The server's live dsp-stats-v2 object. */
dsp::json::Value
fetchStats(dsp::ServeClient &conn)
{
    dsp::json::Value resp = conn.call("{\"id\":0,\"op\":\"stats\"}");
    const dsp::json::Value *stats = resp.find("stats");
    dsp::require(stats != nullptr, "stats reply without stats");
    return *stats;
}

long
counter(const dsp::json::Value &stats, const std::string &name)
{
    const dsp::json::Value *counters = stats.find("counters");
    return counters ? counters->longAt(name, 0) : 0;
}

/** @p field ("p50_us", "p99_us") of the named server histogram. */
double
histogram(const dsp::json::Value &stats, const std::string &name,
          const std::string &field)
{
    if (const dsp::json::Value *hists = stats.find("histograms"))
        for (const dsp::json::Value &h : hists->items)
            if (h.stringAt("name") == name)
                return h.numberAt(field);
    return 0;
}

/** Request sources: serve_cold appends a request-unique comment. */
class Sources
{
  public:
    Sources(std::uint64_t seed, bool hot) : seed(seed), hot(hot) {}

    Request
    make(const dsp::Benchmark *bench, const std::string &mode, Rng &rng)
    {
        Request r{bench, mode, bench->source};
        if (!hot) {
            std::ostringstream nonce;
            nonce << "\n// perfbench seed " << seed << " request "
                  << made++ << " nonce " << std::hex
                  << rng.next() << "\n";
            r.source += nonce.str();
        }
        return r;
    }

  private:
    std::uint64_t seed;
    bool hot;
    long made = 0;
};

/**
 * Traced serve runs also break down the compile a request pays on a
 * miss: one staged pass over the 23 sources in the timed mode, run on
 * the server's fast engine, each checked against compileSource and
 * against the server's reply for that source.
 */
void
stagedPass(const std::vector<Request> &requests, const Baseline &served,
           std::map<std::string, double> &layers, long &failed)
{
    StageTimes times;
    StageCounts counts;
    long irreproducible = 0;
    double sim_ms = 0;
    long sim_cycles = 0;
    for (const Request &r : requests) {
        std::string problem;
        try {
            dsp::CompileOptions opts; // mode cb, as the requests
            dsp::CompileResult staged =
                compileStaged(r.source, opts, times, counts);
            opts.resilient = true; // the server's default
            dsp::CompileResult ref;
            problem = checkAgainstReference(staged, r.source, opts, ref,
                                            irreproducible);
            Clock::time_point t0 = Clock::now();
            dsp::RunResult run =
                dsp::runProgram(staged, r.bench->input, 200'000'000,
                                dsp::Fidelity::Fast);
            sim_ms += msSince(t0);
            sim_cycles += run.stats.cycles;
            if (!outputMatches(run.output, r.bench->expected))
                problem = "output differs from reference";
            if (run.stats.cycles !=
                served.at(r.bench->name).at("cb").cycles)
                problem = "cycles differ from the server's reply";
        } catch (const std::exception &e) {
            problem = e.what();
        }
        if (!problem.empty()) {
            complain("staged-equivalence: " + r.bench->name + ": " +
                     problem);
            ++failed;
        }
    }
    putStageLayers(layers, times);
    layers["sim.measure_ms"] = sim_ms;
    layers["sim.cycles.measure"] = static_cast<double>(sim_cycles);
    layers["sim.mcps.measure"] =
        static_cast<double>(sim_cycles) / (sim_ms * 1e3);
    layers["compile.count"] = static_cast<double>(counts.compiles);
    layers["ir.ops_after_opt"] = static_cast<double>(counts.irOpsAfterOpt);
    layers["codegen.vliw_words"] = static_cast<double>(counts.vliwWords);
    layers["compile.irreproducible"] = static_cast<double>(irreproducible);
}

/**
 * Confine this process's threads, and every thread it starts later
 * (the server's), to the CPU it runs on now. The closed-loop client
 * and the one worker pass each request along a chain of thread
 * hand-offs with at most one of them busy at a time; on one CPU each
 * hand-off is a local context switch instead of a wake-up of
 * an idle virtual CPU, whose latency on a shared host varies several
 * times over from run to run. Returns false if the mask is refused.
 */
bool
pinToCurrentCpu()
{
    int cpu = ::sched_getcpu();
    if (cpu < 0)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

} // namespace

int
runServe(const Options &opts, bool hot)
{
    if (!pinToCurrentCpu())
        std::cerr << "perfbench: could not confine the process to one "
                     "CPU; serve timings are unpinned\n";
    const std::vector<const dsp::Benchmark *> suite = dsp::allBenchmarks();
    const GenTotals expected = genTotals(loadBaseline(), kReferenceModes);
    EndToEnd e2e;
    Baseline served_cells;

    Sources sources(opts.seed, hot);
    Rng rng(opts.seed);
    bool correct = true;
    long attempted = 0, failed = 0;

    // Set-up: server start, the connection, and the reference pass
    // (23 sources x kReferenceModes in a seeded order). It is repeated kSetUps times on fresh servers and the
    // median reported; the last session serves the timed window.
    std::vector<Request> reference;
    for (std::size_t i : rng.permutation(suite.size()))
        for (const std::string &mode : kReferenceModes)
            reference.push_back(sources.make(suite[i], mode, rng));
    double init_ms = msSince(processStart());
    std::vector<double> setup_ms;
    std::unique_ptr<Session> session;
    for (int i = 0; i < kSetUps; ++i) {
        // Hand the previous session's freed heap back to the kernel, so
        // peak_rss_mb measures one server, not the repeated set-ups.
        session.reset();
        malloc_trim(0);
        Clock::time_point t0 = Clock::now();
        session = std::make_unique<Session>(i);
        Baseline served = session->referencePass(reference);
        setup_ms.push_back(msSince(t0));
        bool complete = served.size() == suite.size();
        for (const auto &[name, modes] : served)
            complete = complete && modes.size() == kReferenceModes.size();
        GenTotals gen =
            complete ? genTotals(served, kReferenceModes) : GenTotals{};
        if (!(gen == expected)) {
            complain("set-up reference pass: served cycles/cost/PG differ "
                     "from the baseline");
            correct = false;
        }
        e2e.gen = gen;
        served_cells = std::move(served);
    }
    e2e.setupS = (init_ms + median(setup_ms)) / 1000.0;
    Client &client = *session->client;

    dsp::json::Value before = fetchStats(client.conn);

    // The timed window: the client sends the 23 sources in one seeded
    // order after another and waits for every reply. Drawing without
    // replacement gives every slice the same mix of cheap and costly
    // requests, so slices differ only by how the host treated them.
    Clock::time_point w0 = Clock::now();
    Clock::time_point deadline =
        w0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(opts.seconds));
    Rng draw(opts.seed * 1000003ULL + 1);
    HostProbe probe;
    Clock::time_point next_probe = w0;
    while (Clock::now() < deadline)
        for (std::size_t i : draw.permutation(suite.size())) {
            if (Clock::now() >= deadline)
                break;
            if (Clock::now() >= next_probe) {
                probe.sample();
                next_probe += kProbeEvery;
            }
            client.call(sources.make(suite[i], "cb", draw));
        }
    e2e.timeScale = probe.timeScale();

    // Whole slices of about kSliceSeconds; a reply after the last one
    // counts only towards ok_frac.
    auto n_slices = static_cast<std::size_t>(
        std::max(1.0, std::round(opts.seconds / kSliceSeconds)));
    double slice_s = opts.seconds / static_cast<double>(n_slices);
    e2e.slices.assign(n_slices, Slice{slice_s, {}, 0});
    std::vector<double> call_ms;
    for (const Client::Sample &sample : client.samples) {
        auto i = static_cast<std::size_t>(msBetween(w0, sample.done) /
                                          1000.0 / slice_s);
        if (i < n_slices) {
            e2e.slices[i].opMs.push_back(sample.ms);
            e2e.slices[i].ok += sample.ok;
        }
        call_ms.push_back(sample.ms);
    }
    e2e.attempted = static_cast<long>(client.samples.size());
    e2e.ok = client.ok;
    attempted = e2e.attempted;
    failed = attempted - e2e.ok;

    // Workload-shape gates, from the server's own counters.
    dsp::json::Value after = fetchStats(client.conn);
    auto delta = [&](const std::string &name) {
        return counter(after, name) - counter(before, name);
    };
    long hits = delta("compile.cache.hit");
    long misses = delta("compile.cache.miss");
    long evictions = delta("compile.cache.eviction");
    auto gate = [&](bool ok, const std::string &what) {
        if (!ok) {
            complain("workload shape: " + what);
            correct = false;
        }
    };
    if (hot)
        gate(hits == attempted && misses == 0,
             "serve_hot must hit L1 on every request (" +
                 std::to_string(hits) + " hits, " + std::to_string(misses) +
                 " misses)");
    else
        gate(hits == 0 && evictions > 0,
             "serve_cold must never hit L1 and must evict (" +
                 std::to_string(hits) + " hits, " +
                 std::to_string(evictions) + " evictions)");
    for (const char *name : {"serve.shed", "serve.timeouts", "serve.retries",
                             "serve.degraded"})
        gate(counter(after, name) == 0,
             std::string(name) + " = " +
                 std::to_string(counter(after, name)));

    Report report;
    if (!opts.trace) {
        addEndToEnd(report, e2e);
    } else {
        std::map<std::string, double> layers;
        for (const char *phase : {"compile", "simulate", "serialize", "parse",
                                  "write", "cache", "total", "queue"}) {
            std::string hist = std::string("serve.latency.") + phase;
            std::string name = std::string("serve.") + phase + "_us";
            layers[name + ".p50"] = histogram(after, hist, "p50_us");
            layers[name + ".p99"] = histogram(after, hist, "p99_us");
        }
        layers["host.probe_ms"] = probe.medianMs();
        layers["serve.queue_depth.peak"] =
            static_cast<double>(counter(after, "serve.queue_depth.peak"));
        double call_p50_us = percentile(call_ms, 50) * 1e3;
        layers["client.encode_us"] = median(client.encodeUs);
        layers["client.call_us.p50"] = call_p50_us;
        layers["client.call_us.p99"] = percentile(call_ms, 99) * 1e3;
        layers["client.validate_us"] = median(client.validateUs);
        layers["transport_us"] =
            call_p50_us - layers["serve.total_us.p50"];
        layers["compile.cache.hit"] = static_cast<double>(hits);
        layers["compile.cache.miss"] = static_cast<double>(misses);
        layers["compile.cache.eviction"] = static_cast<double>(evictions);
        layers["compile.cache.hit_ratio"] =
            hits + misses > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(hits + misses)
                              : 0;
        for (const char *name : {"serve.shed", "serve.timeouts",
                                 "serve.retries"})
            layers[name] = static_cast<double>(counter(after, name));

        std::vector<Request> pass;
        for (const dsp::Benchmark *b : suite)
            pass.push_back(sources.make(b, "cb", rng));
        long staged_failed = 0;
        stagedPass(pass, served_cells, layers, staged_failed);
        attempted += static_cast<long>(pass.size());
        failed += staged_failed;
        addLayers(report, layers);
    }

    session.reset();
    return report.print(correct && failed == 0, attempted, failed) ? 0 : 1;
}

} // namespace perfbench
