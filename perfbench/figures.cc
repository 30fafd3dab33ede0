/**
 * @file
 * The `figures` workload: the paper-reproduction sweep behind
 * fig7/fig8/table3, one benchmark at a time on one worker.
 *
 * One op is bench::measureBenchmark on one suite benchmark: six
 * techniques compiled, simulated on the default Threaded engine and
 * validated against the host reference, plus the instrumented profile
 * run. A round is all 23 benchmarks in a seeded order; each round gets
 * a fresh CompileCache and round-unique source comments, so nothing is
 * memoised across rounds.
 *
 * The traced run (--trace 1) alternates untraced rounds with traced
 * ones that call the public stage functions and runProgram directly,
 * after a staged-equivalence pass proves the staged calls compile and
 * run exactly what compileSource + runProgram do.
 */

#include <sstream>

#include "common.hh"
#include "staged.hh"
#include "suite/suite.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

constexpr long kMaxCycles = 200'000'000;
/** Set-up warm-up rounds; setup_s reports their median. */
constexpr int kWarmUps = 5;

/** The six techniques of the paper's evaluation, in measureBenchmark's
 *  order (the profile run sits between cb and profile_cb). */
const std::vector<std::string> kTechniques = {
    "single_bank", "cb", "profile_cb", "cb_dup", "full_dup", "ideal"};

/** Non-resilient options for @p technique (profile_cb needs @p profile). */
dsp::CompileOptions
techniqueOptions(const std::string &technique,
                 const dsp::ProfileCounts *profile)
{
    dsp::CompileOptions opts;
    if (technique == "single_bank")
        opts.mode = dsp::AllocMode::SingleBank;
    else if (technique == "cb" || technique == "profile_cb")
        opts.mode = dsp::AllocMode::CB;
    else if (technique == "cb_dup")
        opts.mode = dsp::AllocMode::CBDup;
    else if (technique == "full_dup")
        opts.mode = dsp::AllocMode::FullDup;
    else
        opts.mode = dsp::AllocMode::Ideal;
    if (technique == "profile_cb") {
        opts.weights = dsp::WeightPolicy::Profile;
        opts.profile = profile;
    }
    return opts;
}

/** Seeded rounds: benchmark order and a round-unique trailing comment
 *  on every source. */
class RoundMaker
{
  public:
    explicit RoundMaker(std::uint64_t seed)
        : seed(seed), rng(seed), suite(dsp::allBenchmarks())
    {}

    std::vector<dsp::Benchmark>
    next()
    {
        std::vector<dsp::Benchmark> round;
        for (std::size_t i : rng.permutation(suite.size())) {
            dsp::Benchmark b = *suite[i];
            std::ostringstream nonce;
            nonce << "\n// perfbench seed " << seed << " round " << rounds
                  << " nonce " << std::hex << rng.next() << "\n";
            b.source += nonce.str();
            round.push_back(std::move(b));
        }
        ++rounds;
        return round;
    }

  private:
    std::uint64_t seed;
    Rng rng;
    std::vector<const dsp::Benchmark *> suite;
    long rounds = 0;
};

/** One untraced round: what a fig7/fig8 process does, one worker. */
struct RoundResult
{
    double ms = 0;
    std::vector<double> opMs;
    long ok = 0;
    long degradations = 0;
    /** Measured (benchmark, technique) cells of the validated ops. */
    Baseline cells;
};

RoundResult
runRound(const std::vector<dsp::Benchmark> &round)
{
    RoundResult rr;
    dsp::CompileCache cache;
    Clock::time_point t0 = Clock::now();
    for (const dsp::Benchmark &b : round) {
        Clock::time_point op0 = Clock::now();
        dsp::bench::BenchResult r;
        try {
            r = dsp::bench::measureBenchmark(b, &cache);
        } catch (const std::exception &e) {
            r.error = e.what();
        }
        rr.opMs.push_back(msSince(op0));
        rr.degradations += static_cast<long>(r.degradations.size());
        if (!r.ok()) {
            complain(b.name + ": " + r.error);
            continue;
        }
        if (!r.degradations.empty()) {
            complain(b.name + ": degraded: " + r.degradations.front());
            continue;
        }
        const dsp::bench::Measurement *m[] = {&r.base, &r.cb,      &r.pr,
                                              &r.dup,  &r.fullDup, &r.ideal};
        for (std::size_t t = 0; t < kTechniques.size(); ++t)
            rr.cells[b.name][kTechniques[t]] = {m[t]->cycles,
                                                m[t]->cost.total()};
        ++rr.ok;
    }
    rr.ms = msSince(t0);
    return rr;
}

/** Host time and work of the simulator runs in traced rounds. */
struct SimLayer
{
    double profileMs = 0;
    long profileCycles = 0;
    double measureMs = 0;
    long measureCycles = 0;
};

/** One traced round: every stage and run of every (benchmark,
 *  technique) timed from outside. */
struct TracedRound
{
    double ms = 0;
    StageTimes stages;
    StageCounts counts;
    SimLayer sim;
    long ok = 0;
};

/** Run @p compiled on @p fidelity, adding host time to @p ms. */
dsp::RunResult
timedRun(const dsp::CompileResult &compiled, const dsp::Benchmark &b,
         dsp::Fidelity fidelity, double &ms, long &cycles)
{
    Clock::time_point t0 = Clock::now();
    dsp::RunResult run = dsp::runProgram(compiled, b.input, kMaxCycles,
                                         fidelity);
    ms += msSince(t0);
    cycles += run.stats.cycles;
    return run;
}

TracedRound
runTracedRound(const std::vector<dsp::Benchmark> &round)
{
    TracedRound tr;
    Clock::time_point t0 = Clock::now();
    for (const dsp::Benchmark &b : round) {
        bool ok = true;
        try {
            dsp::ProfileCounts profile;
            for (const std::string &technique : kTechniques) {
                dsp::CompileResult compiled =
                    compileStaged(b.source, techniqueOptions(technique, &profile),
                                  tr.stages, tr.counts);
                if (technique == "cb")
                    profile = timedRun(compiled, b,
                                       dsp::Fidelity::Instrumented,
                                       tr.sim.profileMs,
                                       tr.sim.profileCycles)
                                  .profile;
                dsp::RunResult run =
                    timedRun(compiled, b, dsp::Fidelity::Threaded,
                             tr.sim.measureMs, tr.sim.measureCycles);
                if (!outputMatches(run.output, b.expected)) {
                    complain(b.name + " (" + technique +
                             ", staged): output differs from reference");
                    ok = false;
                }
            }
        } catch (const std::exception &e) {
            complain(b.name + " (staged): " + e.what());
            ok = false;
        }
        tr.ok += ok;
    }
    tr.ms = msSince(t0);
    return tr;
}

/**
 * The staged-equivalence check for one benchmark: for every technique,
 * the staged calls (strict optimizer) and compileSource (resilient, as
 * the harness compiles) must give the same VLIW words, and runProgram
 * on each the same cycles and output. Returns the first difference.
 */
std::string
stagedDifference(const dsp::Benchmark &b, long &irreproducible)
{
    StageTimes times;
    StageCounts counts;
    dsp::ProfileCounts staged_profile, ref_profile;
    for (const std::string &technique : kTechniques) {
        dsp::CompileResult staged = compileStaged(
            b.source, techniqueOptions(technique, &staged_profile), times,
            counts);
        dsp::CompileOptions ref_opts =
            techniqueOptions(technique, &ref_profile);
        ref_opts.resilient = true;
        dsp::CompileResult ref;
        std::string where = b.name + " (" + technique + "): ";
        if (std::string d = checkAgainstReference(staged, b.source, ref_opts,
                                                  ref, irreproducible);
            !d.empty())
            return where + d;

        std::vector<dsp::Fidelity> engines = {dsp::Fidelity::Threaded};
        if (technique == "cb")
            engines.push_back(dsp::Fidelity::Instrumented);
        for (dsp::Fidelity engine : engines) {
            dsp::RunResult s =
                dsp::runProgram(staged, b.input, kMaxCycles, engine);
            dsp::RunResult r =
                dsp::runProgram(ref, b.input, kMaxCycles, engine);
            if (std::string d = compareRuns(s, r); !d.empty())
                return where + d;
            if (!outputMatches(s.output, b.expected))
                return where + "output differs from reference";
            if (engine == dsp::Fidelity::Instrumented) {
                if (s.profile != r.profile)
                    return where + "profile counts differ";
                staged_profile = s.profile;
                ref_profile = r.profile;
            }
        }
    }
    return "";
}

template <typename T, typename F>
double
medianOf(const std::vector<T> &xs, F &&field)
{
    std::vector<double> v;
    for (const T &x : xs)
        v.push_back(static_cast<double>(field(x)));
    return median(std::move(v));
}

} // namespace

int
runFigures(const Options &opts)
{
    const GenTotals expected = genTotals(loadBaseline(), kTechniques);
    RoundMaker rounds(opts.seed);

    bool correct = true;
    auto checkGen = [&](const RoundResult &rr) {
        GenTotals got = genTotals(rr.cells, kTechniques);
        if (rr.cells.size() != dsp::allBenchmarks().size() ||
            !(got == expected)) {
            complain("generated cycles/cost/PG differ from the baseline");
            correct = false;
        }
        return got;
    };

    // Set-up: suite construction and baseline, then an untimed nonced
    // warm-up round, repeated kWarmUps times; setup_s reports the
    // one-time part plus the median warm-up.
    EndToEnd e2e;
    double init_ms = msSince(processStart());
    std::vector<double> warm_ms;
    long warm_degradations = 0;
    GenTotals gen;
    for (int i = 0; i < kWarmUps; ++i) {
        RoundResult warm = runRound(rounds.next());
        warm_ms.push_back(warm.ms);
        warm_degradations += warm.degradations;
        gen = checkGen(warm);
    }
    e2e.setupS = (init_ms + median(warm_ms)) / 1000.0;

    long attempted = 0, failed = 0;
    std::vector<RoundResult> plain;
    std::vector<TracedRound> traced;

    long irreproducible = 0;
    if (opts.trace) {
        // Prove the staged calls do the harness's work before timing
        // them.
        for (const dsp::Benchmark &b : rounds.next()) {
            ++attempted;
            std::string diff;
            try {
                diff = stagedDifference(b, irreproducible);
            } catch (const std::exception &e) {
                diff = b.name + ": " + e.what();
            }
            if (!diff.empty()) {
                complain("staged-equivalence: " + diff);
                ++failed;
            }
        }
    }

    HostProbe probe;
    Clock::time_point w0 = Clock::now();
    while (msSince(w0) < opts.seconds * 1000.0 || plain.empty() ||
           (opts.trace && traced.empty())) {
        probe.sample();
        plain.push_back(runRound(rounds.next()));
        const RoundResult &rr = plain.back();
        e2e.slices.push_back({rr.ms / 1000.0, rr.opMs, rr.ok});
        e2e.attempted += static_cast<long>(rr.opMs.size());
        e2e.ok += rr.ok;
        attempted += static_cast<long>(rr.opMs.size());
        failed += static_cast<long>(rr.opMs.size()) - rr.ok;
        gen = checkGen(rr);
        if (opts.trace) {
            traced.push_back(runTracedRound(rounds.next()));
            attempted += static_cast<long>(dsp::allBenchmarks().size());
            failed += static_cast<long>(dsp::allBenchmarks().size()) -
                      traced.back().ok;
        }
    }
    e2e.gen = gen;
    e2e.timeScale = probe.timeScale();

    Report report;
    if (!opts.trace) {
        addEndToEnd(report, e2e);
    } else {
        std::map<std::string, double> layers;
        StageTimes stages; // per-layer median over traced rounds
        for (double StageTimes::*f :
             {&StageTimes::parse, &StageTimes::sema, &StageTimes::lowerIr,
              &StageTimes::opt, &StageTimes::isel, &StageTimes::alloc,
              &StageTimes::regalloc, &StageTimes::layout,
              &StageTimes::mcverify})
            stages.*f = medianOf(
                traced, [f](const TracedRound &t) { return t.stages.*f; });
        putStageLayers(layers, stages);

        const TracedRound &last = traced.back();
        double profile_ms = medianOf(
            traced, [](const TracedRound &t) { return t.sim.profileMs; });
        double measure_ms = medianOf(
            traced, [](const TracedRound &t) { return t.sim.measureMs; });
        layers["sim.profile_ms"] = profile_ms;
        layers["sim.cycles.profile"] =
            static_cast<double>(last.sim.profileCycles);
        layers["sim.mcps.profile"] =
            static_cast<double>(last.sim.profileCycles) / (profile_ms * 1e3);
        layers["sim.measure_ms"] = measure_ms;
        layers["sim.cycles.measure"] =
            static_cast<double>(last.sim.measureCycles);
        layers["sim.mcps.measure"] =
            static_cast<double>(last.sim.measureCycles) / (measure_ms * 1e3);

        double untraced_ms =
            medianOf(plain, [](const RoundResult &r) { return r.ms; });
        double traced_ms =
            medianOf(traced, [](const TracedRound &t) { return t.ms; });
        double layer_sum = medianOf(traced, [](const TracedRound &t) {
            return t.stages.total() + t.sim.profileMs + t.sim.measureMs;
        });
        layers["harness.other_ms"] = untraced_ms - layer_sum;
        layers["round.untraced_ms"] = untraced_ms;
        layers["round.traced_ms"] = traced_ms;
        layers["trace.overhead_ms"] = traced_ms - untraced_ms;
        layers["host.probe_ms"] = probe.medianMs();

        layers["compile.count"] = static_cast<double>(last.counts.compiles);
        layers["compile.irreproducible"] = static_cast<double>(irreproducible);
        layers["ir.ops_after_opt"] =
            static_cast<double>(last.counts.irOpsAfterOpt);
        layers["codegen.vliw_words"] =
            static_cast<double>(last.counts.vliwWords);
        long degradations = warm_degradations;
        for (const RoundResult &r : plain)
            degradations += r.degradations;
        layers["compile.degradations"] = static_cast<double>(degradations);
        addLayers(report, layers);
    }

    return report.print(correct && failed == 0, attempted, failed) ? 0 : 1;
}

} // namespace perfbench
