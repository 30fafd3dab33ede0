#include "staged.hh"

#include "codegen/alloc.hh"
#include "codegen/frame.hh"
#include "codegen/isel.hh"
#include "codegen/layout.hh"
#include "codegen/mcverify.hh"
#include "codegen/regalloc.hh"
#include "ir/verifier.hh"
#include "lower/lower.hh"
#include "minic/parser.hh"
#include "minic/sema.hh"
#include "opt/passes.hh"
#include "util.hh"

namespace perfbench
{

double
StageTimes::total() const
{
    return parse + sema + lowerIr + opt + isel + alloc + regalloc +
           layout + mcverify;
}

void
putStageLayers(std::map<std::string, double> &layers, const StageTimes &times)
{
    layers["minic.parse_ms"] = times.parse;
    layers["minic.sema_ms"] = times.sema;
    layers["lower.ir_ms"] = times.lowerIr;
    layers["opt.pipeline_ms"] = times.opt;
    layers["codegen.isel_ms"] = times.isel;
    layers["codegen.alloc_ms"] = times.alloc;
    layers["codegen.regalloc_ms"] = times.regalloc;
    layers["codegen.layout_ms"] = times.layout;
    layers["codegen.mcverify_ms"] = times.mcverify;
}

namespace
{

/** Run @p f and add its host milliseconds to @p acc. */
template <typename F>
void
timed(double &acc, F &&f)
{
    Clock::time_point t0 = Clock::now();
    f();
    acc += msSince(t0);
}

} // namespace

dsp::CompileResult
compileStaged(const std::string &source, const dsp::CompileOptions &opts,
              StageTimes &times, StageCounts &counts)
{
    using namespace dsp;
    CompileResult result;
    result.options = opts;

    timed(times.parse,
          [&] { result.ast = parseProgram(source, opts.maxErrors); });
    timed(times.sema, [&] { analyzeProgram(*result.ast); });
    timed(times.lowerIr, [&] {
        result.module = lowerProgram(*result.ast);
        verifyOrDie(*result.module);
    });
    if (opts.optLevel > 0) {
        timed(times.opt, [&] {
            runStandardPipeline(*result.module);
            verifyOrDie(*result.module);
        });
    }
    for (const auto &fn : result.module->functions)
        for (const auto &bb : fn->blocks)
            counts.irOpsAfterOpt += static_cast<long>(bb->ops.size());

    timed(times.isel, [&] { lowerToMachine(*result.module); });

    AllocOptions alloc_opts;
    alloc_opts.mode = opts.mode;
    alloc_opts.weights = opts.weights;
    alloc_opts.alternatingPartitioner = opts.alternatingPartitioner;
    alloc_opts.atomicDupStores = opts.atomicDupStores;
    alloc_opts.profile = opts.profile;
    timed(times.alloc, [&] {
        result.alloc = runDataAllocation(*result.module, alloc_opts);
    });

    FrameOptions frame_opts;
    frame_opts.dualStacks = opts.mode != AllocMode::SingleBank &&
                            opts.mode != AllocMode::Ideal;
    frame_opts.idealTags = opts.mode == AllocMode::Ideal;
    timed(times.regalloc, [&] {
        for (auto &fn : result.module->functions) {
            RegAllocResult ra = allocateRegisters(*fn, *result.module);
            buildFrame(*fn, *result.module, ra, frame_opts);
        }
    });

    MachineConfig config = opts.machine;
    config.dualPorted = opts.mode == AllocMode::Ideal;
    timed(times.layout, [&] {
        result.program =
            layoutProgram(*result.module, config, &result.layout);
    });
    if (opts.verifyMc) {
        timed(times.mcverify, [&] {
            verifyMachineCodeOrDie(result.program, *result.module);
        });
    }

    ++counts.compiles;
    counts.vliwWords += result.program.instructionWords();
    return result;
}

std::string
checkAgainstReference(const dsp::CompileResult &staged,
                      const std::string &source,
                      const dsp::CompileOptions &ref_opts,
                      dsp::CompileResult &ref, long &irreproducible)
{
    constexpr int kReferenceTries = 1000;
    ref = dsp::compileSource(source, ref_opts);
    if (ref.degraded())
        return "reference compile degraded";
    if (staged.layout.dataWordsX != ref.layout.dataWordsX ||
        staged.layout.dataWordsY != ref.layout.dataWordsY)
        return "data layout differs";
    if (staged.alloc.extraStores != ref.alloc.extraStores ||
        staged.alloc.duplicated.size() != ref.alloc.duplicated.size())
        return "duplication decisions differ";
    std::string words = dsp::printVliwProgram(staged.program);
    if (words == dsp::printVliwProgram(ref.program))
        return "";
    for (int i = 0; i < kReferenceTries; ++i) {
        if (words == dsp::printVliwProgram(
                         dsp::compileSource(source, ref_opts).program)) {
            ++irreproducible;
            return "";
        }
    }
    return "VLIW instruction words differ from every reference compile";
}

std::string
compareRuns(const dsp::RunResult &a, const dsp::RunResult &b)
{
    if (a.stats.cycles != b.stats.cycles)
        return "simulated cycles differ (" + std::to_string(a.stats.cycles) +
               " vs " + std::to_string(b.stats.cycles) + ")";
    if (a.output.size() != b.output.size())
        return "output sizes differ";
    for (std::size_t i = 0; i < a.output.size(); ++i)
        if (a.output[i].raw != b.output[i].raw)
            return "output word " + std::to_string(i) + " differs";
    return "";
}

bool
outputMatches(const std::vector<dsp::OutputWord> &output,
              const std::vector<uint32_t> &expected)
{
    if (output.size() != expected.size())
        return false;
    for (std::size_t i = 0; i < output.size(); ++i)
        if (output[i].raw != expected[i])
            return false;
    return true;
}

} // namespace perfbench
