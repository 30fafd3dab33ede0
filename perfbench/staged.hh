/**
 * @file
 * The traced run's view of one compile: the public stage functions
 * called one by one, in compileOnce's order, each timed from outside.
 * No tracing is added inside the program.
 */

#ifndef DSP_PERFBENCH_STAGED_HH
#define DSP_PERFBENCH_STAGED_HH

#include <map>
#include <string>
#include <vector>

#include "driver/compiler.hh"

namespace perfbench
{

/** Host milliseconds per compile layer (summed over many compiles). */
struct StageTimes
{
    double parse = 0;    ///< minic: parseProgram
    double sema = 0;     ///< minic: analyzeProgram
    double lowerIr = 0;  ///< lower: lowerProgram + IR verify
    double opt = 0;      ///< opt: runStandardPipeline + IR verify
    double isel = 0;     ///< codegen: lowerToMachine
    double alloc = 0;    ///< codegen: runDataAllocation (the paper's pass)
    double regalloc = 0; ///< codegen: allocateRegisters + buildFrame
    double layout = 0;   ///< codegen: compaction + layoutProgram
    double mcverify = 0; ///< codegen: verifyMachineCodeOrDie

    double total() const;
};

/** Set the compile-layer metrics ("minic.parse_ms" ...
 *  "codegen.mcverify_ms") from @p times. */
void putStageLayers(std::map<std::string, double> &layers,
                    const StageTimes &times);

/** Work counts of the staged compiles (summed). */
struct StageCounts
{
    long compiles = 0;
    long irOpsAfterOpt = 0;
    long vliwWords = 0;
};

/**
 * compileSource(source, opts) for a non-resilient @p opts, stage by
 * stage, adding each stage's host time to @p times and its work to
 * @p counts. The strict optimizer is used; with no fault injected it
 * must produce what the resilient one does (checked by
 * checkAgainstReference()).
 */
dsp::CompileResult compileStaged(const std::string &source,
                                 const dsp::CompileOptions &opts,
                                 StageTimes &times, StageCounts &counts);

/**
 * The staged-equivalence check for one compile: @p staged must be a
 * result compileSource(source, @p ref_opts) gives — the same data
 * layout, duplication decisions and VLIW instruction words. The
 * compiler's words are not reproducible for every benchmark (two
 * compileSource calls in one process can pick different but
 * equivalent registers; see NOTES.md), so on a word mismatch the
 * reference is recompiled, up to 1000 times, until one compile
 * reproduces @p staged's words exactly; each such case adds one to
 * @p irreproducible. @p ref receives the first reference compile.
 * Returns "" or the difference.
 */
std::string checkAgainstReference(const dsp::CompileResult &staged,
                                  const std::string &source,
                                  const dsp::CompileOptions &ref_opts,
                                  dsp::CompileResult &ref,
                                  long &irreproducible);

/** Differences between two runs: cycles and output words. */
std::string compareRuns(const dsp::RunResult &a, const dsp::RunResult &b);

/** @p output's raw words equal @p expected. */
bool outputMatches(const std::vector<dsp::OutputWord> &output,
                   const std::vector<uint32_t> &expected);

} // namespace perfbench

#endif // DSP_PERFBENCH_STAGED_HH
