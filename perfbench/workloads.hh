/**
 * @file
 * The benchmark's workloads (see NOTES.md for why each exists). Each
 * runs set-up, a timed window of --seconds, and the correctness gates,
 * then prints the result line; the return value is the exit code.
 */

#ifndef DSP_PERFBENCH_WORKLOADS_HH
#define DSP_PERFBENCH_WORKLOADS_HH

#include "util.hh"

namespace perfbench
{

/** `figures`: the fig7/fig8 reproduction sweep, one worker. */
int runFigures(const Options &opts);

/** `serve_cold` (@p hot false) and `serve_hot` (@p hot true): one
 *  closed-loop client against an in-process one-worker Server, the
 *  whole process on one CPU. */
int runServe(const Options &opts, bool hot);

} // namespace perfbench

#endif // DSP_PERFBENCH_WORKLOADS_HH
