/**
 * @file
 * perfbench: the repository benchmark (see NOTES.md).
 *
 *     perfbench --workload figures|serve_cold|serve_hot
 *               [--seed N] [--seconds S] [--trace 0|1]
 *
 * Run from the repository root (it reads
 * bench/baselines/BENCH_sim.json). The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"} with the
 * end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
 * Exit code 0 only when every output was correct.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem
              << "\nusage: perfbench --workload figures|serve_cold|serve_hot"
                 " [--seed N] [--seconds S] [--trace 0|1]\n";
    std::exit(2);
}

perfbench::Options
parseArgs(int argc, char **argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                opts.workload = value;
            else if (flag == "--seed")
                opts.seed = std::stoull(value);
            else if (flag == "--seconds")
                opts.seconds = std::stod(value);
            else if (flag == "--trace")
                opts.trace = std::stoi(value) != 0;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (opts.seconds <= 0 || opts.seconds > 120)
        usage("--seconds must be in (0, 120]");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts = parseArgs(argc, argv);
    try {
        if (opts.workload == "figures")
            return perfbench::runFigures(opts);
        if (opts.workload == "serve_cold")
            return perfbench::runServe(opts, false);
        if (opts.workload == "serve_hot")
            return perfbench::runServe(opts, true);
        usage("unknown workload '" + opts.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
