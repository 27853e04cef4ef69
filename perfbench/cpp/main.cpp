/**
 * @file
 * nvwal_perfbench: one run of one workload.
 *
 *   nvwal_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * NAME is update-large or append-window. The measured phase
 * lasts S seconds of wall time; inputs derive from N only. With
 * --trace 0 the run prints the end-to-end metrics, with --trace 1 the
 * per-layer metrics. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Exit status
 * 2 means bad arguments, 1 a set-up failure.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: nvwal_perfbench --workload "
                 "update-large|append-window --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                return usage();
        } else {
            return usage();
        }
        if (end != nullptr && *end != '\0')
            return usage();
    }
    if (argc % 2 != 1 || !(args.seconds > 0) || args.seconds > 3600)
        return usage();
    if (args.workload == "update-large" || args.workload == "append-window")
        return perfbench::runSingleWriter(args);
    return usage();
}
