#pragma once

/**
 * @file
 * Command line of erec_analyze, the repo's one static analyzer:
 *
 *     erec_analyze <lint|arch|hotpath|conc> --root <dir> [--root <dir>...]
 *         [--config <layers.conf>] [--format text|json]
 *
 * Each invocation reads the C++ files under the roots (relative to the
 * current directory, which should be the repo root so paths in reports
 * are repo-relative and quoted includes resolve) into one FileSet and
 * runs one pass over it:
 *
 *  - lint: the repo lint rules (lint.h); text output only.
 *  - arch: the layer DAG and include cycles (arch.h); `--config`
 *    names layers.conf and is required.
 *  - hotpath: the zero-alloc hot path (hotpath.h).
 *  - conc: lock order, blocking under a lock, annotation coverage
 *    (conc.h).
 *
 * Exit codes: 0 = clean, 1 = violations, 2 = usage error, unreadable
 * input or malformed config. A failing text report goes to stderr;
 * JSON reports go to stdout.
 */

#include <ostream>
#include <string>
#include <vector>

namespace erec::analyze {

/** Run the CLI on `args` (argv without the program name) and return
 *  the exit code. */
int runCli(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err);

} // namespace erec::analyze
