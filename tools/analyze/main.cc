/**
 * @file
 * Entry point of erec_analyze; see cli.h for usage and exit codes.
 */

#include <iostream>
#include <string>
#include <vector>

#include "tools/analyze/cli.h"

int
main(int argc, char **argv)
{
    return erec::analyze::runCli(
        std::vector<std::string>(argv + 1, argv + argc), std::cout,
        std::cerr);
}
