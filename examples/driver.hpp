#pragma once
// The one scenario driver behind quickstart and coupled3d (driver.cpp). The
// binaries differ only in their banner and the preset that runs without
// --scenario; either one runs a scenario of any kind.

#include "scenario/schema.hpp"

/// Parse the flags, load the scenario (`--scenario FILE`, else `preset()`)
/// and apply each `--set`, run it once or as a `--sweep` ensemble and print
/// the epilogue of its kind. Returns the process exit code.
int drive_scenario(int argc, char** argv, const char* prog, const char* banner,
                   scenario::Scenario (*preset)());
