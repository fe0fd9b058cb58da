// Quickstart: the smallest complete NektarG-style coupled simulation.
//
// A continuum channel (SEM Navier-Stokes) carries a steady flow; a DPD box
// is embedded in its middle; every coupling interval the continuum velocity
// is interpolated onto the atomistic inflow (scaled by Eq. 1) and the DPD
// solver advances with the Fig. 5 schedule. At the end we print the two
// velocity profiles side by side so you can see the coupling at work.
//
// The run is a scenario (docs/SCENARIOS.md), by default the quickstart preset
// (examples/scenarios/quickstart.json); driver.cpp holds the flags, the run
// and the printout.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include "driver.hpp"
#include "scenario/presets.hpp"

int main(int argc, char** argv) {
  return drive_scenario(argc, argv, "quickstart",
                        "NektarG quickstart: continuum channel + embedded DPD box",
                        scenario::quickstart_preset);
}
