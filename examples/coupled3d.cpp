// Example: the paper's configuration in full 3D — a 3D spectral-element
// Navier-Stokes channel (plates at z = 0, H) with an embedded 3D DPD box,
// coupled through Eq. (1) and the Fig. 5 schedule with no dimension
// folding. Prints the continuum and atomistic velocity profiles across the
// gap.
//
// The run is a scenario (docs/SCENARIOS.md), by default the coupled3d preset
// (examples/scenarios/coupled3d.json); driver.cpp holds the flags, the run
// and the printout.
//
// Run: ./build/examples/coupled3d

#include "driver.hpp"
#include "scenario/presets.hpp"

int main(int argc, char** argv) {
  return drive_scenario(argc, argv, "coupled3d",
                        "Fully 3D coupled simulation: SEM hexahedra + DPD box",
                        scenario::coupled3d_preset);
}
