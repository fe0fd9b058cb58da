#pragma once
// Built-in scenario presets: the runs of the examples and the coupled
// figures. examples/scenarios/{quickstart,coupled3d,aneurysm}.json are
// exactly scenario_to_json of these three presets: a test pins their bytes
// and their digests, so the JSON on disk can never drift from the code that
// defines the runs.

#include "scenario/schema.hpp"

namespace scenario {

/// The quickstart example (kind "cdc"): 2D SEM channel + embedded DPD box.
Scenario quickstart_preset();

/// The coupled3d example (kind "cdc3d"): 3D SEM box + embedded DPD box.
Scenario coupled3d_preset();

/// The Fig. 10 run (kind "cdc"): a 2D channel with an aneurysm-like cavity
/// and a DPD box over the sac, seeded with platelets. aneurysm_clot and
/// multiscale_viz start from it too.
Scenario aneurysm_preset();

}  // namespace scenario
