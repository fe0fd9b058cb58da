#include "scenario/presets.hpp"

namespace scenario {

Scenario quickstart_preset() {
  Scenario sc;
  sc.name = "quickstart";
  sc.kind = "cdc";
  // Every spec default is already the quickstart value (schema.hpp); only
  // the checkpoint directory differs from the schema default.
  sc.checkpoint.dir = "quickstart-ckpt";
  validate_scenario(sc);
  return sc;
}

Scenario coupled3d_preset() {
  Scenario sc;
  sc.name = "coupled3d";
  sc.kind = "cdc3d";
  sc.sem.time_order = 2;
  sc.coupling.region = {1.5, 2.5, 0.25, 0.75, 0.0, 1.0};
  sc.time.intervals = 25;
  sc.time.sample_from = 15;
  sc.checkpoint.dir = "coupled3d-ckpt";
  validate_scenario(sc);
  return sc;
}

Scenario aneurysm_preset() {
  Scenario sc;
  sc.name = "aneurysm";
  sc.kind = "cdc";
  sc.mesh = {8.0, 1.0, 16, 2, 4, {3.0, 5.0, 1.0}};
  sc.sem.nu = 0.02;
  // the DPD box covers NS x in [2, 6] and the channel plus the sac in z
  sc.dpd.box = {20.0, 5.0, 10.0};
  sc.dpd.seed = 41;
  sc.dpd.geometry = {"channel_with_cavity_z", 5.0, {6.0, 14.0, 5.0}};
  sc.platelets = {60, 1.2, 1.0, 0.8};
  sc.coupling.scales = {1.0, 5.0, 0.02, 0.4};
  sc.coupling.exchange_every_ns = 5;
  sc.coupling.region = {2.0, 6.0, 0.0, 2.0};
  sc.time.intervals = 32;
  sc.time.develop_steps = 150;
  sc.checkpoint.dir = "aneurysm-ckpt";
  validate_scenario(sc);
  return sc;
}

}  // namespace scenario
