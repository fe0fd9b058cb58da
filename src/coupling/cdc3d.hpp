#pragma once
// analyze: unreached-ok (ROADMAP item 2: deleted once bench/e2e stops including it)
// Forwarding include: the 3D coupler is ContinuumDpdCoupler3D in cdc.hpp.
// Kept for bench/e2e/coupled.cpp, which includes this header by name.

#include "coupling/cdc.hpp"
