#pragma once
// Forwarding include: the 3D coupler is ContinuumDpdCoupler3D in cdc.hpp.
// Kept for bench/e2e/coupled.cpp, which includes this header by name.

#include "coupling/cdc.hpp"
