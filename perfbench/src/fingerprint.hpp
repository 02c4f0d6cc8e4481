#pragma once

/// \file fingerprint.hpp
/// The host and build shape a result was measured on: results from
/// different shapes are labelled as such and never compared.

#include "experiment/json_writer.hpp"

namespace perfbench {

/// nproc, CPU model, L2/L3 sizes, transparent-huge-page mode, compiler,
/// flags and build type. (run.py adds the source revision.)
plurality::JsonValue host_build_fingerprint();

}  // namespace perfbench
