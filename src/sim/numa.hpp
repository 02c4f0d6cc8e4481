#pragma once

/// \file numa.hpp
/// NUMA-aware placement for the sharded engine's hot arrays, behind the
/// `--numa=` knob:
///
///   - off        — historical behavior: the calling thread allocates
///                  and initializes live/snapshot, so on a multi-socket
///                  box every page lands on the allocating thread's node;
///   - firsttouch — live/snapshot (and each shard's delta row) are
///                  allocated *uninitialized* and each shard's ranges are
///                  first written by that shard's init job on the
///                  process executor, so the OS places those pages on
///                  the node of whichever thread ran the job;
///   - bind       — firsttouch plus pinning: a process-executor worker
///                  that runs an init job first pins itself — worker w
///                  to CPU floor((w + 1) * ncpu / (workers + 1)), the
///                  main thread being lane 0 and never pinned — and it
///                  stays pinned for the executor's lifetime, not just
///                  the run.
///
/// Locality is best effort: the executor fixes no shard-to-worker
/// mapping, so a later epoch's shard may run on another worker than the
/// one that first touched its pages. (A deterministic affinity hint
/// waits for a NUMA host to measure it on.)
///
/// All three modes are trajectory-neutral: placement and pinning never
/// touch an RNG stream, so results stay bit-identical across modes (the
/// same contract --jobs= has). Pinning uses sched_setaffinity and is
/// Linux-only; off-Linux, bind degrades to firsttouch with no error —
/// the knob is a performance hint, not a correctness switch.

#include <cstdint>
#include <string>

#include "support/assert.hpp"

namespace plurality {

namespace jobs {
class Executor;
}

enum class NumaMode : std::uint8_t {
  kOff,         ///< calling-thread allocation + initialization (historical)
  kFirstTouch,  ///< shard ranges first written by their init jobs
  kBind,        ///< first-touch + pinning the executor's workers (Linux)
};

inline const char* numa_mode_name(NumaMode mode) noexcept {
  switch (mode) {
    case NumaMode::kOff: return "off";
    case NumaMode::kFirstTouch: return "firsttouch";
    case NumaMode::kBind: return "bind";
  }
  return "unknown";
}

/// Parses a `--numa=` value; throws ContractViolation (naming the flag)
/// on anything unrecognized.
inline NumaMode parse_numa_mode(const std::string& name) {
  if (name == "off") return NumaMode::kOff;
  if (name == "firsttouch") return NumaMode::kFirstTouch;
  if (name == "bind") return NumaMode::kBind;
  throw ContractViolation("--numa=" + name +
                          " is not one of off|firsttouch|bind");
}

namespace numa {

/// Pins the calling thread when it is one of `executor`'s workers:
/// worker w is lane w + 1 of workers() + 1, spread evenly over the
/// online CPUs. A thread the executor does not own is left alone —
/// constraining it would outlive the run. No-op off-Linux or when
/// pinning fails (a restricted affinity mask is not an error — the knob
/// is best-effort).
void pin_worker(const jobs::Executor& executor) noexcept;

}  // namespace numa

}  // namespace plurality
