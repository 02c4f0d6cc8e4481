#include "fingerprint.hpp"

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

/// The bracketed choice of the kernel's THP setting, e.g. "madvise".
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  if (!std::getline(in, line)) return "unavailable";
  const auto open = line.find('[');
  const auto close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return line;
  return line.substr(open + 1, close - open - 1);
}

}  // namespace

plurality::JsonValue host_build_fingerprint() {
  plurality::JsonValue fp = plurality::JsonValue::object();
  fp["nproc"] = std::thread::hardware_concurrency();
  fp["cpu_model"] = cpu_model();
#if defined(_SC_LEVEL2_CACHE_SIZE)
  fp["l2_bytes"] = sysconf(_SC_LEVEL2_CACHE_SIZE);
  fp["l3_bytes"] = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  fp["thp"] = thp_mode();
  fp["compiler"] = PERFBENCH_COMPILER;
  fp["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
  return fp;
}

}  // namespace perfbench
