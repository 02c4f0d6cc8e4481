#include "experiment/args.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "support/assert.hpp"

namespace plurality {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw ContractViolation("--" + key + " expects " + expected + ", got '" +
                          value + "'");
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--", 0) != 0) {
      throw ContractViolation(
          "unrecognized positional argument '" + std::string(arg) +
          "' (arguments must look like --key=value or --flag)");
    }
    const std::string_view body = arg.substr(2);
    if (body.empty()) {
      throw ContractViolation("empty option '--' is not a valid argument");
    }
    const std::size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(body)] = "";
    } else if (eq == 0) {
      throw ContractViolation("argument '" + std::string(arg) +
                              "' is missing a key before '='");
    } else {
      values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
    }
  }
}

const std::string* Args::find(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  const std::lock_guard<std::mutex> lock(read_->mutex);
  read_->keys.insert(key);
  return &it->second;
}

void Args::warn_unread(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(read_->mutex);
  for (const auto& entry : values_) {
    if (read_->keys.count(entry.first) == 0) {
      os << "warning: --" << entry.first
         << " was not read by any experiment\n";
    }
  }
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const std::string* found = find(key);
  if (found == nullptr) return fallback;
  const std::string& value = *found;
  // strtoull silently wraps negative input and parses "" / "12x" as 0 /
  // 12; validate with endptr so typos fail loudly instead of becoming
  // surprising parameter values. Requiring a leading digit also blocks
  // strtoull's whitespace-then-sign path (" -3" would wrap to ~2^64).
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0]))) {
    bad_value(key, value, "an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size() || errno == ERANGE) {
    bad_value(key, value, "an unsigned integer");
  }
  return parsed;
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string* found = find(key);
  if (found == nullptr) return fallback;
  const std::string& value = *found;
  if (value.empty() ||
      std::isspace(static_cast<unsigned char>(value[0]))) {
    bad_value(key, value, "a number");
  }
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) {
    bad_value(key, value, "a number");
  }
  // Overflow text ("1e400") parses to +-inf, and strtod also accepts
  // the literals "inf"/"nan" — all of which would silently poison every
  // downstream sample. Gradual underflow (subnormals like 1e-320) is
  // representable and fine, so checking finiteness (not ERANGE, which
  // glibc also sets on underflow) is the right gate.
  if (!std::isfinite(parsed)) {
    bad_value(key, value, "a finite number");
  }
  return parsed;
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  const std::string* found = find(key);
  return found == nullptr ? fallback : *found;
}

bool Args::has_flag(const std::string& key) const {
  return find(key) != nullptr;
}

}  // namespace plurality
