#pragma once

/// \file args.hpp
/// Minimal --key=value command-line parsing for the experiment binaries.
/// Every bench accepts overrides (e.g. --n=65536 --reps=20 --seed=42
/// --csv) so tables can be regenerated at other scales; defaults keep
/// each binary's full run in the tens of seconds on a laptop.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <string>

namespace plurality {

class Args {
 public:
  /// Parses argv entries of the form --key=value or bare --flag.
  /// Unrecognized positional arguments are rejected with a thrown
  /// ContractViolation (catching typos in reproduce commands).
  Args(int argc, const char* const* argv);

  /// Every getter (has_flag and csv included) marks its key as read, in
  /// a mutex-guarded set shared by all copies: reads through an
  /// ExperimentContext's copy, on executor workers too, count here.
  ///
  /// Numeric getters return `fallback` when the key is absent and throw
  /// ContractViolation (naming the flag and the offending text) when the
  /// value is present but malformed — "--reps=abc" must never silently
  /// become 0.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool has_flag(const std::string& key) const;

  /// True when --csv was passed (tables print comma-separated).
  bool csv() const { return has_flag("csv"); }

  /// All parsed key/value pairs (flags map to ""), for echoing the full
  /// command line into experiment records.
  const std::map<std::string, std::string>& raw() const noexcept {
    return values_;
  }

  /// Prints one `warning: --<key> was not read by any experiment` line
  /// per passed key no getter has read (raw() does not count), so a
  /// typo such as --rep=5 cannot silently run the defaults.
  void warn_unread(std::ostream& os) const;

 private:
  const std::string* find(const std::string& key) const;  // marks read

  struct ReadSet {
    std::mutex mutex;
    std::set<std::string> keys;
  };
  std::map<std::string, std::string> values_;
  std::shared_ptr<ReadSet> read_ = std::make_shared<ReadSet>();
};

}  // namespace plurality
