// Minimal command-line flag parser for the example applications and bench
// harnesses: `--name value` and `--name=value` pairs plus `--flag` booleans.
#pragma once

#include <concepts>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace raidrel::util {

/// Largest `--threads` value a driver accepts (0 still means one worker
/// per hardware thread). The runner starts one OS thread per worker, so
/// an unbounded value could ask for more threads than the process may
/// create; past the bound the flag exits 2 before any thread starts.
inline constexpr unsigned kMaxCliThreads = 1024;

/// Parsed command line. Unknown flags are kept (queryable, and rejected
/// by reject_unknown_flags); positional arguments are collected in order.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True when `--name` appeared (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Raw string value of `--name`; empty when the flag is absent or was
  /// given without a value.
  [[nodiscard]] std::optional<std::string> value(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  /// Integer flag value. Throws ModelError, naming the flag, when the
  /// value is not a complete integer ("--trials abc" must not silently
  /// become 0) or overflows a long long.
  [[nodiscard]] long long get_int(const std::string& name,
                                  long long fallback) const;
  /// get_int bounded to [min_value, max_value], returned as T. The upper
  /// bound defaults to T's largest value, so a count or size can never
  /// wrap on its way into an unsigned destination ("--group -3" becoming
  /// a multi-billion drive group, "--threads 4294967297" becoming 1). Out
  /// of bounds throws ModelError naming the flag.
  template <std::integral T>
  [[nodiscard]] T get_int_in(const std::string& name, T fallback, T min_value,
                             T max_value = std::numeric_limits<T>::max()) const {
    constexpr long long kMax = std::numeric_limits<long long>::max();
    return static_cast<T>(get_int_bounded(
        name, static_cast<long long>(fallback),
        static_cast<long long>(min_value),
        std::cmp_less(kMax, max_value) ? kMax
                                       : static_cast<long long>(max_value)));
  }
  /// Floating-point flag value; same strict-parse contract as get_int.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Throws ModelError naming every flag given that `known` does not
  /// name, so a misspelled flag is an error instead of a silently
  /// ignored one.
  void reject_unknown_flags(std::span<const std::string_view> known) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  [[nodiscard]] long long get_int_bounded(const std::string& name,
                                          long long fallback,
                                          long long min_value,
                                          long long max_value) const;

  std::string program_;
  std::map<std::string, std::optional<std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace raidrel::util
