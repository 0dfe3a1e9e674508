// Minimal command-line flag parser for the example applications and bench
// harnesses: `--name value` and `--name=value` pairs plus `--flag` booleans.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace raidrel::util {

/// Parsed command line. Unknown flags are kept (queryable, and listed by
/// unknown_flags); positional arguments are collected in order.
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
  /// get_int plus a lower bound — the guard for counts and sizes that
  /// would otherwise wrap through an unsigned cast ("--group -3" becoming
  /// a multi-billion drive group).
  [[nodiscard]] long long get_int_at_least(const std::string& name,
                                           long long fallback,
                                           long long min_value) const;
  /// Floating-point flag value; same strict-parse contract as get_int.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// The flags given that `known` does not name, in sorted order. A
  /// program that rejects these turns a misspelled flag into an error
  /// instead of a silently ignored one.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::span<const std::string_view> known) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::optional<std::string>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace raidrel::util
