#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace raidrel::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  RAIDREL_REQUIRE(argc >= 1, "CliArgs requires argv[0]");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" when the next token is not itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = std::string(argv[i + 1]);
      ++i;
    } else {
      flags_[body] = std::nullopt;
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::optional<std::string> CliArgs::value(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;  // nullopt when the flag was given without a value
}

std::string CliArgs::get_string(const std::string& name,
                                const std::string& fallback) const {
  auto v = value(name);
  return v ? *v : fallback;
}

void CliArgs::reject_unknown_flags(
    std::span<const std::string_view> known) const {
  std::string unknown;
  std::size_t count = 0;
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown += (count++ == 0 ? "--" : ", --") + name;
    }
  }
  if (count > 0) {
    throw ModelError((count == 1 ? "unknown flag " : "unknown flags ") +
                     unknown);
  }
}

namespace {

[[noreturn]] void fail_parse(const std::string& name, const std::string& raw,
                             const char* expected) {
  throw ModelError("--" + name + ": cannot parse \"" + raw + "\" as " +
                   expected);
}

}  // namespace

long long CliArgs::get_int(const std::string& name, long long fallback) const {
  auto v = value(name);
  if (!v) return fallback;
  // strtoll with a checked end pointer: "--trials abc" must be an error,
  // not a silent 0 (a zero-trial run / zero budget).
  char* end = nullptr;
  errno = 0;
  const long long out = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') fail_parse(name, *v, "an integer");
  if (errno == ERANGE) fail_parse(name, *v, "an in-range integer");
  return out;
}

long long CliArgs::get_int_bounded(const std::string& name,
                                   long long fallback, long long min_value,
                                   long long max_value) const {
  const long long out = get_int(name, fallback);
  if (out < min_value || out > max_value) {
    throw ModelError("--" + name + ": value " + std::to_string(out) +
                     " is outside [" + std::to_string(min_value) + ", " +
                     std::to_string(max_value) + "]");
  }
  return out;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  auto v = value(name);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') fail_parse(name, *v, "a number");
  if (errno == ERANGE) fail_parse(name, *v, "an in-range number");
  // strtod accepts "nan" and "inf" without setting errno.
  if (!std::isfinite(out)) fail_parse(name, *v, "a finite number");
  return out;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  if (!has(name)) return fallback;
  auto v = value(name);
  if (!v) return true;  // bare --flag
  return !(*v == "0" || *v == "false" || *v == "no" || *v == "off");
}

}  // namespace raidrel::util
