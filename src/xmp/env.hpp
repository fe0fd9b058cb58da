#pragma once
// Strict parsing of the XMP_CHECK* environment variables behind
// CheckOptions::from_env. Unset or empty means "keep the default"; anything
// else must be well-formed or the parse throws std::invalid_argument naming
// the variable and its value, so a typo never silently turns a feature on,
// off, or to zero. Internal header.

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

namespace xmp::detail {

/// The raw value; nullopt when unset or empty.
inline std::optional<std::string> env_str(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) return std::nullopt;
  return std::string(v);
}

[[noreturn]] inline void env_invalid(const char* name, const std::string& value,
                                     const std::string& expected) {
  throw std::invalid_argument(std::string("xmp: ") + name + "='" + value + "': expected " +
                              expected);
}

/// A flag: exactly "0" or "1".
inline std::optional<bool> env_flag(const char* name) {
  const auto s = env_str(name);
  if (!s) return std::nullopt;
  if (*s != "0" && *s != "1") env_invalid(name, *s, "0 or 1");
  return *s == "1";
}

/// A base-10 integer in [lo, hi], the whole value with no other text.
inline std::optional<long> env_int(const char* name, long lo, long hi) {
  const auto s = env_str(name);
  if (!s) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s->c_str(), &end, 10);
  // strtol alone would accept leading blanks and a '+' sign.
  const bool digits_only = s->find_first_not_of("-0123456789") == std::string::npos;
  if (!digits_only || errno != 0 || *end != '\0' || v < lo || v > hi)
    env_invalid(name, *s,
                "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return v;
}

}  // namespace xmp::detail
