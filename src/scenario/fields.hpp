#pragma once
// One key list per schema struct, and the one strict reader and one writer
// that walk it. A struct opts in with an overload `fields(const S*)`, found
// by argument-dependent lookup (so it lives in S's own namespace),
// returning a std::tuple of Field entries in document order. An integral
// member is read within its own type's range, so the member's type is its
// range check. from_json reads *into* an existing value, so whatever the
// struct's member initialisers set stays the default for an absent key;
// to_json emits the same keys in the same order, so parse + serialize is a
// fixed point.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "scenario/json.hpp"

namespace scenario {

enum class Use : std::uint8_t {
  Optional,
  Required,
  Absent,  ///< not part of this document: neither read nor written
};

/// One schema key and the member it maps to.
template <class S, class M>
struct Field {
  const char* key;
  M S::*member;
  Use use = Use::Optional;
};

[[noreturn]] inline void fail(const std::string& path, const std::string& what) {
  throw JsonError(path + ": " + what);
}

inline std::string mismatch(const char* what, const Json& v) {
  return std::string("expected ") + what + ", got " + Json::kind_name(v.kind());
}

/// Strict object cursor: every key must be consumed by req / opt; finish()
/// reports leftovers as unknown-key errors with the full path.
class Fields {
 public:
  Fields(const Json& obj, std::string path) : obj_(&obj), path_(std::move(path)) {
    if (!obj.is_object()) fail(path_, mismatch("object", obj));
  }

  std::string sub(const char* key) const { return path_ + "." + key; }

  const Json& req(const char* key) {
    mark(key);
    const Json* v = obj_->find(key);
    if (!v) fail(path_, std::string("missing required key \"") + key + "\"");
    return *v;
  }

  const Json* opt(const char* key) {
    mark(key);
    return obj_->find(key);
  }

  /// Unknown keys are hard errors: list them plus the known set, so a typo'd
  /// knob points straight at its correct spelling.
  void finish() const {
    for (const auto& [k, v] : obj_->members()) {
      if (std::find(seen_.begin(), seen_.end(), k) != seen_.end()) continue;
      std::string known;
      for (const auto& s : seen_) {
        if (!known.empty()) known += ", ";
        known += s;
      }
      fail(path_ + "." + k, "unknown key (known keys: " + known + ")");
    }
  }

 private:
  void mark(const char* key) {
    if (std::find(seen_.begin(), seen_.end(), key) == seen_.end()) seen_.emplace_back(key);
  }

  const Json* obj_;
  std::string path_;
  std::vector<std::string> seen_;
};

template <class T>
inline constexpr bool is_std_array = false;
template <class T, std::size_t N>
inline constexpr bool is_std_array<std::array<T, N>> = true;
template <class T>
inline constexpr bool is_vector = false;
template <class T>
inline constexpr bool is_vector<std::vector<T>> = true;

template <class T>
void from_json(const Json& v, const std::string& path, T& out);
template <class T>
Json to_json(const T& x);

template <class S, class... M>
void read_fields(Fields& f, S& s, const std::tuple<Field<S, M>...>& list) {
  const auto read = [&](const auto& fl) {
    if (fl.use == Use::Absent) return;
    const Json* v = fl.use == Use::Required ? &f.req(fl.key) : f.opt(fl.key);
    if (v) from_json(*v, f.sub(fl.key), s.*fl.member);
  };
  std::apply([&](const auto&... fl) { (read(fl), ...); }, list);
}

template <class S, class... M>
void write_fields(Json& o, const S& s, const std::tuple<Field<S, M>...>& list) {
  const auto write = [&](const auto& fl) {
    if (fl.use != Use::Absent) o.set(fl.key, to_json(s.*fl.member));
  };
  std::apply([&](const auto&... fl) { (write(fl), ...); }, list);
}

template <class T>
void from_json(const Json& v, const std::string& path, T& out) {
  if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) fail(path, mismatch("number", v));
    out = v.as_number();
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) fail(path, mismatch("bool", v));
    out = v.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    // The member's type is the range: a value it cannot hold is a
    // diagnostic, never a wrapped or undefined cast.
    if (!v.is_number()) fail(path, mismatch("number", v));
    const double d = v.as_number();
    if (!(std::abs(d) <= 0x1p53) || std::trunc(d) != d)
      fail(path, "expected integer, got " + std::to_string(d));
    using Lim = std::numeric_limits<T>;
    const auto i = static_cast<std::int64_t>(d);
    if (std::cmp_less(i, Lim::min()) || std::cmp_greater(i, Lim::max()))
      fail(path, "must be in [" + std::to_string(Lim::min()) + ", " +
                     std::to_string(Lim::max()) + "]");
    out = static_cast<T>(i);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) fail(path, mismatch("string", v));
    out = v.as_string();
  } else if constexpr (std::is_same_v<T, Json>) {
    out = v;
  } else if constexpr (is_std_array<T> || is_vector<T>) {
    if (!v.is_array()) fail(path, mismatch("array", v));
    const auto& e = v.elements();
    if constexpr (is_vector<T>) {
      out = T(e.size());
    } else if (e.size() != out.size()) {
      const bool bools = std::is_same_v<typename T::value_type, bool>;
      fail(path, "expected " + std::to_string(out.size()) + (bools ? " bools" : " numbers") +
                     ", got " + std::to_string(e.size()));
    }
    for (std::size_t i = 0; i < e.size(); ++i)
      from_json(e[i], path + "[" + std::to_string(i) + "]", out[i]);
  } else {
    Fields f(v, path);
    read_fields(f, out, fields(&out));
    f.finish();
  }
}

template <class T>
Json to_json(const T& x) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return Json(static_cast<double>(x));  // Json has no unsigned constructor
  } else if constexpr (std::is_arithmetic_v<T> || std::is_same_v<T, std::string>) {
    return Json(x);
  } else if constexpr (is_std_array<T> || is_vector<T>) {
    Json a = Json::array();
    for (const auto& e : x) a.push(to_json(e));
    return a;
  } else {
    Json o = Json::object();
    write_fields(o, x, fields(&x));
    return o;
  }
}

}  // namespace scenario
