#pragma once
// A small self-contained JSON value type + strict parser + canonical
// serializer. The repo has written JSON since PR 1 (telemetry's streaming
// JsonWriter); the scenario service also needs to *read* it. This is the read
// side: a DOM with insertion-ordered object members, exact parse errors
// (line/column), and a deterministic dump whose output is a fixed point of
// parse+dump — serialize(parse(serialize(x))) == serialize(x) bitwise, the
// property the scenario round-trip tests pin.
//
// Deliberately minimal: no comments, no trailing commas, no NaN/Inf (dump
// throws and parse rejects a literal that overflows a double; JSON has no
// spelling for them), doubles only (integers survive exactly up to 2^53, far
// beyond any scenario knob).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scenario {

/// Parse/serialize/schema failure. Parse errors carry "line L, col C";
/// schema errors carry a JSON path like "$.sem.nu".
struct JsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, Json>;

  Json() = default;  ///< null
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(double v) : kind_(Kind::Number), num_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::size_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::String), str_(s) {}
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Human-readable kind name ("number", "object", ...).
  static const char* kind_name(Kind k);

  // Typed accessors; throw JsonError naming the actual kind on mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& elements() const;
  std::vector<Json>& elements();
  /// Object members in insertion order.
  const std::vector<Member>& members() const;
  std::vector<Member>& members();

  /// Object lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  Json* find(std::string_view key);

  /// Insert or overwrite an object member; returns the stored value.
  Json& set(std::string key, Json v);
  /// Append an array element.
  void push(Json v);

  bool operator==(const Json& o) const;
  bool operator!=(const Json& o) const { return !(*this == o); }

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error). Duplicate object keys are an error — a scenario with two
  /// "nu" entries is a typo, not a choice.
  static Json parse(std::string_view text);

  /// Canonical pretty form: 2-space indent, objects one member per line,
  /// arrays of scalars on one line, numbers in their shortest round-trip
  /// form (append_json_number). Deterministic, and a fixed point of
  /// parse+dump.
  std::string dump() const;

 private:
  void dump_to(std::string& out, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<Member> obj_;
};

/// Append one JSON number in the shortest round-trip format shared with
/// telemetry's JsonWriter (io::append_json_number). Throws JsonError on
/// non-finite values.
void append_json_number(std::string& out, double v);

/// Walk a dotted object path ("coupling.scales.nu_dpd") from `root`;
/// nullptr when any segment is missing or a non-object is traversed.
const Json* find_path(const Json& root, std::string_view dotted);
/// Mutable variant that throws JsonError (naming the path) when the path
/// does not already exist — sweep overrides must hit real schema knobs,
/// never silently create new ones.
Json& require_path(Json& root, std::string_view dotted);

}  // namespace scenario
