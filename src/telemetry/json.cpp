#include "telemetry/json.hpp"

#include <cmath>

#include "io/json_escape.hpp"

namespace telemetry {

void JsonWriter::value(double v) {
  prefix();
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; report as null like most tooling expects.
    out_ << "null";
    return;
  }
  std::string s;
  io::append_json_number(s, v);
  out_ << s;
}

void JsonWriter::string_literal(const std::string& s) {
  out_ << io::json_string_literal(s);
}

}  // namespace telemetry
