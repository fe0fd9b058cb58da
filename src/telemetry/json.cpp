#include "telemetry/json.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "io/json_escape.hpp"

namespace telemetry {

void JsonWriter::value(double v) {
  prefix();
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; report as null like most tooling expects.
    out_ << "null";
    return;
  }
  // range first: the integer cast is undefined for values it cannot hold
  if (std::fabs(v) < 1e15 && v == static_cast<double>(static_cast<std::int64_t>(v))) {
    out_ << static_cast<std::int64_t>(v);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", std::numeric_limits<double>::max_digits10, v);
  out_ << buf;
}

void JsonWriter::string_literal(const std::string& s) {
  out_ << io::json_string_literal(s);
}

}  // namespace telemetry
