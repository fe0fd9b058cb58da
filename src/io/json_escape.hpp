#pragma once
// JSON string-literal escaping and number formatting, shared by every JSON
// producer in the repo (telemetry's streaming JsonWriter and the scenario
// serializer). Header-only and dependency-free so telemetry can use it
// without a link edge onto the io library (io links the solver stacks).
//
// Escaping follows RFC 8259: the two mandatory escapes (`"` and `\`), the
// short forms for the common control characters, and `\u00XX` for the rest of
// C0. Bytes >= 0x20 pass through untouched, so UTF-8 multibyte sequences
// survive the round trip byte-for-byte.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace io {

/// Append the escaped form of `s` (no surrounding quotes) to `out`.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// The escaped form of `s` wrapped in double quotes — a complete JSON string
/// literal.
inline std::string json_string_literal(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_json_escaped(out, s);
  out += '"';
  return out;
}

/// Append a finite `v` in its shortest round-trip form, so parsing the text
/// gives back `v` bit for bit. Integral values below 1e15 print as integers
/// ("100000", not "1e+05"). Each caller applies its own policy for
/// non-finite values, which JSON cannot spell.
inline void append_json_number(std::string& out, double v) {
  char buf[32];
  const auto r = std::fabs(v) < 1e15 && v == std::trunc(v)
                     ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed)
                     : std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace io
