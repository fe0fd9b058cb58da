#include "scenario/json.hpp"

#include <cmath>
#include <cstdlib>

#include "io/json_escape.hpp"

namespace scenario {

const char* Json::kind_name(Kind k) {
  switch (k) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void kind_mismatch(const char* want, Json::Kind got) {
  throw JsonError(std::string("expected ") + want + ", got " + Json::kind_name(got));
}
}  // namespace

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) kind_mismatch("bool", kind_);
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::Number) kind_mismatch("number", kind_);
  return num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) kind_mismatch("string", kind_);
  return str_;
}

const std::vector<Json>& Json::elements() const {
  if (kind_ != Kind::Array) kind_mismatch("array", kind_);
  return arr_;
}

std::vector<Json>& Json::elements() {
  if (kind_ != Kind::Array) kind_mismatch("array", kind_);
  return arr_;
}

const std::vector<Json::Member>& Json::members() const {
  if (kind_ != Kind::Object) kind_mismatch("object", kind_);
  return obj_;
}

std::vector<Json::Member>& Json::members() {
  if (kind_ != Kind::Object) kind_mismatch("object", kind_);
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

Json* Json::find(std::string_view key) {
  return const_cast<Json*>(static_cast<const Json*>(this)->find(key));
}

Json& Json::set(std::string key, Json v) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) kind_mismatch("object", kind_);
  for (auto& [k, old] : obj_)
    if (k == key) {
      old = std::move(v);
      return old;
    }
  obj_.emplace_back(std::move(key), std::move(v));
  return obj_.back().second;
}

void Json::push(Json v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) kind_mismatch("array", kind_);
  arr_.push_back(std::move(v));
}

bool Json::operator==(const Json& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == o.bool_;
    case Kind::Number: return num_ == o.num_;
    case Kind::String: return str_ == o.str_;
    case Kind::Array: return arr_ == o.arr_;
    case Kind::Object: return obj_ == o.obj_;
  }
  return false;
}

// ---- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("line " + std::to_string(line) + ", col " + std::to_string(col) + ": " +
                    what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting depth exceeds " + std::to_string(kMaxDepth));
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected '\"' starting an object key");
      std::string key = parse_string();
      if (obj.find(key)) fail("duplicate object key \"" + key + "\"");
      skip_ws();
      if (peek() != ':') fail("expected ':' after object key \"" + key + "\"");
      ++pos_;
      obj.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string (use \\u escapes)");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': append_utf16_escape(out); break;
        default: fail(std::string("invalid escape \\") + e);
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9')
        v += static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v += static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v += static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid hex digit in \\u escape");
    }
    return v;
  }

  void append_utf16_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need a low one
      if (!consume_literal("\\u")) fail("unpaired UTF-16 high surrogate");
      const unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid UTF-16 low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired UTF-16 low surrogate");
    }
    // UTF-8 encode
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (!digits()) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("invalid number: digits required after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) fail("invalid number: digits required in exponent");
    }
    const std::string tok(text_.substr(start, pos_ - start));
    const double v = std::strtod(tok.c_str(), nullptr);
    if (!std::isfinite(v)) {
      pos_ = start;
      fail("number " + tok + " overflows a double");
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

// ---- serializer ------------------------------------------------------------

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) throw JsonError("cannot serialize non-finite number");
  io::append_json_number(out, v);
}

namespace {
bool all_scalars(const std::vector<Json>& elems) {
  for (const auto& e : elems)
    if (e.is_array() || e.is_object()) return false;
  return true;
}
}  // namespace

void Json::dump_to(std::string& out, int depth) const {
  const auto indent = [&](int d) { out.append(static_cast<std::size_t>(d) * 2, ' '); };
  switch (kind_) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += bool_ ? "true" : "false"; return;
    case Kind::Number: append_json_number(out, num_); return;
    case Kind::String: out += io::json_string_literal(str_); return;
    case Kind::Array:
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      if (all_scalars(arr_)) {
        out += '[';
        for (std::size_t i = 0; i < arr_.size(); ++i) {
          if (i) out += ", ";
          arr_[i].dump_to(out, depth);
        }
        out += ']';
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        indent(depth + 1);
        arr_[i].dump_to(out, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += '\n';
      }
      indent(depth);
      out += ']';
      return;
    case Kind::Object:
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        indent(depth + 1);
        out += io::json_string_literal(obj_[i].first);
        out += ": ";
        obj_[i].second.dump_to(out, depth + 1);
        if (i + 1 < obj_.size()) out += ',';
        out += '\n';
      }
      indent(depth);
      out += '}';
      return;
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

// ---- path helpers ----------------------------------------------------------

const Json* find_path(const Json& root, std::string_view dotted) {
  const Json* cur = &root;
  while (!dotted.empty()) {
    const std::size_t dot = dotted.find('.');
    const std::string_view seg = dotted.substr(0, dot);
    cur = cur->find(seg);
    if (!cur) return nullptr;
    if (dot == std::string_view::npos) break;
    dotted.remove_prefix(dot + 1);
  }
  return cur;
}

Json& require_path(Json& root, std::string_view dotted) {
  Json* cur = &root;
  std::string_view rest = dotted;
  while (true) {
    const std::size_t dot = rest.find('.');
    const std::string_view seg = rest.substr(0, dot);
    Json* next = cur->find(seg);
    if (!next)
      throw JsonError("path \"" + std::string(dotted) + "\": no member \"" + std::string(seg) +
                      "\"");
    cur = next;
    if (dot == std::string_view::npos) return *cur;
    rest.remove_prefix(dot + 1);
  }
}

}  // namespace scenario
