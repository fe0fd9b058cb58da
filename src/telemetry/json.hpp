#pragma once
// Minimal JSON emitter for the telemetry exporters. Write-only, streaming,
// no DOM: exporters push objects/arrays and scalars in document order.
// Numbers use the shortest round-trip form (io::append_json_number) so
// consumers read back exactly the double that was written.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace telemetry {

class JsonWriter {
public:
  void begin_object() {
    prefix();
    out_ << '{';
    push();
  }
  void end_object() {
    out_ << '}';
    pop();
  }
  void begin_array() {
    prefix();
    out_ << '[';
    push();
  }
  void end_array() {
    out_ << ']';
    pop();
  }

  void key(const std::string& k) {
    prefix();
    string_literal(k);
    out_ << ':';
    pending_key_ = true;
  }

  void value(const std::string& s) { prefix(); string_literal(s); }
  void value(const char* s) { value(std::string(s)); }
  void value(double v);
  void value(std::int64_t v) { prefix(); out_ << v; }
  void value(std::uint64_t v) { prefix(); out_ << v; }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v) { prefix(); out_ << (v ? "true" : "false"); }

  std::string str() const { return out_.str(); }

private:
  void prefix() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (first_.back())
      first_.back() = 0;
    else
      out_ << ',';
  }
  void push() { first_.push_back(1); }
  void pop() { first_.pop_back(); }
  void string_literal(const std::string& s);

  std::ostringstream out_;
  std::vector<char> first_;  // one flag per open container; char avoids vector<bool>
  bool pending_key_ = false;
};

}  // namespace telemetry
