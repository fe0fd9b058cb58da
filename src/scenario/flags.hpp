#pragma once
// The one command-line flag parser of the example and bench mains: flags are
// declared once with a bound target and a help line, a value follows its flag
// as the next argument or after '=' (`--ranks 8` or `--ranks=8`), unknown
// flags are a hard error (exit code 2 convention in the callers), and --help
// prints the generated usage text. An int value must be a whole decimal int
// inside its flag's [lo, hi] range (default [0, INT_MAX]: a count). A
// repeatable string flag collects every value it is given, in order.

#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

namespace scenario {

class Flags {
 public:
  explicit Flags(std::string prog) : prog_(std::move(prog)) {}

  void add_int(const char* name, int* target, const char* help, int lo = 0, int hi = INT_MAX) {
    specs_.push_back({name, help, target, lo, hi});
  }
  void add_string(const char* name, std::string* target, const char* help) {
    specs_.push_back({name, help, target});
  }
  void add_strings(const char* name, std::vector<std::string>* target, const char* help) {
    specs_.push_back({name, help, target});
  }
  void add_flag(const char* name, bool* target, const char* help) {
    specs_.push_back({name, help, target});
  }

  /// Parse argv. Returns false (after printing a diagnostic + usage to
  /// stderr) on an unknown flag, a missing value, a value given to a bool
  /// flag or an int value that is not a whole decimal int in [lo, hi] (the
  /// target is left untouched); the caller should exit non-zero. "--help"
  /// prints usage to stdout and exits 0.
  bool parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
        print_usage(stdout);
        std::exit(0);
      }
      const char* eq = std::strchr(argv[i], '=');
      const std::string name = eq ? std::string(argv[i], eq - argv[i]) : std::string(argv[i]);
      const Spec* spec = nullptr;
      for (const auto& s : specs_)
        if (name == s.name) {
          spec = &s;
          break;
        }
      if (!spec) return fail("unknown option: " + name);
      if (auto* b = std::get_if<bool*>(&spec->target)) {
        if (eq) return fail(name + " takes no value");
        **b = true;
        continue;
      }
      if (!eq && i + 1 >= argc) return fail(name + " requires a value");
      const char* value = eq ? eq + 1 : argv[++i];
      if (auto* str = std::get_if<std::string*>(&spec->target)) {
        **str = value;
        continue;
      }
      if (auto* strs = std::get_if<std::vector<std::string>*>(&spec->target)) {
        (*strs)->push_back(value);
        continue;
      }
      const char* end = value + std::strlen(value);
      int v = 0;
      const auto [stop, ec] = std::from_chars(value, end, v);
      if (ec != std::errc() || stop != end || v < spec->lo || v > spec->hi)
        return fail("invalid value for " + name + ": '" + value +
                    "' (expected an integer in [" + std::to_string(spec->lo) + ", " +
                    std::to_string(spec->hi) + "])");
      *std::get<int*>(spec->target) = v;
    }
    return true;
  }

  /// Print `message` and the usage to stderr; returns false so a caller can
  /// reject a flag combination the same way parse() rejects a bad flag.
  bool fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n", message.c_str());
    print_usage(stderr);
    return false;
  }

 private:
  struct Spec {
    const char* name;
    const char* help;
    std::variant<int*, std::string*, std::vector<std::string>*, bool*> target;
    int lo = 0, hi = 0;  ///< an int flag's range
  };

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: %s [options]\n", prog_.c_str());
    for (const auto& s : specs_) {
      const char* value = std::holds_alternative<bool*>(s.target) ? "" : " V";
      std::fprintf(out, "  %-22s %s\n", (s.name + std::string(value)).c_str(), s.help);
    }
  }

  std::string prog_;
  std::vector<Spec> specs_;
};

}  // namespace scenario
