#pragma once
// Tiny command-line flag helper shared by the example mains. Replaces the
// hand-rolled strcmp chains: flags are declared once with a bound target and
// a help line, unknown flags are a hard error (exit code 2 convention in the
// callers), and --help prints the generated usage text. Every int flag is a
// count: its value must be a whole decimal int >= 0.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace scenario {

class Flags {
 public:
  explicit Flags(std::string prog) : prog_(std::move(prog)) {}

  void add_int(const char* name, int* target, const char* help) {
    specs_.push_back({name, help, Kind::Int, target, nullptr, nullptr});
  }
  void add_string(const char* name, std::string* target, const char* help) {
    specs_.push_back({name, help, Kind::String, nullptr, target, nullptr});
  }
  void add_flag(const char* name, bool* target, const char* help) {
    specs_.push_back({name, help, Kind::Bool, nullptr, nullptr, target});
  }

  /// Parse argv. Returns false (after printing a diagnostic + usage to
  /// stderr) on an unknown flag, a missing value or an int value that is not
  /// a whole decimal int >= 0 (the target is left untouched); the caller
  /// should exit non-zero. "--help" prints usage to stdout and exits 0.
  bool parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
        print_usage(stdout);
        std::exit(0);
      }
      const Spec* spec = nullptr;
      for (const auto& s : specs_)
        if (!std::strcmp(argv[i], s.name)) {
          spec = &s;
          break;
        }
      if (!spec) {
        std::fprintf(stderr, "unknown option: %s\n", argv[i]);
        print_usage(stderr);
        return false;
      }
      if (spec->kind == Kind::Bool) {
        *spec->bool_target = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", spec->name);
        print_usage(stderr);
        return false;
      }
      ++i;
      if (spec->kind == Kind::String) {
        *spec->str_target = argv[i];
        continue;
      }
      const char* end = argv[i] + std::strlen(argv[i]);
      int v = 0;
      const auto [stop, ec] = std::from_chars(argv[i], end, v);
      if (ec != std::errc() || stop != end || v < 0) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", spec->name, argv[i]);
        print_usage(stderr);
        return false;
      }
      *spec->int_target = v;
    }
    return true;
  }

 private:
  enum class Kind { Int, String, Bool };
  struct Spec {
    const char* name;
    const char* help;
    Kind kind;
    int* int_target;
    std::string* str_target;
    bool* bool_target;
  };

  void print_usage(std::FILE* out) const {
    std::fprintf(out, "usage: %s [options]\n", prog_.c_str());
    for (const auto& s : specs_)
      std::fprintf(out, "  %-22s %s\n",
                   s.kind == Kind::Bool ? s.name : (std::string(s.name) + " V").c_str(), s.help);
  }

  std::string prog_;
  std::vector<Spec> specs_;
};

}  // namespace scenario
