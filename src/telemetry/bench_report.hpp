#pragma once
// analyze: unreached-ok (ROADMAP item 2: moves to bench/ once bench/e2e is switched)
// Machine-readable bench output with a stable schema.
//
// Every bench binary builds a BenchReport next to its printf table, pushing
// the *same* computed values into both, and writes BENCH_<name>.json on
// exit. Consumers (CI, plotting scripts, regression tooling) parse:
//
//   {
//     "schema": "nektarg-bench-v1",
//     "name": "table4_strong_scaling",
//     "meta": {"<key>": <string|number>, ...},
//     "rows": [ {"<col>": <string|number>, ...}, ... ]
//   }
//
// Rows keep column insertion order. The file goes to $NEKTARG_BENCH_DIR when
// set (CI points this at an artifact dir), else the working directory.

#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace telemetry {

class BenchReport {
public:
  using Value = std::variant<double, std::string>;

  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void meta(const std::string& key, Value v) { meta_.emplace_back(key, std::move(v)); }

  /// Start a new row; subsequent set() calls fill it.
  void row() { rows_.emplace_back(); }
  void set(const std::string& key, Value v) { rows_.back().emplace_back(key, std::move(v)); }

  const std::string& name() const { return name_; }
  std::size_t row_count() const { return rows_.size(); }

  std::string to_json() const;

  /// Write BENCH_<name>.json into $NEKTARG_BENCH_DIR (or cwd) and return the
  /// path. Prints a one-line notice to stderr; I/O failure is reported there
  /// too but never aborts the bench.
  std::string write() const;

private:
  using Fields = std::vector<std::pair<std::string, Value>>;
  std::string name_;
  Fields meta_;
  std::vector<Fields> rows_;
};

}  // namespace telemetry
