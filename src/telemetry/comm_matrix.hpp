#pragma once
// Communication-matrix aggregator over xmp trace events.
//
// The paper characterises the MCI coupling traffic by who talks to whom and
// how much (Sec. 3.1: gather to interface roots, one root-to-root message
// across the world communicator, scatter to peers). CommMatrix consumes
// xmp::TraceEvent records and reduces them to per-(src, dst, tag-class)
// cells of {messages, bytes}, which is exactly the data behind such a
// characterisation — and what the analytic 3-step-exchange test asserts on.
//
// Tag classes group raw tags into named ranges (e.g. "mci.exchange" for the
// channel tag, "mci.discovery" for 9001/9002) so the matrix stays readable
// when many channels use distinct tags. Logical collective events (kind !=
// P2P) are classified by their kind name instead of their tag.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "xmp/comm.hpp"

namespace telemetry {

/// Maps raw tags / kinds to class names for matrix rows.
class TagClasses {
public:
  /// Tags in [lo, hi] report as `name`. Later rules win on overlap.
  void add_range(int lo, int hi, std::string name);
  void add(int tag, std::string name) { add_range(tag, tag, std::move(name)); }

  /// Class for an event: collectives use to_string(kind); p2p uses the
  /// matching range, else "tag:<n>".
  std::string classify(const xmp::TraceEvent& e) const;

private:
  struct Rule {
    int lo, hi;
    std::string name;
  };
  std::vector<Rule> rules_;
};

struct CommCell {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Key: (src world rank, dst world rank, tag class).
using CommKey = std::tuple<int, int, std::string>;

class CommMatrix {
public:
  explicit CommMatrix(TagClasses classes = {}) : classes_(std::move(classes)) {}

  /// Thread-safe: callable from any rank, on any worker thread.
  void record(const xmp::TraceEvent& e);

  /// Adapter usable as xmp::TraceSink (keeps *this alive by the caller's
  /// contract; the returned lambda holds a raw pointer).
  xmp::TraceSink sink();

  void reset();

  std::map<CommKey, CommCell> cells() const;
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;

  /// Human-readable table: one line per cell, sorted by key.
  std::string format() const;
  /// JSON: {"cells":[{"src","dst","class","messages","bytes"}...],
  ///        "total_messages","total_bytes"}
  std::string to_json() const;

private:
  TagClasses classes_;
  mutable std::mutex mu_;
  std::map<CommKey, CommCell> cells_;
};

}  // namespace telemetry
