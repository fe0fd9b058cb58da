#pragma once
// xmp checked mode — runtime verification of MPI-style usage (in the spirit
// of the MUST correctness checker). The hooks are always compiled in and are
// switched on per run, either by passing CheckOptions to xmp::run or via the
// XMP_CHECK=1 environment variable.
//
// What it verifies (see docs/CHECKING.md):
//   * collective matching: every rank of a communicator must issue the same
//     collective sequence — operation kind, element size, root, reduce op,
//     and (where declared) shape;
//   * rank affinity: a Comm handle is only used by the rank it was created
//     for;
//   * p2p/collective deadlock: a wait-for graph over blocked operations with
//     cycle detection, plus a stall timeout that dumps every rank's blocked
//     operation (comm, peer, tag, bytes) before aborting the run;
//   * message hygiene: unreceived messages left in any mailbox, and Pending
//     handles never completed, at the end of a clean run raise CheckError.

#include <chrono>
#include <stdexcept>
#include <string>

namespace xmp {

/// Thrown (and attributed as the run's root cause) when checked mode detects
/// a correctness violation. The message names the offending ranks and
/// operations.
struct CheckError : std::runtime_error {
  explicit CheckError(const std::string& msg) : std::runtime_error(msg) {}
};

struct CheckOptions {
  /// Master switch. With enabled == false a run costs what it would without
  /// the hooks, apart from a few untaken branches. An enabled run always
  /// verifies collective matching and rank affinity and keeps the wait-for
  /// graph that aborts on a verified deadlock cycle.
  bool enabled = false;

  /// Abort when any rank has been blocked longer than this, dumping every
  /// rank's blocked operation. Generous by default: a long block behind a
  /// slow peer is legal; a cycle is caught much earlier by the wait-for
  /// graph.
  std::chrono::milliseconds stall_timeout{30000};

  /// Watchdog sampling period (deadlock cycles are confirmed over two
  /// consecutive polls, so detection latency is ~2x this).
  std::chrono::milliseconds poll_interval{25};

  /// Reads XMP_CHECK (0|1) and XMP_CHECK_STALL_MS (>= 0, 0 = no stall
  /// timeout). Unset or empty variables keep defaults; any other malformed
  /// value throws std::invalid_argument naming the variable.
  static CheckOptions from_env();
};

}  // namespace xmp
