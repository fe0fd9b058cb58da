#pragma once
// xmp checked mode — runtime verification of MPI-style usage (in the spirit
// of the MUST correctness checker), compiled in with the XMP_CHECKED macro
// (CMake option XMP_CHECKED, default ON) and switched on per run either by
// passing CheckOptions to xmp::run or via the XMP_CHECK=1 environment
// variable. When the macro is off every hook compiles out of the runtime.
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
//   * message hygiene: unreceived messages left in any mailbox at the end of
//     a clean run are reported (error by default).

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

/// What to do with messages still sitting in mailboxes at the end of an
/// otherwise clean run.
enum class LeftoverPolicy : std::uint8_t { Error, Warn, Off };

struct CheckOptions {
  /// Master switch. With enabled == false a checked build behaves (and
  /// costs) like an unchecked one apart from a few dead branches.
  bool enabled = false;

  /// Verify that all ranks of a communicator issue the same collective
  /// sequence (kind / element size / root / reduce op / shape).
  bool verify_collectives = true;

  /// Enforce that every Comm is used only by the rank it was created for
  /// (the documented affinity contract).
  bool enforce_affinity = true;

  /// Maintain the wait-for graph and abort on a verified cycle.
  bool detect_deadlock = true;

  /// Abort when any rank has been blocked longer than this, dumping every
  /// rank's blocked operation. Generous by default: a long block behind a
  /// slow peer is legal; a cycle is caught much earlier by detect_deadlock.
  std::chrono::milliseconds stall_timeout{30000};

  /// Watchdog sampling period (deadlock cycles are confirmed over two
  /// consecutive polls, so detection latency is ~2x this).
  std::chrono::milliseconds poll_interval{25};

  LeftoverPolicy leftovers = LeftoverPolicy::Error;

  /// Reads XMP_CHECK (0|1), XMP_CHECK_STALL_MS (>= 0, 0 = no stall
  /// timeout), XMP_CHECK_POLL_MS (>= 1) and XMP_CHECK_LEFTOVER
  /// (error|warn|off). Unset or empty variables keep defaults; any other
  /// malformed value throws std::invalid_argument naming the variable.
  static CheckOptions from_env();
};

/// True when the library was compiled with XMP_CHECKED. Requesting an
/// enabled CheckOptions from xmp::run in a build without it throws.
bool checked_available();

}  // namespace xmp
