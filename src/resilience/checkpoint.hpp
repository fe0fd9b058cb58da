#pragma once
// Checkpoint/restart coordination. A checkpoint is a directory:
//
//   <dir>/manifest.ckpt   written by rank 0: format version, step, time,
//                         world size, registered component names
//   <dir>/rank<r>.ckpt    per-rank payload: one CRC-tagged stream per
//                         registered component
//
// Every file uses the framed format of snapshot.hpp (magic, version, CRC32,
// atomic tmp+rename write). save() and load() are collective over the
// coordinator's communicator (or serial when constructed without one);
// load() verifies that the restart world layout matches the manifest and
// dispatches component streams by name, so registration order may differ
// between the writing and the reading program.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "resilience/blob.hpp"
#include "resilience/fault.hpp"
#include "xmp/comm.hpp"

namespace resilience {

/// Anything that can round-trip its full runtime state through the blob
/// codec. Implementations must be exact: a loaded object must continue
/// bitwise identically to one that never stopped.
class Checkpointable {
public:
  virtual ~Checkpointable() = default;
  virtual void save_state(BlobWriter& w) const = 0;
  virtual void load_state(BlobReader& r) = 0;
};

/// Adapter for any object exposing save_state/load_state members (the
/// pattern every solver in this repo follows), so solver libraries never
/// need to inherit from resilience types.
template <class T>
class CheckpointableRef final : public Checkpointable {
public:
  explicit CheckpointableRef(T& obj) : obj_(&obj) {}
  void save_state(BlobWriter& w) const override { obj_->save_state(w); }
  void load_state(BlobReader& r) override { obj_->load_state(r); }

private:
  T* obj_;
};

struct RestartInfo {
  std::uint64_t step = 0;
  double time = 0.0;
  int world_size = 1;
};

class CheckpointCoordinator {
public:
  /// An invalid (default) comm means serial operation: one rank, rank 0.
  explicit CheckpointCoordinator(xmp::Comm comm = {}) : comm_(std::move(comm)) {}

  /// Register a component by name (must be unique). The object must outlive
  /// the coordinator.
  template <class T>
  void add(const std::string& name, T& obj) {
    owned_.push_back(std::make_unique<CheckpointableRef<T>>(obj));
    add_ref(name, *owned_.back());
  }
  void add_ref(const std::string& name, Checkpointable& c);

  /// Optional storage-fault injection hook (see fault.hpp). The plan must
  /// outlive the coordinator.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  /// Collective: every rank serialises its components into <dir>/rank<r>.ckpt
  /// and rank 0 writes the manifest; a final barrier makes the checkpoint
  /// complete-on-return everywhere. Returns the payload bytes this rank wrote.
  std::size_t save(const std::string& dir, std::uint64_t step, double time) const;

  /// Collective: verify the manifest (world size, component set), then load
  /// every registered component from this rank's stream. Throws LayoutError
  /// on a world/component mismatch and CorruptError on damaged streams.
  RestartInfo load(const std::string& dir);

  /// CRC32 over every registered component's save_state bytes, back to
  /// back in registration order: a state digest of this rank.
  std::uint32_t digest() const;

  /// Read only the manifest header of a checkpoint directory (serial).
  static RestartInfo peek(const std::string& dir);

  int rank() const { return comm_.valid() ? comm_.rank() : 0; }
  int size() const { return comm_.valid() ? comm_.size() : 1; }

private:
  xmp::Comm comm_;
  std::vector<std::pair<std::string, Checkpointable*>> components_;
  std::vector<std::unique_ptr<Checkpointable>> owned_;
  FaultPlan* fault_plan_ = nullptr;
};

}  // namespace resilience
