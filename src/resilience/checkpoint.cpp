#include "resilience/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "resilience/snapshot.hpp"
#include "telemetry/registry.hpp"

namespace resilience {

namespace {

std::string rank_file(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".ckpt";
}

std::string manifest_file(const std::string& dir) { return dir + "/manifest.ckpt"; }

struct Manifest {
  std::uint64_t step = 0;
  double time = 0.0;
  int world_size = 1;
  std::vector<std::string> components;
};

Manifest parse_manifest(const std::vector<std::uint8_t>& payload) {
  BlobReader r(payload);
  Manifest m;
  r.pod(m.step);
  r.pod(m.time);
  r.pod(m.world_size);
  const auto n = r.pod<std::uint64_t>();
  for (std::uint64_t k = 0; k < n; ++k) m.components.push_back(r.str());
  r.expect_end();
  return m;
}

/// Flip one payload byte of an already-framed file (storage-fault injection;
/// read_frame's CRC check must detect the damage).
void corrupt_file_payload(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) throw SnapshotError("resilience: cannot reopen " + path + " for corruption");
  // header: 8 magic + 4 version + 4 crc + 8 size
  const std::streamoff off = 24;
  f.seekg(off);
  char b = 0;
  f.read(&b, 1);
  if (!f) throw SnapshotError("resilience: cannot corrupt empty payload in " + path);
  b = static_cast<char>(b ^ 0x5A);
  f.seekp(off);
  f.write(&b, 1);
}

}  // namespace

void CheckpointCoordinator::add_ref(const std::string& name, Checkpointable& c) {
  for (const auto& [n, ptr] : components_) {
    (void)ptr;
    if (n == name)
      throw std::invalid_argument("CheckpointCoordinator: duplicate component '" + name + "'");
  }
  components_.emplace_back(name, &c);
}

std::size_t CheckpointCoordinator::save(const std::string& dir, std::uint64_t step,
                                        double time) const {
  telemetry::ScopedPhase phase("resilience.save");
  const int r = rank();

  if (r == 0) std::filesystem::create_directories(dir);
  if (comm_.valid()) comm_.barrier();  // directory exists before anyone writes

  // --- this rank's payload: one CRC-tagged stream per component ---
  BlobWriter w;
  w.pod(static_cast<std::int32_t>(r));
  w.pod(static_cast<std::uint64_t>(components_.size()));
  for (const auto& [name, comp] : components_) {
    BlobWriter sub;
    comp->save_state(sub);
    w.str(name);
    w.pod(static_cast<std::uint64_t>(sub.size()));
    w.pod(crc32(sub.data()));
    w.bytes(sub.data().data(), sub.size());
  }
  const std::size_t bytes = w.size();

  const auto fault = fault_plan_
                         ? fault_plan_->on_checkpoint_write(comm_.valid() ? comm_.world_rank() : 0)
                         : FaultPlan::StreamFault::None;
  if (fault != FaultPlan::StreamFault::Drop) {
    const std::string path = rank_file(dir, r);
    write_frame_atomic(path, w.data());
    if (fault == FaultPlan::StreamFault::Corrupt) corrupt_file_payload(path);
  }

  if (r == 0) {
    BlobWriter m;
    m.pod(step);
    m.pod(time);
    m.pod(static_cast<std::int32_t>(size()));
    m.pod(static_cast<std::uint64_t>(components_.size()));
    for (const auto& [name, comp] : components_) {
      (void)comp;
      m.str(name);
    }
    write_frame_atomic(manifest_file(dir), m.data());
  }

  if (comm_.valid()) comm_.barrier();  // checkpoint complete-on-return everywhere
  telemetry::count("resilience.checkpoint.bytes", static_cast<double>(bytes));
  telemetry::count("resilience.checkpoints", 1.0);
  return bytes;
}

RestartInfo CheckpointCoordinator::load(const std::string& dir) {
  telemetry::ScopedPhase phase("resilience.load");
  const int r = rank();

  // Rank 0 reads the manifest; everyone gets it (or the failure reason) via
  // bcast so all ranks fail the same way instead of deadlocking.
  std::vector<std::uint8_t> msg;
  if (r == 0) {
    try {
      auto payload = read_frame(manifest_file(dir));
      msg.push_back(1);
      msg.insert(msg.end(), payload.begin(), payload.end());
    } catch (const std::exception& e) {
      const std::string what = e.what();
      msg.push_back(0);
      msg.insert(msg.end(), what.begin(), what.end());
    }
  }
  if (comm_.valid()) comm_.bcast(msg, 0);
  if (msg.empty() || msg[0] == 0)
    throw SnapshotError(msg.size() > 1
                            ? std::string(msg.begin() + 1, msg.end())
                            : "resilience: manifest read failed");
  const Manifest man = parse_manifest({msg.begin() + 1, msg.end()});

  if (man.world_size != size())
    throw LayoutError("resilience: checkpoint was written by " +
                      std::to_string(man.world_size) + " ranks but is being restored on " +
                      std::to_string(size()));
  if (man.components.size() != components_.size())
    throw LayoutError("resilience: checkpoint has " + std::to_string(man.components.size()) +
                      " components but " + std::to_string(components_.size()) +
                      " are registered");
  for (const auto& [name, comp] : components_) {
    (void)comp;
    if (std::find(man.components.begin(), man.components.end(), name) == man.components.end())
      throw LayoutError("resilience: component '" + name + "' missing from checkpoint");
  }

  // --- this rank's stream file ---
  auto payload = read_frame(rank_file(dir, r));
  BlobReader br(payload);
  const auto file_rank = br.pod<std::int32_t>();
  if (file_rank != r)
    throw CorruptError("resilience: rank stream claims rank " + std::to_string(file_rank) +
                       " but was read by rank " + std::to_string(r));
  const auto ncomp = br.pod<std::uint64_t>();
  if (ncomp != components_.size())
    throw LayoutError("resilience: rank stream has " + std::to_string(ncomp) + " components");
  std::size_t loaded = 0;
  std::size_t total_bytes = 0;
  for (std::uint64_t k = 0; k < ncomp; ++k) {
    const std::string name = br.str();
    const auto nbytes = br.pod<std::uint64_t>();
    const auto crc = br.pod<std::uint32_t>();
    if (nbytes > br.remaining())
      throw CorruptError("resilience: truncated component stream '" + name + "'");
    std::vector<std::uint8_t> blob(static_cast<std::size_t>(nbytes));
    if (nbytes) br.bytes(blob.data(), blob.size());
    if (crc32(blob) != crc)
      throw CorruptError("resilience: CRC mismatch in component stream '" + name + "'");
    auto it = std::find_if(components_.begin(), components_.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == components_.end())
      throw LayoutError("resilience: unknown component '" + name + "' in rank stream");
    BlobReader sub(blob);
    it->second->load_state(sub);
    sub.expect_end();
    ++loaded;
    total_bytes += blob.size();
  }
  if (loaded != components_.size())
    throw LayoutError("resilience: rank stream restored only " + std::to_string(loaded) +
                      " components");
  br.expect_end();

  if (comm_.valid()) comm_.barrier();
  telemetry::count("resilience.restore.bytes", static_cast<double>(total_bytes));
  return RestartInfo{man.step, man.time, man.world_size};
}

std::uint32_t CheckpointCoordinator::digest() const {
  BlobWriter w;
  for (const auto& c : components_) c.second->save_state(w);
  return crc32(w.data());
}

RestartInfo CheckpointCoordinator::peek(const std::string& dir) {
  const Manifest man = parse_manifest(read_frame(manifest_file(dir)));
  return RestartInfo{man.step, man.time, man.world_size};
}

}  // namespace resilience
