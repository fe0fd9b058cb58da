#include "replica/replica.hpp"

#include <algorithm>
#include <stdexcept>

#include "resilience/blob.hpp"

namespace coupling {

ReplicaEnsemble::ReplicaEnsemble(const xmp::Comm& l3, int n_replicas) : l3_(l3), n_(n_replicas) {
  if (n_replicas < 1 || n_replicas > l3.size())
    throw std::invalid_argument("ReplicaEnsemble: bad replica count");
  // contiguous blocks, distributing the remainder over the first groups
  const int base = l3.size() / n_replicas;
  const int rem = l3.size() % n_replicas;
  const int r = l3.rank();
  // ranks [0, (base+1)*rem) belong to the first `rem` groups of size base+1
  const int cut = (base + 1) * rem;
  rid_ = r < cut ? r / (base + 1) : rem + (r - cut) / base;
  rep_ = l3.split(rid_, r);
  roots_ = l3.split(rep_.rank() == 0 ? 0 : xmp::kUndefined, rid_);
}

std::vector<double> ReplicaEnsemble::distribute(std::vector<double> data) const {
  if (roots_.valid()) roots_.bcast(data, 0);  // master root -> all replica roots
  rep_.bcast(data, 0);                        // replica root -> replica members
  return data;
}

std::vector<double> ReplicaEnsemble::gather_average(const std::vector<double>& mine) const {
  std::vector<double> avg;
  if (roots_.valid()) {
    std::vector<std::size_t> counts;
    auto all = roots_.gatherv(std::span<const double>(mine), 0, &counts);
    if (roots_.rank() == 0) {
      for (std::size_t c : counts)
        if (c != mine.size())
          throw std::runtime_error("ReplicaEnsemble: replica vector length mismatch");
      avg.assign(mine.size(), 0.0);
      for (std::size_t r = 0; r < counts.size(); ++r)
        for (std::size_t i = 0; i < mine.size(); ++i) avg[i] += all[r * mine.size() + i];
      for (double& v : avg) v /= static_cast<double>(n_);
    }
    roots_.bcast(avg, 0);
  }
  rep_.bcast(avg, 0);
  return avg;
}

bool ReplicaEnsemble::exchange_health(bool healthy) {
  // Every current L3 rank (including ones that just caught a fault) reports
  // (replica id, ok); the vote is symmetric, so all ranks compute the same
  // retirement decision without a coordinator.
  const std::int32_t report[2] = {static_cast<std::int32_t>(rid_),
                                  static_cast<std::int32_t>(healthy ? 1 : 0)};
  auto all = l3_.allgatherv(std::span<const std::int32_t>(report, 2));

  std::vector<char> replica_ok(static_cast<std::size_t>(n_), 1);
  for (std::size_t k = 0; k + 1 < all.size(); k += 2)
    if (all[k + 1] == 0) replica_ok[static_cast<std::size_t>(all[k])] = 0;

  std::vector<int> survivors;
  for (int j = 0; j < n_; ++j)
    if (replica_ok[static_cast<std::size_t>(j)]) survivors.push_back(j);
  if (survivors.empty())
    throw std::runtime_error("ReplicaEnsemble: every replica failed");
  if (static_cast<int>(survivors.size()) == n_) return true;  // nothing lost

  lost_ += n_ - static_cast<int>(survivors.size());
  const auto pos = std::find(survivors.begin(), survivors.end(), rid_);
  const bool stay = pos != survivors.end();

  // Collective over the old L3: dead ranks participate with kUndefined so
  // the split completes, then drop out with invalid communicators.
  xmp::Comm shrunk = l3_.split(stay ? 0 : xmp::kUndefined, l3_.rank());
  if (!stay) {
    l3_ = xmp::Comm();
    rep_ = xmp::Comm();
    roots_ = xmp::Comm();
    return false;
  }

  // Renumbering in old-id order: the lowest surviving replica becomes the
  // new master (rid 0), whose root re-owns the continuum p2p channel.
  l3_ = std::move(shrunk);
  n_ = static_cast<int>(survivors.size());
  rid_ = static_cast<int>(pos - survivors.begin());
  rep_ = l3_.split(rid_, l3_.rank());
  roots_ = l3_.split(rep_.rank() == 0 ? 0 : xmp::kUndefined, rid_);
  return true;
}

void ReplicaEnsemble::save_state(resilience::BlobWriter& w) const {
  w.pod(static_cast<std::int32_t>(n_));
  w.pod(static_cast<std::int32_t>(rid_));
  w.pod(static_cast<std::int32_t>(lost_));
}

void ReplicaEnsemble::load_state(resilience::BlobReader& r) {
  const auto n = r.pod<std::int32_t>();
  const auto rid = r.pod<std::int32_t>();
  if (n != n_ || rid != rid_)
    throw resilience::LayoutError(
        "ReplicaEnsemble: checkpoint ensemble shape (n=" + std::to_string(n) +
        ", rid=" + std::to_string(rid) + ") != restart shape (n=" + std::to_string(n_) +
        ", rid=" + std::to_string(rid_) + ")");
  lost_ = r.pod<std::int32_t>();
}

}  // namespace coupling
