#include "telemetry/registry.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "xmp/sched/sched.hpp"

namespace telemetry {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{true};

/// Common time origin for every registry, so Chrome traces from different
/// ranks align on one timeline.
Clock::time_point epoch() {
  static const Clock::time_point e = Clock::now();
  return e;
}

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct Global {
  std::mutex mu;
  std::vector<std::shared_ptr<Registry>> registries;
};

Global& global() {
  static Global* g = new Global;  // leaked: usable during static destruction
  return *g;
}

constexpr std::size_t kSeriesCap = 1 << 16;

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

double PhaseNode::child_seconds() const {
  double s = 0.0;
  for (const auto& c : children) s += c.seconds;
  return s;
}

const PhaseNode* PhaseNode::find(const std::string& child_name) const {
  for (const auto& c : children)
    if (c.name == child_name) return &c;
  return nullptr;
}

// --- Registry ---------------------------------------------------------------

struct Registry::Impl {
  struct Node {
    std::string name;
    std::uint64_t count = 0;
    Clock::duration total{};
    std::vector<std::unique_ptr<Node>> children;  // unique_ptr: stable addresses
    Node* parent = nullptr;
  };

  mutable std::mutex mu;
  int world_rank = -1;
  Node root;
  Node* current = &root;
  std::vector<Clock::time_point> starts;
  bool timeline_on = false;
  std::vector<TimelineEvent> events;
  // std::less<> looks a string_view up without building a key
  std::map<std::string, CounterValue, std::less<>> counters;
  std::map<std::string, std::vector<double>, std::less<>> series;

  Node* child_of(Node* n, const char* name) {
    for (auto& c : n->children)
      if (c->name == name) return c.get();
    auto c = std::make_unique<Node>();
    c->name = name;
    c->parent = n;
    n->children.push_back(std::move(c));
    return n->children.back().get();
  }

  static void snapshot(const Node& n, PhaseNode& out) {
    out.name = n.name;
    out.count = n.count;
    out.seconds = std::chrono::duration<double>(n.total).count();
    out.children.reserve(n.children.size());
    for (const auto& c : n.children) {
      out.children.emplace_back();
      snapshot(*c, out.children.back());
    }
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

namespace {

std::shared_ptr<Registry> make_registered() {
  auto r = std::make_shared<Registry>();
  auto& g = global();
  std::lock_guard lk(g.mu);
  g.registries.push_back(r);
  return r;
}

}  // namespace

Registry& Registry::local() {
  // Rank-first resolution: xmp's scheduler exposes a rank-local slot that
  // migrates with the rank's fiber across worker threads, so two ranks
  // sharing one worker get distinct registries and one rank resuming on
  // another worker keeps its own. Plain threads (serial benches, main) have
  // no slot and fall back to thread-local storage.
  if (std::shared_ptr<void>* slot = xmp::sched::rank_local_slot()) {
    if (!*slot) *slot = make_registered();
    return *static_cast<Registry*>(slot->get());
  }
  // analyze: sched-context-ok (fallback for contexts without a rank slot)
  thread_local std::shared_ptr<Registry> reg = make_registered();
  return *reg;
}

std::vector<std::shared_ptr<Registry>> Registry::all() {
  auto& g = global();
  std::lock_guard lk(g.mu);
  return g.registries;
}

void Registry::reset_all() {
  for (const auto& r : all()) r->clear();
}

void Registry::bind_world_rank(int r) {
  std::lock_guard lk(impl_->mu);
  impl_->world_rank = r;
}

int Registry::world_rank() const {
  std::lock_guard lk(impl_->mu);
  return impl_->world_rank;
}

void Registry::phase_begin(const char* name) {
  const auto now = Clock::now();
  std::lock_guard lk(impl_->mu);
  impl_->current = impl_->child_of(impl_->current, name);
  impl_->current->count += 1;
  impl_->starts.push_back(now);
}

void Registry::phase_end() {
  const auto now = Clock::now();
  std::lock_guard lk(impl_->mu);
  auto* cur = impl_->current;
  if (cur == &impl_->root || impl_->starts.empty())
    throw std::logic_error("telemetry: phase_end without matching phase_begin");
  const auto start = impl_->starts.back();
  impl_->starts.pop_back();
  cur->total += now - start;
  if (impl_->timeline_on)
    impl_->events.push_back(TimelineEvent{cur->name, to_us(start - epoch()),
                                          to_us(now - start),
                                          static_cast<int>(impl_->starts.size())});
  impl_->current = cur->parent;
}

namespace {

/// m's entry for `name`; the key string is built only when it is new.
template <class Map>
typename Map::mapped_type& entry(Map& m, std::string_view name) {
  auto it = m.lower_bound(name);
  if (it == m.end() || it->first != name)
    it = m.emplace_hint(it, std::string(name), typename Map::mapped_type{});
  return it->second;
}

}  // namespace

void Registry::counter_add(std::string_view name, double v) {
  std::lock_guard lk(impl_->mu);
  auto& c = entry(impl_->counters, name);
  c.value += v;
  c.count += 1;
}

void Registry::series_append(std::string_view name, double v) {
  std::lock_guard lk(impl_->mu);
  auto& s = entry(impl_->series, name);
  if (s.size() < kSeriesCap) s.push_back(v);
}

void Registry::series_clear(std::string_view name) {
  std::lock_guard lk(impl_->mu);
  entry(impl_->series, name).clear();
}

void Registry::set_timeline_enabled(bool on) {
  std::lock_guard lk(impl_->mu);
  impl_->timeline_on = on;
}

PhaseNode Registry::phases() const {
  std::lock_guard lk(impl_->mu);
  PhaseNode out;
  Impl::snapshot(impl_->root, out);
  double s = 0.0;
  for (const auto& c : out.children) s += c.seconds;
  out.seconds = s;
  return out;
}

std::map<std::string, CounterValue> Registry::counters() const {
  std::lock_guard lk(impl_->mu);
  return {impl_->counters.begin(), impl_->counters.end()};
}

std::map<std::string, std::vector<double>> Registry::series() const {
  std::lock_guard lk(impl_->mu);
  return {impl_->series.begin(), impl_->series.end()};
}

std::vector<TimelineEvent> Registry::timeline() const {
  std::lock_guard lk(impl_->mu);
  return impl_->events;
}

void Registry::clear() {
  std::lock_guard lk(impl_->mu);
  // An open ScopedPhase on another thread would dangle if we dropped the
  // tree mid-phase; clearing is only legal between measurement regions.
  if (!impl_->starts.empty())
    throw std::logic_error("telemetry: clear() inside an open phase");
  impl_->root.children.clear();
  impl_->root.count = 0;
  impl_->root.total = {};
  impl_->current = &impl_->root;
  impl_->events.clear();
  impl_->counters.clear();
  impl_->series.clear();
}

}  // namespace telemetry
