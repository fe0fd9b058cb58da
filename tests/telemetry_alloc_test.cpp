// Telemetry's counter helpers run inside bodies that must not allocate (the
// DPD pair pass and Verlet build, the SEM operator applies): a counter that
// is already present costs no heap allocation, however long its name. A
// name past libstdc++'s 15-character small-string buffer would allocate if
// it were turned into a std::string on every call. The global operator new
// below counts every allocation of this binary, which is why this suite is
// an executable of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string_view>

#include "telemetry/registry.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Out of line, so that the compiler never sees free() meet a pointer from
// operator new in one inlined body.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

// passed as a literal, the way the instrumented code passes it
constexpr const char* kLongName = "dpd.nlist.remap_dropped";
static_assert(std::string_view(kLongName).size() == 23);

}  // namespace

TEST(TelemetryAlloc, WarmCountOfALongNameAllocatesNothing) {
  telemetry::set_enabled(true);
  // the first count creates the registry and the counter's key
  const std::size_t cold = g_allocations.load();
  telemetry::count(kLongName);
  telemetry::count("dpd.nlist.rebuild");
  EXPECT_GT(g_allocations.load(), cold);

  const std::size_t warm = g_allocations.load();
  for (int k = 0; k < 100; ++k) telemetry::count(kLongName, 2.0);
  telemetry::count("dpd.nlist.rebuild");
  EXPECT_EQ(g_allocations.load(), warm);

  const auto counters = telemetry::Registry::local().counters();
  EXPECT_EQ(counters.at(kLongName).count, 101u);
  EXPECT_EQ(counters.at(kLongName).value, 201.0);
  EXPECT_EQ(counters.at("dpd.nlist.rebuild").count, 2u);
}

TEST(TelemetryAlloc, WarmSeriesResetOfALongNameAllocatesNothing) {
  telemetry::set_enabled(true);
  telemetry::sample(kLongName, 1.0);
  const std::size_t warm = g_allocations.load();
  telemetry::sample_reset(kLongName);
  EXPECT_EQ(g_allocations.load(), warm);
  EXPECT_TRUE(telemetry::Registry::local().series().at(kLongName).empty());
}
