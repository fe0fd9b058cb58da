// Table 1 reproduction: SIMD performance-tuning speed-up factors for the
// three kernels the paper vectorises (Sec. 3.5):
//     z[i] = x[i] * y[i]
//     a    = sum x[i] y[i] z[i]
//     a    = sum x[i] y[i] y[i]
// The paper reports 1.5-4x on Cray XT5 (SSE) and BG/P (Double Hummer); here
// the comparison is hand-vectorised AVX2+FMA vs pinned-scalar code on the
// host CPU. Data is sized to stay in cache, where the paper notes the SIMD
// benefit is most pronounced.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <random>

#include "la/simd.hpp"
#include "la/vector.hpp"
#include "table1/kernels.hpp"
#include "telemetry/bench_report.hpp"

namespace {

constexpr std::size_t kN = 4096;  // 32 KiB/vector: L1-resident

la::Vector make_vec(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(0.5, 1.5);
  la::Vector v(kN);
  for (auto& x : v) x = d(rng);
  return v;
}

void BM_vmul_scalar(benchmark::State& state) {
  auto x = make_vec(1), y = make_vec(2);
  la::Vector z(kN);
  for (auto _ : state) {
    la::simd::vmul_scalar(z.data(), x.data(), y.data(), kN);
    benchmark::DoNotOptimize(z.data());
  }
}
void BM_vmul_simd(benchmark::State& state) {
  auto x = make_vec(1), y = make_vec(2);
  la::Vector z(kN);
  for (auto _ : state) {
    la::simd::vmul(z.data(), x.data(), y.data(), kN);
    benchmark::DoNotOptimize(z.data());
  }
}
void BM_dot_xyz_scalar(benchmark::State& state) {
  auto x = make_vec(1), y = make_vec(2), z = make_vec(3);
  for (auto _ : state) {
    double a = la::simd::dot_xyz_scalar(x.data(), y.data(), z.data(), kN);
    benchmark::DoNotOptimize(a);
  }
}
void BM_dot_xyz_simd(benchmark::State& state) {
  auto x = make_vec(1), y = make_vec(2), z = make_vec(3);
  for (auto _ : state) {
    double a = la::simd::dot_xyz(x.data(), y.data(), z.data(), kN);
    benchmark::DoNotOptimize(a);
  }
}
void BM_scale_scalar(benchmark::State& state) {
  auto x = make_vec(1);
  for (auto _ : state) {
    la::simd::scale_scalar(1.0000001, x.data(), kN);
    benchmark::DoNotOptimize(x.data());
  }
}
void BM_scale_simd(benchmark::State& state) {
  auto x = make_vec(1);
  for (auto _ : state) {
    la::simd::scale(1.0000001, x.data(), kN);
    benchmark::DoNotOptimize(x.data());
  }
}
void BM_dot_xyy_scalar(benchmark::State& state) {
  auto x = make_vec(1), y = make_vec(2);
  for (auto _ : state) {
    double a = la::simd::dot_xyy_scalar(x.data(), y.data(), kN);
    benchmark::DoNotOptimize(a);
  }
}
void BM_dot_xyy_simd(benchmark::State& state) {
  auto x = make_vec(1), y = make_vec(2);
  for (auto _ : state) {
    double a = la::simd::dot_xyy(x.data(), y.data(), kN);
    benchmark::DoNotOptimize(a);
  }
}

BENCHMARK(BM_vmul_scalar);
BENCHMARK(BM_vmul_simd);
BENCHMARK(BM_dot_xyz_scalar);
BENCHMARK(BM_dot_xyz_simd);
BENCHMARK(BM_scale_scalar);
BENCHMARK(BM_scale_simd);
BENCHMARK(BM_dot_xyy_scalar);
BENCHMARK(BM_dot_xyy_simd);

/// Median-of-reps timing used for the printed speed-up table.
template <class F>
double time_of(F&& f) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = clock::now();
    for (int it = 0; it < 2000; ++it) f();
    const auto t1 = clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

void print_table1() {
  auto x = make_vec(1), y = make_vec(2), z = make_vec(3);
  la::Vector out(kN);
  volatile double sink = 0.0;

  const double t_vmul_s =
      time_of([&] { la::simd::vmul_scalar(out.data(), x.data(), y.data(), kN); });
  const double t_vmul_v = time_of([&] { la::simd::vmul(out.data(), x.data(), y.data(), kN); });
  const double t_xyz_s =
      time_of([&] { sink = la::simd::dot_xyz_scalar(x.data(), y.data(), z.data(), kN); });
  const double t_xyz_v =
      time_of([&] { sink = la::simd::dot_xyz(x.data(), y.data(), z.data(), kN); });
  const double t_xyy_s =
      time_of([&] { sink = la::simd::dot_xyy_scalar(x.data(), y.data(), kN); });
  const double t_xyy_v = time_of([&] { sink = la::simd::dot_xyy(x.data(), y.data(), kN); });
  const double t_scale_s = time_of([&] { la::simd::scale_scalar(1.0000001, out.data(), kN); });
  const double t_scale_v = time_of([&] { la::simd::scale(1.0000001, out.data(), kN); });
  (void)sink;

  const char* isa = la::simd::detect() == la::simd::Isa::Avx2 ? "AVX2+FMA" : "scalar fallback";
  const double su_vmul = t_vmul_s / t_vmul_v;
  const double su_xyz = t_xyz_s / t_xyz_v;
  const double su_xyy = t_xyy_s / t_xyy_v;
  const double su_scale = t_scale_s / t_scale_v;

  std::printf("\n=== Table 1: SIMD performance tuning speed-up factor ===\n");
  std::printf("(paper: Cray XT5 2.00/2.53/4.00, BG/P 3.40/1.60/2.25; here: host AVX2 vs scalar)\n");
  std::printf("%-28s %12s\n", "function  i=[0,N-1]", "speed-up");
  std::printf("%-28s %12.2f\n", "z[i] = x[i]*y[i]", su_vmul);
  std::printf("%-28s %12.2f\n", "a = sum x[i]*y[i]*z[i]", su_xyz);
  std::printf("%-28s %12.2f\n", "a = sum x[i]*y[i]*y[i]", su_xyy);
  std::printf("%-28s %12.2f\n", "x[i] = s*x[i]", su_scale);
  std::printf("ISA dispatched: %s\n\n", isa);

  telemetry::BenchReport rep("table1_simd");
  rep.meta("isa", std::string(isa));
  rep.meta("n", static_cast<double>(kN));
  const struct {
    const char* kernel;
    double scalar_s, simd_s, speedup;
  } rows[] = {{"vmul", t_vmul_s, t_vmul_v, su_vmul},
              {"dot_xyz", t_xyz_s, t_xyz_v, su_xyz},
              {"dot_xyy", t_xyy_s, t_xyy_v, su_xyy},
              {"scale", t_scale_s, t_scale_v, su_scale}};
  for (const auto& r : rows) {
    rep.row();
    rep.set("kernel", std::string(r.kernel));
    rep.set("scalar_s", r.scalar_s);
    rep.set("simd_s", r.simd_s);
    rep.set("speedup", r.speedup);
  }
  rep.write();
}

}  // namespace

int main(int argc, char** argv) {
  print_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
