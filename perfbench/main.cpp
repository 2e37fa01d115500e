// Repo benchmark entry point (see README.md):
//
//   sentinel_perfbench --workload fleet-csv|windows-suspicious|serve-tenants
//                      --seed N --seconds S --trace 0|1 --data-dir DIR
//
// --trace 0 runs the workload untraced and reports its end-to-end metrics;
// --trace 1 is the separate traced run that reports per-layer metrics.
// Human-readable detail goes to stderr; stdout carries exactly one line,
// the result JSON: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <string_view>
#include <thread>

#include "harness.h"
#include "util/kernels.h"
#include "util/thread_pool.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Count every heap allocation in the process (the override perf_fleet and
// perf_screen use); core.allocs_per_record reads it around the timed
// ingest loop.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: sentinel_perfbench --workload fleet-csv|windows-suspicious|"
               "serve-tenants --seed N --seconds S --trace 0|1 --data-dir DIR\n");
  return 2;
}

void print_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    std::fprintf(stderr, "  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if ((v = value()) == nullptr) {
      return usage();
    } else if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args.trace = std::string_view(v) == "1";
      have_trace = true;
    } else if (a == "--data-dir") {
      args.data_dir = v;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.data_dir.empty() || !have_trace || !(args.seconds > 0)) {
    return usage();
  }
  std::filesystem::create_directories(args.data_dir);

  // Machine context, as the perf_* benches stamp it (metrics_main.h).
  std::fprintf(stderr,
               "machine: hardware_threads %u, usable_concurrency %zu, kernels %s, build %s\n",
               std::max(1u, std::thread::hardware_concurrency()),
               sentinel::util::default_concurrency(),
               sentinel::kern::level_name(sentinel::kern::active_level()),
#ifdef NDEBUG
               "release"
#else
               "debug"
#endif
  );

  Result r;
  try {
    if (args.workload == "fleet-csv") {
      r = run_fleet_csv(args);
    } else if (args.workload == "windows-suspicious") {
      r = run_windows_suspicious(args);
    } else if (args.workload == "serve-tenants") {
      r = run_serve_tenants(args);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(r);
  return 0;
}
