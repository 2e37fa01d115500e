// P3 -- google-benchmark: fleet tier throughput. Regions are independent
// until the cross-region structural vote, so ingest + finish + diagnose
// should scale with FleetConfig::threads; this bench sweeps regions x
// threads over identical per-region traces. threads = 1 is the serial
// reference the parallel rows are measured against (the reports themselves
// are bit-identical by construction; fleet_parallel_test proves it).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "common/scenario.h"
#include "core/fleet.h"
#include "metrics_main.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Count every heap allocation in the process (same minimal override as
// perf_pipeline): the ingest sweeps report allocs_per_record, and the
// steady-state bench below asserts the fused path stays off the allocator.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sentinel;

constexpr std::size_t kMaxRegions = 16;
constexpr double kDays = 4.0;
constexpr std::size_t kSensors = 8;

struct FleetWorkload {
  std::vector<std::vector<SensorRecord>> traces;  // one per region
  core::PipelineConfig pipeline_config;
  std::size_t total_records = 0;
};

/// Per-region traces of the same environment under different noise/loss
/// seeds (the honest multi-region deployment), generated once per process.
const FleetWorkload& workload() {
  static const FleetWorkload w = [] {
    FleetWorkload out;
    sim::GdiEnvironmentConfig ec;
    ec.duration_seconds = kDays * kSecondsPerDay;
    ec.seed = 42;
    const sim::GdiEnvironment env(ec);

    bench::ScenarioConfig sc;
    sc.duration_days = kDays;
    sc.num_sensors = kSensors;
    sc.seed = 42;
    out.pipeline_config = bench::make_pipeline_config(env, sc);
    out.pipeline_config.window_seconds = kSecondsPerHour;

    for (std::size_t r = 0; r < kMaxRegions; ++r) {
      sim::GdiDeploymentConfig dc;
      dc.num_sensors = kSensors;
      dc.seed = 1000 + r;
      auto simulator = sim::make_gdi_deployment(env, dc);
      auto result = simulator.run(ec.duration_seconds, util::ThreadPool::shared());
      out.total_records += result.trace.size();
      out.traces.push_back(std::move(result.trace));
    }
    return out;
  }();
  return w;
}

void BM_FleetIngestDiagnose(benchmark::State& state) {
  const auto regions = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const FleetWorkload& w = workload();

  std::vector<std::string> names;
  std::size_t records_per_iter = 0;
  for (std::size_t r = 0; r < regions; ++r) {
    names.push_back("region-" + std::to_string(r));
    records_per_iter += w.traces[r].size();
  }

  // Cluster heads upload in bursts; round-robin the bursts across regions so
  // every shard's queue stays busy and ingestion overlaps.
  constexpr std::size_t kBurst = 1024;

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    core::FleetConfig fc;
    fc.threads = threads;
    core::FleetMonitor fleet(fc);
    for (std::size_t r = 0; r < regions; ++r) {
      fleet.add_region(names[r], w.pipeline_config);
    }
    for (std::size_t off = 0;; off += kBurst) {
      bool any = false;
      for (std::size_t r = 0; r < regions; ++r) {
        if (off < w.traces[r].size()) {
          const std::size_t len = std::min(kBurst, w.traces[r].size() - off);
          fleet.add_records(names[r], {w.traces[r].data() + off, len});
          any = true;
        }
      }
      if (!any) break;
    }
    fleet.finish();
    const auto report = fleet.diagnose();
    benchmark::DoNotOptimize(report.overall);
    allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * records_per_iter));
  // Raw record throughput (the fleet capacity-planning unit) and whole-run
  // allocator pressure. allocs_per_record here covers the full lifecycle --
  // fleet construction, cold-start growth, finish, diagnose -- so it is an
  // upper bound; BM_FleetIngestSteadyState isolates the steady-state ingest
  // loop and asserts it stays allocation-free.
  state.counters["records_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations() * records_per_iter),
                         benchmark::Counter::kIsRate);
  state.counters["allocs_per_record"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(allocs) /
                static_cast<double>(state.iterations() * records_per_iter));
}

/// Steady-state fused ingest: one region, the decode -> window ->
/// screen-cache data plane only (no finish/diagnose in the timed loop), at
/// FleetConfig::threads = state.range(0). A warm-up pass over the full trace
/// grows every recycled buffer (windower slots, gather gathers, pipeline
/// scratch, alarm rows, and at threads > 1 the shard's circulating record
/// batches); the counted pass replays the identical trace time-shifted by a
/// whole number of windows, so every record takes the same path through warm
/// state. The counted section ends with drain(), so it covers the worker
/// threads' allocations too. The contract -- zero allocations per record at
/// steady state, shard handoff included -- is asserted in-bench (a tiny
/// epsilon absorbs the amortized history-arena slabs and alarm-edge track
/// churn, which are per-window, not per-record).
void BM_FleetIngestSteadyState(benchmark::State& state) {
  const FleetWorkload& w = workload();
  const std::vector<SensorRecord>& trace = w.traces[0];
  constexpr std::size_t kBurst = 1024;

  // Shift pass 2 by the trace duration rounded up to a whole window so the
  // replayed records open fresh windows instead of arriving late.
  const double window = w.pipeline_config.window_seconds;
  double t_max = 0.0;
  for (const auto& rec : trace) t_max = std::max(t_max, rec.time);
  const double shift = (std::floor(t_max / window) + 1.0) * window;
  std::vector<SensorRecord> shifted = trace;
  for (auto& rec : shifted) rec.time += shift;

  std::uint64_t hot_allocs = 0;
  std::uint64_t hot_records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::FleetConfig fc;
    fc.threads = static_cast<std::size_t>(state.range(0));
    core::FleetMonitor fleet(fc);
    fleet.add_region("r", w.pipeline_config);
    for (std::size_t off = 0; off < trace.size(); off += kBurst) {
      const std::size_t len = std::min(kBurst, trace.size() - off);
      fleet.add_records("r", {trace.data() + off, len});
    }
    fleet.drain();
    state.ResumeTiming();
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (std::size_t off = 0; off < shifted.size(); off += kBurst) {
      const std::size_t len = std::min(kBurst, shifted.size() - off);
      fleet.add_records("r", {shifted.data() + off, len});
    }
    fleet.drain();
    hot_allocs += g_alloc_count.load(std::memory_order_relaxed) - before;
    hot_records += shifted.size();
    benchmark::DoNotOptimize(fleet.region("r").windows_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hot_records));
  const double allocs_per_record =
      hot_records == 0 ? 0.0
                       : static_cast<double>(hot_allocs) / static_cast<double>(hot_records);
  state.counters["records_per_second"] = benchmark::Counter(
      static_cast<double>(hot_records), benchmark::Counter::kIsRate);
  state.counters["allocs_per_record"] = benchmark::Counter(allocs_per_record);
  if (allocs_per_record > 0.01) {
    state.SkipWithError("fused ingest path allocated at steady state");
  }
}

/// Crash-consistent checkpointing tax (docs/RELIABILITY.md): the same
/// 2-region serial ingest with the store committing every N records.
/// every = 0 is the no-store baseline; the other rows snapshot the region
/// on the producer thread and run the fsync/rename commit protocol on the
/// committer thread each time the cadence fires. The traces are long
/// enough (~70 days x 16 sensors, ~290k records per region) that the
/// default cadence (FleetConfig::checkpoint_every_records = 262144)
/// actually fires, so the every:262144 row IS the default-configuration
/// overhead, while every:65536 shows a 4x-more-aggressive cadence.
const FleetWorkload& checkpoint_workload() {
  static const FleetWorkload w = [] {
    FleetWorkload out;
    constexpr std::size_t kCkptSensors = 16;
    sim::GdiEnvironmentConfig ec;
    ec.duration_seconds = 70.0 * kSecondsPerDay;
    ec.seed = 42;
    const sim::GdiEnvironment env(ec);

    bench::ScenarioConfig sc;
    sc.duration_days = 70.0;
    sc.num_sensors = kCkptSensors;
    sc.seed = 42;
    out.pipeline_config = bench::make_pipeline_config(env, sc);
    out.pipeline_config.window_seconds = kSecondsPerHour;

    for (std::size_t r = 0; r < 2; ++r) {
      sim::GdiDeploymentConfig dc;
      dc.num_sensors = kCkptSensors;
      dc.seed = 2000 + r;
      auto simulator = sim::make_gdi_deployment(env, dc);
      auto result = simulator.run(ec.duration_seconds, util::ThreadPool::shared());
      out.total_records += result.trace.size();
      out.traces.push_back(std::move(result.trace));
    }
    return out;
  }();
  return w;
}

void BM_FleetCheckpointOverhead(benchmark::State& state) {
  const auto every = static_cast<std::size_t>(state.range(0));
  const FleetWorkload& w = checkpoint_workload();
  const std::size_t regions = w.traces.size();
  constexpr std::size_t kBurst = 1024;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("perf_fleet_ckpt_" + std::to_string(static_cast<long>(::getpid()))))
          .string();

  std::vector<std::string> names;
  for (std::size_t r = 0; r < regions; ++r) {
    names.push_back("region-" + std::to_string(r));
  }

  for (auto _ : state) {
    // The timed region is the streaming ingest path itself (ingest + finish
    // + diagnose): store setup and the shutdown drain -- fleet destruction
    // blocks until the committer thread has pushed the final queued
    // snapshots to disk -- are deployment lifecycle, not per-record cost.
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    core::FleetConfig fc;
    fc.threads = 1;
    if (every > 0) {
      fc.checkpoint_dir = dir;
      fc.checkpoint_every_records = every;
    }
    auto fleet = std::make_unique<core::FleetMonitor>(fc);
    for (std::size_t r = 0; r < regions; ++r) {
      fleet->add_region(names[r], w.pipeline_config);
    }
    state.ResumeTiming();
    for (std::size_t off = 0;; off += kBurst) {
      bool any = false;
      for (std::size_t r = 0; r < regions; ++r) {
        if (off < w.traces[r].size()) {
          const std::size_t len = std::min(kBurst, w.traces[r].size() - off);
          fleet->add_records(names[r], {w.traces[r].data() + off, len});
          any = true;
        }
      }
      if (!any) break;
    }
    fleet->finish();
    const auto report = fleet->diagnose();
    benchmark::DoNotOptimize(report.overall);
    state.PauseTiming();
    fleet.reset();  // shutdown: drain + join the committer, untimed
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * w.total_records));
}

}  // namespace

BENCHMARK(BM_FleetIngestDiagnose)
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 8})
    ->Args({16, 1})
    ->Args({16, 4})
    ->ArgNames({"regions", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_FleetIngestSteadyState)
    ->Arg(1)
    ->Arg(4)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_FleetCheckpointOverhead)
    ->Arg(0)
    ->Arg(262144)
    ->Arg(65536)
    ->ArgName("every")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int main(int argc, char** argv) { return sentinel::bench_main::run(argc, argv); }
