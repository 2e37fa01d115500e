// Shared plumbing for the repo benchmark: arguments, clocks, order
// statistics, the process-wide allocation counter, the result record
// main.cpp prints as the final JSON line, and the pass loops the two batch
// workloads share. Each workload lives in its own translation unit and
// returns a Result.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/scenario.h"
#include "core/fleet.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured span of the run
  bool trace = false;     // false: end-to-end metrics; true: per-layer metrics
  std::string data_dir;   // scratch for generated files (inside the checkout)
};

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Adds the scope's duration to `*acc` (nanoseconds); a null `acc` reads no
/// clock, so the untraced run pays nothing for the spans it skips.
class Span {
 public:
  explicit Span(std::uint64_t* acc) : acc_(acc), start_(acc ? now_ns() : 0) {}
  ~Span() {
    if (acc_ != nullptr) *acc_ += now_ns() - start_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t* acc_;
  std::uint64_t start_;
};

/// splitmix64 finalizer: derives the per-region / per-trace input seeds
/// from --seed.
inline std::uint64_t seed_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A `sensors`-sensor GDI deployment in `env` run for `days`, with the
/// section 3.3 injection `kind` (seeded by `seed`) applied: the trace
/// bench::run_scenario generates, without its pipeline run.
std::vector<sentinel::SensorRecord> injected_trace(const sentinel::sim::GdiEnvironment& env,
                                                   sentinel::bench::InjectionKind kind,
                                                   std::uint64_t seed, std::size_t sensors,
                                                   double days);

/// Heap allocations so far in this process (the global operator new
/// override in main.cpp).
std::uint64_t alloc_count();

/// Quantile by nearest rank on a copy (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The memory one unit of the workload's work needs, in MiB: the least over
/// three calls of `work` of the RSS high-water mark reached during the call
/// above the resident set just before it. Freed heap is returned to the
/// system before each call, so what earlier passes left cached in the
/// allocator does not count, and the inputs, resident throughout, cancel
/// out. The least, not the median: when the host stalls the fleet's
/// workers, more batches wait in its queues, which only adds memory (up to
/// 25% on windows-suspicious).
double peak_rss_mb(const std::function<void()>& work);

/// CPU time the hypervisor has taken from this machine so far (/proc/stat
/// "steal", summed over CPUs), in nanoseconds; 0 where none is reported.
double steal_ns();

/// Share of the machine's CPU time stolen since `steal0` (a steal_ns()
/// reading) over a span of `wall_ns`.
double steal_share(double steal0, double wall_ns);

/// Current total of a registry counter (util::metrics()); 0 if unregistered.
std::uint64_t registry_counter(const std::string& name);

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one operation; a false `ok` counts it as failed and prints `what`.
  void op(bool ok, const std::string& what);
  /// A correctness check that is not an operation (e.g. a replay identity).
  void check(bool ok, const std::string& what);
};

/// Indices of a run's calm passes (or rounds): those whose steal share is
/// at most both the run's `q`-quantile and the fixed `ceiling`. The
/// reference machine is a VM whose host takes up to 25% of its CPU time in
/// busy periods, which last minutes; a threads-4 pass then loses up to 45%
/// of its speed, and a serve-tenants round with only 1-8% steal has an ack
/// p99 of 2-20 ms instead of about 0.4 ms. The quantile keeps the calmest
/// passes of a quiet run; the ceiling stops a run inside a busy period from
/// calling its stolen passes calm. Fewer than kMinCalm passes under the
/// ceiling marks the run incorrect (named `what` on stderr): its figures
/// would measure the host, not the program.
std::vector<std::size_t> calm_passes(const std::vector<double>& steal_shares, double q,
                                     double ceiling, const std::string& what, Result& res);
inline constexpr std::size_t kMinCalm = 4;

/// Whether a run's measuring loop that began at `start` goes on: always for
/// --seconds, then up to 3 x --seconds in all while the threads-4 or the
/// threads-1 side has fewer than kMinCalm passes (or rounds) under the
/// steal ceiling (`calm4`, `calm1`), so a run that meets one of the host's
/// busy periods, which last a minute or more, can wait it out.
bool keep_measuring(const Args& args, Clock::time_point start, std::size_t calm4,
                    std::size_t calm1);

/// Per-layer metrics every workload prints in its traced run; a workload that
/// does not exercise a layer leaves its entries at 0.
struct LayerMetrics {
  double decode_ns_per_record = 0, decode_share = 0, window_ns_per_record = 0;
  double add_records_ns_per_record = 0, backpressure_waits = 0, backpressure_block_share = 0;
  double records_per_handoff = 0, allocs_per_record = 0, finish_ms = 0, diagnose_ms = 0;
  double checkpoint_now_ms = 0, checkpoint_bytes = 0;
  double process_window_us_p50 = 0, process_window_us_p99 = 0;
  double stage_screen = 0, stage_centroid = 0, stage_identify = 0, stage_spawn = 0,
         stage_alarms = 0, stage_hmm = 0;
  double escalated_window_frac = 0, trips_per_1k_sensor_windows = 0, escalations = 0;
  double hmm_updates_per_window = 0, hmm_slab_repacks = 0;
  double send_us_p50 = 0, flush_us_p50 = 0, flush_us_p99 = 0, rejected_frames = 0,
         gen_late_ms_p99 = 0;
  double overhead_ms = 0, layer_sum_share = 0;
  double steal_share = 0;  // of the traced run's measured span

  void emit(Result& r) const;
};

/// Running sums of the pipeline.stage.*_ns histograms, in the order screen,
/// centroid, identify, spawn, alarms, hmm.
using StageSums = std::array<std::uint64_t, 6>;
StageSums stage_sums();

/// Stage time since `before` as shares of `process_window_ns`.
void fill_stage_shares(LayerMetrics& m, const StageSums& before, double process_window_ns);

/// Runs a workload's set-up three times (once in the traced run) and checks
/// that each produced the same inputs (their `digest`). Returns the last
/// inputs; the set-up times go to `setup_s`.
template <typename Make>
auto set_up(const Args& args, Make make, std::vector<double>& setup_s, Result& res) {
  decltype(make()) in{};
  const int reps = args.trace ? 1 : 3;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t digest = in.digest;
    in = {};  // release the previous copy before generating the next
    const auto t0 = Clock::now();
    in = make();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    res.check(i == 0 || in.digest == digest,
              args.workload + ": set-up is not deterministic for one seed");
  }
  return in;
}

/// FNV-1a step, for the set-up digests.
inline void fnv(std::uint64_t& h, std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; }
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// The fleet's thread count in the threads-4 passes and rounds.
inline constexpr std::size_t kFleetThreads = 4;

/// One input -> FleetReport pass of a batch workload (fleet-csv,
/// windows-suspicious). add_ns and diagnose_ns are always taken; the other
/// spans only in traced passes.
struct Pass {
  double wall_ns = 0;
  std::uint64_t decode_ns = 0, add_ns = 0, finish_ns = 0, diagnose_ns = 0;
  std::uint64_t ingest_allocs = 0;  // during the ingest loop
  std::uint64_t backpressure_waits = 0, backpressure_block_ns = 0;
  std::uint64_t hmm_updates = 0, windows = 0;
  sentinel::core::FleetReport report;
  std::string render;
};

/// Runs one pass at `threads`. `ack_us`, if set, receives the latency of
/// every ingest call.
using RunPass =
    std::function<void(std::size_t threads, bool traced, std::vector<double>* ack_us, Pass& p)>;

/// The untraced run of a batch workload: a threads-4 warm-up, then threads-4
/// and threads-1 passes alternate for --seconds. Every report must render
/// like `ref`. Adds records_per_s, records_per_s_t1, ack_p50_us, ack_p99_us
/// and snapshot_p50_us; `records` is the ingest weight of one pass. Then
/// adds peak_rss_mb from threads-4 passes after the measured span.
void measure_passes(const Args& args, const RunPass& run, const Pass& ref, double records,
                    Result& res);

/// The traced run of a batch workload: untraced and traced threads-4 passes
/// alternate for --seconds, so the overhead is measured against the same
/// state of the machine. Fills the fleet-side layer metrics, the overhead
/// and the coverage of decode + ingest + finish + diagnose.
void trace_passes(const Args& args, const RunPass& run, const Pass& ref, double records,
                  LayerMetrics& m, Result& res);

Result run_fleet_csv(const Args& args);
Result run_windows_suspicious(const Args& args);
Result run_serve_tenants(const Args& args);

}  // namespace perfbench
