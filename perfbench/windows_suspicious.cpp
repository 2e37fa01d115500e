// windows-suspicious: 8 regions x 1024 sensors x 8 attributes fed as
// pre-aggregated windows through FleetMonitor::add_window with the screen
// tier on. The feed is perf_screen's generator: 8 resident regimes cycled
// every 64 windows, and a 10% suspicious bloc carrying balanced +/-12
// per-attribute offsets in recurring episodes (6 windows on, 22 off), so the
// window mean never moves and healthy screens stay quiet. Decode, windowing
// and record handoff are bypassed; the screen, state identification,
// alarms, the HMM slab and many-sensor diagnosis do the work. Passes
// alternate FleetConfig::threads 4 and 1; every FleetReport must render
// byte-identically.

#include <bit>
#include <cstdio>
#include <future>

#include "core/fleet.h"
#include "harness.h"
#include "screen/screen.h"
#include "trace/windower.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace sentinel;

constexpr std::size_t kRegions = 8;
constexpr std::size_t kSensors = 1024;
constexpr std::size_t kWindows = 160;
constexpr std::size_t kAttrs = 8;
constexpr std::size_t kRegimes = 8;
constexpr std::size_t kRegimePeriod = 64;
constexpr std::size_t kSuspiciousPct = 10;
constexpr double kFaultOffset = 12.0;
constexpr std::size_t kEpisodeOn = 6;
constexpr std::size_t kEpisodePeriod = 28;
constexpr double kWindowSeconds = kSecondsPerHour;

/// Centroid of regime k: adjacent regimes sit 16 apart in L2 (as perf_screen).
AttrVec regime_centroid(std::size_t k) {
  const AttrVec base = {50.0, 25.0, 40.0, 60.0, 30.0, 45.0, 55.0, 35.0};
  const AttrVec swing = {8.0, -8.0, 8.0, -8.0, 8.0, -8.0, 8.0, -8.0};
  AttrVec c(kAttrs);
  for (std::size_t a = 0; a < kAttrs; ++a) c[a] = base[a] + static_cast<double>(k) * swing[a];
  return c;
}

struct Inputs {
  core::PipelineConfig config;
  std::vector<std::string> names;
  std::vector<std::vector<ObservationSet>> windows;  // [region][window]
  std::size_t records = 0;  // sensor-windows, the fleet's ingest weight
  std::uint64_t digest = kFnvBasis;  // over every representative's sum
};

/// One region's feed: what a cluster head that windows locally uploads
/// (representatives plus the cached sums and mean; no raw samples).
std::vector<ObservationSet> make_region(std::uint64_t seed, std::size_t r) {
  std::vector<ObservationSet> out;
  out.reserve(kWindows);
  Rng rng(seed * 131 + r, "perfbench-windows");
  const std::size_t suspicious = kSensors * kSuspiciousPct / 100;
  for (std::size_t i = 1; i <= kWindows; ++i) {
    const AttrVec regime = regime_centroid(((i - 1) / kRegimePeriod) % kRegimes);
    const bool episode_on = ((i - 1) % kEpisodePeriod) < kEpisodeOn;
    ObservationSet os;
    os.window_index = i;
    os.window_start = kWindowSeconds * static_cast<double>(i - 1);
    os.window_end = kWindowSeconds * static_cast<double>(i);
    os.rep_sensors.reserve(kSensors);
    os.rep_points.reserve(kSensors);
    os.rep_sums.reserve(kSensors);
    os.rep_total.assign(kAttrs, 0.0);
    for (std::size_t s = 0; s < kSensors; ++s) {
      const double fault =
          episode_on && s < suspicious ? ((s % 2 == 0) ? kFaultOffset : -kFaultOffset) : 0.0;
      AttrVec p(kAttrs);
      for (std::size_t a = 0; a < kAttrs; ++a) p[a] = regime[a] + rng.gaussian(0.0, 0.4) + fault;
      for (std::size_t a = 0; a < kAttrs; ++a) os.rep_total[a] += p[a];
      os.rep_sensors.push_back(static_cast<SensorId>(s));
      os.rep_sums.push_back(vecn::scalar_sum(p));
      os.rep_points.push_back(std::move(p));
    }
    os.cached_mean = os.rep_total;
    for (auto& a : os.cached_mean) a /= static_cast<double>(kSensors);
    out.push_back(std::move(os));
  }
  return out;
}

Inputs make_inputs(const Args& args) {
  Inputs in;
  in.config.window_seconds = kWindowSeconds;
  for (std::size_t k = 0; k < kRegimes; ++k) in.config.initial_states.push_back(regime_centroid(k));
  in.config.model_states.max_states = 24;  // regimes + shadow states for the bloc
  in.config.screen.mode = screen::ScreenMode::kScreen;
  in.config.screen.chi2_threshold = 3.5;
  in.config.screen.runs_z_threshold = 3.5;
  in.config.record_history = false;  // fleet-at-scale configuration
  std::vector<std::future<std::vector<ObservationSet>>> jobs;
  for (std::size_t r = 0; r < kRegions; ++r) {
    in.names.push_back("region-" + std::to_string(r));
    jobs.push_back(util::ThreadPool::shared().submit([&args, r] { return make_region(args.seed, r); }));
  }
  // Every task refers to `args`; none may outlive a failed one.
  for (auto& job : jobs) job.wait();
  for (auto& job : jobs) {
    in.windows.push_back(job.get());
    for (const auto& w : in.windows.back()) {
      in.records += w.sensor_count();
      for (const double v : w.rep_sums) fnv(in.digest, std::bit_cast<std::uint64_t>(v));
    }
  }
  core::FleetConfig fc;
  fc.threads = kFleetThreads;
  core::FleetMonitor fleet(fc);
  for (const auto& name : in.names) fleet.add_region(name, in.config);
  return in;
}

/// One windows -> FleetReport pass, windows uploaded round-robin across
/// regions (a fleet of synchronized cluster heads). `ack_us` (if set)
/// collects the latency of every add_window call.
void run_pass(const Inputs& in, std::size_t threads, bool traced, std::vector<double>* ack_us,
              Result& res, Pass& p) {
  core::FleetConfig fc;
  fc.threads = threads;
  core::FleetMonitor fleet(fc);
  for (const auto& name : in.names) fleet.add_region(name, in.config);

  const auto t0 = now_ns();
  const std::uint64_t allocs0 = alloc_count();
  for (std::size_t i = 0; i < kWindows; ++i) {
    for (std::size_t r = 0; r < kRegions; ++r) {
      const auto a0 = now_ns();
      fleet.add_window(in.names[r], in.windows[r][i]);
      const auto a1 = now_ns();
      p.add_ns += a1 - a0;
      if (ack_us != nullptr) ack_us->push_back(static_cast<double>(a1 - a0) / 1e3);
    }
  }
  p.ingest_allocs = alloc_count() - allocs0;
  {
    Span s(traced ? &p.finish_ns : nullptr);
    fleet.finish();
  }
  {
    Span s(&p.diagnose_ns);
    p.report = fleet.diagnose();
  }
  p.wall_ns = static_cast<double>(now_ns() - t0);

  for (const auto& name : in.names) {
    const auto& st = fleet.region_health(name);
    p.backpressure_waits += st.backpressure_waits;
    p.backpressure_block_ns += st.backpressure_block_ns;
    const auto c = fleet.region(name).counters();
    p.hmm_updates += c.hmm_updates;
    p.windows += c.windows_processed;
    res.op(st.health == core::RegionHealth::kHealthy && st.status.is_ok() &&
               st.records_ingested == kWindows * kSensors,
           name + ": ingest at threads " + std::to_string(threads) + " not clean: " +
               st.status.message());
  }
  p.render = core::to_string(p.report);
}

/// Sensor-level truth: the bloc carries a constant offset whenever it is
/// faulty, so each bloc sensor should be diagnosed error/additive and every
/// other sensor should carry no error or attack diagnosis.
double exact_frac(const Inputs& in, const core::FleetReport& report) {
  const std::size_t suspicious = kSensors * kSuspiciousPct / 100;
  std::size_t exact = 0;
  for (const auto& name : in.names) {
    const auto region = report.regions.find(name);
    if (region == report.regions.end()) continue;
    for (std::size_t s = 0; s < kSensors; ++s) {
      const auto it = region->second.sensors.find(static_cast<SensorId>(s));
      const bool flagged =
          it != region->second.sensors.end() && it->second.verdict != core::Verdict::kNormal;
      if (s < suspicious) {
        if (flagged && it->second.verdict == core::Verdict::kError &&
            it->second.kind == core::AnomalyKind::kAdditive) {
          ++exact;
        }
      } else if (!flagged) {
        ++exact;
      }
    }
  }
  return static_cast<double>(exact) / static_cast<double>(in.names.size() * kSensors);
}

/// Replay every region's windows through DetectionPipeline::process_window
/// with the stage timers on, and check the diagnoses match the fleet's.
void replay(const Inputs& in, const core::FleetReport& ref, LayerMetrics& m, Result& res) {
  std::uint64_t pw_ns = 0;
  std::vector<double> pw_us;
  bool identical = true;
  const StageSums stages0 = stage_sums();
  for (std::size_t r = 0; r < kRegions; ++r) {
    core::PipelineConfig cfg = in.config;
    cfg.stage_timers = true;
    core::DetectionPipeline pipeline(cfg);
    for (const auto& w : in.windows[r]) {
      const auto t0 = now_ns();
      pipeline.process_window(w);
      const auto dt = now_ns() - t0;
      pw_ns += dt;
      pw_us.push_back(static_cast<double>(dt) / 1e3);
    }
    const auto it = ref.regions.find(in.names[r]);
    identical = identical && it != ref.regions.end() &&
                core::to_string(pipeline.diagnose()) == core::to_string(it->second);
  }
  res.check(identical, "windows-suspicious replay: diagnoses differ from the fleet's");
  if (!identical) return;
  m.process_window_us_p50 = quantile(pw_us, 0.50);
  m.process_window_us_p99 = quantile(pw_us, 0.99);
  fill_stage_shares(m, stages0, static_cast<double>(pw_ns));
}

}  // namespace

Result run_windows_suspicious(const Args& args) {
  Result res;
  std::vector<double> setup_s;
  const Inputs in = set_up(args, [&] { return make_inputs(args); }, setup_s, res);
  std::fprintf(stderr, "windows-suspicious: %zu regions, %zu sensor-windows, setup %.3f s\n",
               in.names.size(), in.records, median(setup_s));
  const RunPass run = [&](std::size_t threads, bool traced, std::vector<double>* ack_us,
                          Pass& p) { run_pass(in, threads, traced, ack_us, res, p); };

  Pass ref;
  run(1, false, nullptr, ref);
  const double records = static_cast<double>(in.records);
  if (!args.trace) {
    measure_passes(args, run, ref, records, res);
    res.add("verdict_exact_frac", exact_frac(in, ref.report), "frac");
    res.add("setup_s", median(setup_s), "s");
    return res;
  }

  LayerMetrics m;
  trace_passes(args, run, ref, records, m, res);
  std::fprintf(stderr,
               "windows-suspicious traced: uncovered remainder is the benchmark's upload loop "
               "(round-robin turn, clock reads)\n");
  // Screen counts are deterministic: a speed-up that comes from screening
  // less shows here.
  screen::ScreenStats total;
  for (const auto& [name, s] : ref.report.screens) {
    total.escalations += s.escalations;
    total.chi2_trips += s.chi2_trips;
    total.runs_trips += s.runs_trips;
    total.screened_windows += s.screened_windows;
    total.escalated_windows += s.escalated_windows;
  }
  const double sensor_windows =
      static_cast<double>(total.screened_windows + total.escalated_windows);
  res.check(sensor_windows > 0, "windows-suspicious: the screen tier saw no windows");
  if (sensor_windows > 0) {
    m.escalated_window_frac = static_cast<double>(total.escalated_windows) / sensor_windows;
    m.trips_per_1k_sensor_windows =
        1000.0 * static_cast<double>(total.chi2_trips + total.runs_trips) / sensor_windows;
  }
  m.escalations = static_cast<double>(total.escalations);
  replay(in, ref.report, m, res);
  m.emit(res);
  return res;
}

}  // namespace perfbench
