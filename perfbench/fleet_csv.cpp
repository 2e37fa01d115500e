// fleet-csv: the paper's evaluation month run as a fleet. 32 regions of 10
// GDI sensors over 31 days; region r carries injection kind r % 10 (every
// section 3.3 kind, cycled) with its own seed, and is read back from its own
// CSV file through CsvTraceReader. The benchmark pumps the readers round-robin
// (one 1024-record batch per region per turn, a collector draining many
// cluster-head uploads) into FleetMonitor::add_records, then finish() and
// diagnose(). Passes alternate FleetConfig::threads 4 and 1 over the same
// files; every pass's FleetReport must render byte-identically.

#include <bit>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>

#include "common/scenario.h"
#include "core/fleet.h"
#include "harness.h"
#include "trace/trace_reader.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace sentinel;

constexpr std::size_t kRegions = 32;
constexpr std::size_t kSensors = 10;
constexpr double kDays = 31.0;
constexpr std::size_t kBatch = 1024;

struct Region {
  std::string name;
  std::string path;
  bench::InjectionKind kind = bench::InjectionKind::kClean;
  core::PipelineConfig config;
};

struct Inputs {
  std::vector<Region> regions;
  std::size_t records = 0;
  std::uint64_t digest = kFnvBasis;  // over every generated record
};

struct Generated {
  Region region;
  std::size_t records = 0;
  std::uint64_t digest = kFnvBasis;
};

/// Generate one region's injected month and write it as CSV.
Generated generate_region(const Args& args, std::size_t r) {
  Generated g;
  Region& reg = g.region;
  reg.name = "region-" + std::to_string(r);
  reg.path = args.data_dir + "/" + reg.name + ".csv";
  const auto kinds = bench::all_injection_kinds();
  reg.kind = kinds[r % kinds.size()];
  const std::uint64_t seed = seed_mix(args.seed * kRegions + r) % 1000000007ULL;

  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = kDays * kSecondsPerDay;
  ec.seed = seed;
  const sim::GdiEnvironment env(ec);
  const auto trace = injected_trace(env, reg.kind, seed, kSensors, kDays);
  write_trace_file(reg.path, trace);
  g.records = trace.size();
  for (const auto& rec : trace) {
    fnv(g.digest, rec.sensor);
    fnv(g.digest, std::bit_cast<std::uint64_t>(rec.time));
    for (const double a : rec.attrs) fnv(g.digest, std::bit_cast<std::uint64_t>(a));
  }

  bench::ScenarioConfig sc;
  sc.duration_days = kDays;
  sc.num_sensors = kSensors;
  sc.seed = seed;
  reg.config = bench::make_pipeline_config(env, sc);
  return g;
}

/// Every region's input, generated on the shared pool one region per task,
/// then one fleet built from it.
Inputs make_inputs(const Args& args) {
  std::vector<std::future<Generated>> jobs;
  for (std::size_t r = 0; r < kRegions; ++r) {
    jobs.push_back(util::ThreadPool::shared().submit([&args, r] { return generate_region(args, r); }));
  }
  Inputs in;
  // Every task refers to `args`; none may outlive a failed one.
  for (auto& job : jobs) job.wait();
  for (auto& job : jobs) {
    Generated g = job.get();
    in.records += g.records;
    fnv(in.digest, g.digest);
    in.regions.push_back(std::move(g.region));
  }
  core::FleetConfig fc;
  fc.threads = kFleetThreads;
  core::FleetMonitor fleet(fc);
  for (const auto& reg : in.regions) fleet.add_region(reg.name, reg.config);
  return in;
}

/// One CSV files -> FleetReport pass (see RunPass).
void run_pass(const Inputs& in, std::size_t threads, bool traced, std::vector<double>* ack_us,
              Result& res, Pass& p) {
  core::FleetConfig fc;
  fc.threads = threads;
  core::FleetMonitor fleet(fc);
  for (const auto& reg : in.regions) fleet.add_region(reg.name, reg.config);

  std::vector<SensorRecord> batch;
  const auto t0 = now_ns();
  std::vector<std::unique_ptr<CsvTraceReader>> readers;
  for (const auto& reg : in.regions) readers.push_back(std::make_unique<CsvTraceReader>(reg.path));
  const std::uint64_t allocs0 = alloc_count();
  std::size_t open = readers.size();
  std::vector<bool> done(readers.size(), false);
  while (open > 0) {
    for (std::size_t r = 0; r < readers.size(); ++r) {
      if (done[r]) continue;
      std::size_t n = 0;
      {
        Span s(traced ? &p.decode_ns : nullptr);
        n = readers[r]->read_batch(batch, kBatch);
      }
      if (n == 0) {
        done[r] = true;
        --open;
        continue;
      }
      const auto a0 = now_ns();
      fleet.add_records(in.regions[r].name, batch);
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

  for (std::size_t r = 0; r < readers.size(); ++r) {
    const auto& name = in.regions[r].name;
    const auto& st = fleet.region_health(name);
    p.backpressure_waits += st.backpressure_waits;
    p.backpressure_block_ns += st.backpressure_block_ns;
    const auto c = fleet.region(name).counters();
    p.hmm_updates += c.hmm_updates;
    p.windows += c.windows_processed;
    res.op(readers[r]->status().is_ok() && readers[r]->malformed_lines() == 0 &&
               st.health == core::RegionHealth::kHealthy && st.status.is_ok() &&
               st.records_ingested > 0,
           name + ": ingest at threads " + std::to_string(threads) + " not clean: " +
               st.status.message());
  }
  p.render = core::to_string(p.report);
}

/// The state store's only view: one explicit checkpoint_now() of a
/// threads-4 fleet that has ingested every region, outside every timed pass.
void checkpoint_metrics(const Args& args, const Inputs& in, LayerMetrics& m, Result& res) {
  const std::string dir = args.data_dir + "/fleet-csv-ckpt";
  {
    core::FleetConfig fc;
    fc.threads = kFleetThreads;
    fc.checkpoint_dir = dir;
    fc.checkpoint_every_records = 0;  // commit only on checkpoint_now()
    core::FleetMonitor fleet(fc);
    for (const auto& reg : in.regions) {
      fleet.add_region(reg.name, reg.config);
      fleet.ingest_file(reg.name, reg.path);
    }
    fleet.finish();
    const std::uint64_t bytes0 = registry_counter("fleet.checkpoint_bytes");
    const auto t0 = now_ns();
    fleet.checkpoint_now();
    m.checkpoint_now_ms = static_cast<double>(now_ns() - t0) / 1e6;
    m.checkpoint_bytes = static_cast<double>(registry_counter("fleet.checkpoint_bytes") - bytes0);
  }
  res.check(m.checkpoint_bytes > 0, "fleet-csv: checkpoint_now committed nothing");
  std::filesystem::remove_all(dir);
}

/// Replay every region serially through the layers the fleet composes --
/// CsvTraceReader::read_batch -> Windower::add_batch ->
/// DetectionPipeline::process_window -> diagnose() -- timing each call, and
/// check the replayed diagnoses render exactly like the fleet's.
void replay(const Inputs& in, const core::FleetReport& ref, LayerMetrics& m, Result& res) {
  // batch_ns spans Windower::add_batch, including the process_window calls
  // it triggers (batched_pw_ns); the flushed final window is processed
  // outside it.
  std::uint64_t batch_ns = 0, pw_ns = 0, batched_pw_ns = 0, records = 0;
  std::vector<double> pw_us;
  bool identical = true;
  const StageSums stages0 = stage_sums();
  std::vector<SensorRecord> batch;
  for (const auto& reg : in.regions) {
    core::PipelineConfig cfg = reg.config;
    cfg.stage_timers = true;
    core::DetectionPipeline pipeline(cfg);
    Windower windower(WindowerConfig{cfg.window_seconds, cfg.keep_raw});
    const auto process = [&](const ObservationSet& w) {
      const auto t0 = now_ns();
      pipeline.process_window(w);
      const auto dt = now_ns() - t0;
      pw_ns += dt;
      pw_us.push_back(static_cast<double>(dt) / 1e3);
    };
    CsvTraceReader reader(reg.path);
    while (reader.read_batch(batch, kBatch) > 0) {
      records += batch.size();
      const std::uint64_t pw0 = pw_ns;
      {
        Span s(&batch_ns);
        windower.add_batch(std::span<const SensorRecord>(batch),
                           [&](ObservationSet&& w) { process(w); });
      }
      batched_pw_ns += pw_ns - pw0;
    }
    if (auto last = windower.flush()) process(*last);
    const auto it = ref.regions.find(reg.name);
    identical = identical && it != ref.regions.end() &&
                core::to_string(pipeline.diagnose()) == core::to_string(it->second);
  }
  res.check(identical, "fleet-csv replay: replayed DiagnosisReports differ from the fleet's");
  if (!identical) return;  // the split is only meaningful for the same work
  m.window_ns_per_record =
      static_cast<double>(batch_ns - batched_pw_ns) / static_cast<double>(records);
  m.process_window_us_p50 = quantile(pw_us, 0.50);
  m.process_window_us_p99 = quantile(pw_us, 0.99);
  fill_stage_shares(m, stages0, static_cast<double>(pw_ns));
}

}  // namespace

Result run_fleet_csv(const Args& args) {
  Result res;
  std::vector<double> setup_s;
  const Inputs in = set_up(args, [&] { return make_inputs(args); }, setup_s, res);
  std::fprintf(stderr, "fleet-csv: %zu regions, %zu records, setup %.3f s\n",
               in.regions.size(), in.records, median(setup_s));
  const RunPass run = [&](std::size_t threads, bool traced, std::vector<double>* ack_us,
                          Pass& p) { run_pass(in, threads, traced, ack_us, res, p); };

  // Reference pass (threads 1, untimed): the report every later pass must
  // reproduce byte for byte, and the one scored against the injected truth.
  Pass ref;
  run(1, false, nullptr, ref);
  const double records = static_cast<double>(in.records);
  if (!args.trace) {
    measure_passes(args, run, ref, records, res);
    std::size_t exact = 0;
    for (const auto& reg : in.regions) {
      const auto it = ref.report.regions.find(reg.name);
      if (it != ref.report.regions.end() && bench::score_report(it->second, reg.kind).exact) {
        ++exact;
      }
    }
    res.add("verdict_exact_frac", static_cast<double>(exact) / in.regions.size(), "frac");
    res.add("setup_s", median(setup_s), "s");
    return res;
  }

  LayerMetrics m;
  trace_passes(args, run, ref, records, m, res);
  std::fprintf(stderr,
               "fleet-csv traced: uncovered remainder is the benchmark's pump loop "
               "(round-robin turn, batch reuse, reader open)\n");
  checkpoint_metrics(args, in, m, res);
  replay(in, ref.report, m, res);
  m.emit(res);
  return res;
}

}  // namespace perfbench
