// Helpers declared in harness.h, and the pass loops of the two batch
// workloads.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "harness.h"
#include "util/metrics.h"

namespace perfbench {

std::vector<sentinel::SensorRecord> injected_trace(const sentinel::sim::GdiEnvironment& env,
                                                   sentinel::bench::InjectionKind kind,
                                                   std::uint64_t seed, std::size_t sensors,
                                                   double days) {
  using namespace sentinel;
  sim::GdiDeploymentConfig dc;
  dc.num_sensors = sensors;
  dc.seed = seed;
  sim::Simulator simulator = sim::make_gdi_deployment(env, dc);
  auto plan = std::make_shared<faults::InjectionPlan>();
  if (const auto inject = bench::make_injection(kind, seed)) inject(*plan, env);
  simulator.set_transform(faults::make_transform(plan));
  return simulator.run(days * kSecondsPerDay).trace;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = k == 0 ? 0 : std::min(k - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

namespace {

/// A "VmRSS:" / "VmHWM:" field of /proc/self/status, in MiB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(field.size())) / 1024.0;  // kB
  }
  throw std::runtime_error("/proc/self/status has no " + field);
}

}  // namespace

double peak_rss_mb(const std::function<void()>& work) {
  std::vector<double> growth;
  for (int i = 0; i < 3; ++i) {
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";  // VmHWM := VmRSS
    const double rss = status_mb("VmRSS:");
    if (status_mb("VmHWM:") > rss + 1.0) {
      throw std::runtime_error("cannot reset the RSS high-water mark (/proc/self/clear_refs)");
    }
    work();
    growth.push_back(status_mb("VmHWM:") - rss);
  }
  return *std::min_element(growth.begin(), growth.end());
}

double steal_ns() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  std::istringstream fields(line);
  std::string cpu;
  unsigned long long v[8] = {};  // user nice system idle iowait irq softirq steal
  fields >> cpu;
  for (auto& x : v) fields >> x;
  if (cpu != "cpu" || !fields) return 0.0;
  return static_cast<double>(v[7]) * 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double steal_share(double steal0, double wall_ns) {
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  return wall_ns > 0 ? (steal_ns() - steal0) / (wall_ns * cpus) : 0.0;
}

std::vector<std::size_t> calm_passes(const std::vector<double>& steal_shares, double q,
                                     double ceiling, const std::string& what, Result& res) {
  const double cut = std::min(quantile(steal_shares, q), ceiling);
  std::vector<std::size_t> keep;
  std::size_t under_ceiling = 0;
  for (std::size_t i = 0; i < steal_shares.size(); ++i) {
    if (steal_shares[i] <= cut) keep.push_back(i);
    if (steal_shares[i] <= ceiling) ++under_ceiling;
  }
  char why[160];
  std::snprintf(why, sizeof why,
                ": host too busy: %zu of %zu passes had a steal share of at most %.1f%%, "
                "fewer than %zu",
                under_ceiling, steal_shares.size(), 100.0 * ceiling, kMinCalm);
  res.check(under_ceiling >= kMinCalm, what + why);
  return keep;
}

std::uint64_t registry_counter(const std::string& name) {
  const auto snap = sentinel::util::metrics().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

StageSums stage_sums() {
  static const char* const kNames[] = {
      "pipeline.stage.screen_ns",   "pipeline.stage.centroid_ns", "pipeline.stage.identify_ns",
      "pipeline.stage.spawn_ns",    "pipeline.stage.alarms_ns",   "pipeline.stage.hmm_ns"};
  const auto snap = sentinel::util::metrics().snapshot();
  StageSums out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto it = snap.histograms.find(kNames[i]);
    if (it != snap.histograms.end()) out[i] = it->second.sum;
  }
  return out;
}

void fill_stage_shares(LayerMetrics& m, const StageSums& before, double process_window_ns) {
  const StageSums after = stage_sums();
  const auto share = [&](std::size_t i) {
    return process_window_ns > 0 ? static_cast<double>(after[i] - before[i]) / process_window_ns
                                 : 0.0;
  };
  m.stage_screen = share(0);
  m.stage_centroid = share(1);
  m.stage_identify = share(2);
  m.stage_spawn = share(3);
  m.stage_alarms = share(4);
  m.stage_hmm = share(5);
}

bool keep_measuring(const Args& args, Clock::time_point start, std::size_t calm4,
                    std::size_t calm1) {
  const double elapsed = seconds_between(start, Clock::now());
  return elapsed < args.seconds ||
         (elapsed < 3.0 * args.seconds && std::min(calm4, calm1) < kMinCalm);
}

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void LayerMetrics::emit(Result& r) const {
  r.add("trace.decode_ns_per_record", decode_ns_per_record, "ns");
  r.add("trace.decode_share", decode_share, "frac");
  r.add("trace.window_ns_per_record", window_ns_per_record, "ns");
  r.add("core.fleet.add_records_ns_per_record", add_records_ns_per_record, "ns");
  r.add("core.fleet.backpressure_waits", backpressure_waits, "count");
  r.add("core.fleet.backpressure_block_share", backpressure_block_share, "frac");
  r.add("core.fleet.records_per_handoff", records_per_handoff, "count");
  r.add("core.allocs_per_record", allocs_per_record, "count");
  r.add("core.fleet.finish_ms", finish_ms, "ms");
  r.add("core.fleet.diagnose_ms", diagnose_ms, "ms");
  r.add("core.checkpoint_now_ms", checkpoint_now_ms, "ms");
  r.add("core.checkpoint_bytes", checkpoint_bytes, "bytes");
  r.add("core.pipeline.process_window_us_p50", process_window_us_p50, "us");
  r.add("core.pipeline.process_window_us_p99", process_window_us_p99, "us");
  r.add("core.pipeline.stage_share.screen", stage_screen, "frac");
  r.add("core.pipeline.stage_share.centroid", stage_centroid, "frac");
  r.add("core.pipeline.stage_share.identify", stage_identify, "frac");
  r.add("core.pipeline.stage_share.spawn", stage_spawn, "frac");
  r.add("core.pipeline.stage_share.alarms", stage_alarms, "frac");
  r.add("core.pipeline.stage_share.hmm", stage_hmm, "frac");
  r.add("screen.escalated_window_frac", escalated_window_frac, "frac");
  r.add("screen.trips_per_1k_sensor_windows", trips_per_1k_sensor_windows, "count");
  r.add("screen.escalations", escalations, "count");
  r.add("hmm.updates_per_window", hmm_updates_per_window, "count");
  r.add("hmm.slab.repacks", hmm_slab_repacks, "count");
  r.add("service.send_us_p50", send_us_p50, "us");
  r.add("service.flush_us_p50", flush_us_p50, "us");
  r.add("service.flush_us_p99", flush_us_p99, "us");
  r.add("service.rejected_frames", rejected_frames, "count");
  r.add("service.gen_late_ms_p99", gen_late_ms_p99, "ms");
  r.add("tracing.overhead_ms", overhead_ms, "ms");
  r.add("tracing.layer_sum_share", layer_sum_share, "frac");
  r.add("host.steal_share", steal_share, "frac");
}

namespace {

/// Steal ceiling of a calm batch pass: on a quiet host most passes see no
/// steal at all.
constexpr double kStealCeiling = 0.02;

}  // namespace

void measure_passes(const Args& args, const RunPass& run, const Pass& ref, double records,
                    Result& res) {
  Pass warm;
  run(kFleetThreads, false, nullptr, warm);
  res.op(warm.render == ref.render, args.workload + ": threads 4 report differs from threads 1");
  struct Timed {
    double wall_s = 0, steal = 0, diagnose_us = 0;
    std::vector<double> ack_us;
  };
  std::vector<Timed> t4, t1;
  std::size_t calm4 = 0, calm1 = 0;
  const auto start = Clock::now();
  while (t4.empty() || keep_measuring(args, start, calm4, calm1)) {
    for (const std::size_t threads : {kFleetThreads, std::size_t{1}}) {
      Timed t;
      Pass p;
      const double steal0 = steal_ns();
      run(threads, false, threads == kFleetThreads ? &t.ack_us : nullptr, p);
      res.op(p.render == ref.render,
             args.workload + ": threads " + std::to_string(threads) + " report differs");
      t.wall_s = p.wall_ns / 1e9;
      t.steal = steal_share(steal0, p.wall_ns);
      t.diagnose_us = static_cast<double>(p.diagnose_ns) / 1e3;
      if (t.steal <= kStealCeiling) ++(threads == kFleetThreads ? calm4 : calm1);
      (threads == kFleetThreads ? t4 : t1).push_back(std::move(t));
    }
  }
  // Rates over the summed time of the calm passes, not a median of per-pass
  // rates: the host's speed also drifts over seconds, and the sum weighs
  // every kept pass alike. Calm is the calmest quarter under the ceiling.
  const auto rate = [&](const std::vector<Timed>& passes, const char* label,
                        std::vector<std::size_t>& kept) {
    std::vector<double> steal;
    for (const auto& t : passes) steal.push_back(t.steal);
    kept = calm_passes(steal, 0.25, kStealCeiling, args.workload + label, res);
    double wall = 0;
    for (const std::size_t i : kept) wall += passes[i].wall_s;
    return records * static_cast<double>(kept.size()) / wall;
  };
  std::vector<std::size_t> kept4, kept1;
  res.add("records_per_s", rate(t4, " threads 4", kept4), "1/s");
  res.add("records_per_s_t1", rate(t1, " threads 1", kept1), "1/s");
  // The p99 is taken per pass (about 2400 calls in fleet-csv, 1280 in
  // windows-suspicious) and the median over the kept passes is reported: a
  // pass the host stalls for milliseconds would otherwise decide a pooled
  // p99 on its own.
  std::vector<double> ack_us, pass_p99_us, diagnose_us, steal;
  for (const std::size_t i : kept4) {
    ack_us.insert(ack_us.end(), t4[i].ack_us.begin(), t4[i].ack_us.end());
    pass_p99_us.push_back(quantile(t4[i].ack_us, 0.99));
    diagnose_us.push_back(t4[i].diagnose_us);
  }
  for (const auto& t : t4) steal.push_back(t.steal);
  for (const auto& t : t1) steal.push_back(t.steal);
  res.add("ack_p50_us", quantile(ack_us, 0.50), "us");
  res.add("ack_p99_us", median(pass_p99_us), "us");
  res.add("snapshot_p50_us", median(diagnose_us), "us");
  std::fprintf(stderr,
               "%s: %zu passes per thread count, kept %zu + %zu (calm); %zu ack samples; "
               "steal share median %.1f%%, max %.1f%%\n",
               args.workload.c_str(), t4.size(), kept4.size(), kept1.size(), ack_us.size(),
               100.0 * median(steal), 100.0 * quantile(steal, 1.0));

  res.add("peak_rss_mb", peak_rss_mb([&] {
            Pass p;
            run(kFleetThreads, false, nullptr, p);
            res.op(p.render == ref.render, args.workload + ": threads 4 report differs");
          }),
          "MiB");
}

void trace_passes(const Args& args, const RunPass& run, const Pass& ref, double records,
                  LayerMetrics& m, Result& res) {
  std::vector<double> plain_ms, traced_ms, cover;
  Pass sum_p;  // traced spans and counts, summed over the traced passes
  std::uint64_t enqueued = 0, handoffs = 0, repacks = 0;
  const double steal0 = steal_ns();
  const auto start = now_ns();
  const auto end = Clock::now() + std::chrono::duration<double>(args.seconds);
  while (traced_ms.size() < 2 || Clock::now() < end) {
    Pass u;
    run(kFleetThreads, false, nullptr, u);
    res.op(u.render == ref.render, args.workload + ": threads 4 report differs");
    plain_ms.push_back(u.wall_ns / 1e6);

    const std::uint64_t e0 = registry_counter("fleet.records_enqueued");
    const std::uint64_t h0 = registry_counter("fleet.handoff_batches");
    const std::uint64_t r0 = registry_counter("hmm.slab.repacks");
    Pass t;
    run(kFleetThreads, true, nullptr, t);
    res.op(t.render == ref.render, args.workload + ": traced threads 4 report differs");
    enqueued += registry_counter("fleet.records_enqueued") - e0;
    handoffs += registry_counter("fleet.handoff_batches") - h0;
    repacks += registry_counter("hmm.slab.repacks") - r0;
    traced_ms.push_back(t.wall_ns / 1e6);
    cover.push_back(static_cast<double>(t.decode_ns + t.add_ns + t.finish_ns + t.diagnose_ns) /
                    t.wall_ns);
    sum_p.wall_ns += t.wall_ns;
    sum_p.decode_ns += t.decode_ns;
    sum_p.add_ns += t.add_ns;
    sum_p.finish_ns += t.finish_ns;
    sum_p.diagnose_ns += t.diagnose_ns;
    sum_p.ingest_allocs += t.ingest_allocs;
    sum_p.backpressure_waits += t.backpressure_waits;
    sum_p.backpressure_block_ns += t.backpressure_block_ns;
    sum_p.hmm_updates += t.hmm_updates;
    sum_p.windows += t.windows;
  }
  m.steal_share = steal_share(steal0, static_cast<double>(now_ns() - start));
  const double passes = static_cast<double>(traced_ms.size());
  const double recs = records * passes;
  m.decode_ns_per_record = static_cast<double>(sum_p.decode_ns) / recs;
  m.decode_share = static_cast<double>(sum_p.decode_ns) / sum_p.wall_ns;
  m.add_records_ns_per_record = static_cast<double>(sum_p.add_ns) / recs;
  m.backpressure_waits = static_cast<double>(sum_p.backpressure_waits) / passes;
  m.backpressure_block_share = static_cast<double>(sum_p.backpressure_block_ns) / sum_p.wall_ns;
  m.records_per_handoff =
      handoffs ? static_cast<double>(enqueued) / static_cast<double>(handoffs) : 0.0;
  m.allocs_per_record = static_cast<double>(sum_p.ingest_allocs) / recs;
  m.finish_ms = static_cast<double>(sum_p.finish_ns) / passes / 1e6;
  m.diagnose_ms = static_cast<double>(sum_p.diagnose_ns) / passes / 1e6;
  m.hmm_updates_per_window =
      sum_p.windows ? static_cast<double>(sum_p.hmm_updates) / sum_p.windows : 0.0;
  m.hmm_slab_repacks = static_cast<double>(repacks) / passes;
  m.overhead_ms = median(traced_ms) - median(plain_ms);
  m.layer_sum_share = median(cover);
  std::fprintf(stderr, "%s traced: %zu pass pairs; layers cover %.1f%% of the traced wall\n",
               args.workload.c_str(), traced_ms.size(), 100.0 * m.layer_sum_share);
}

}  // namespace perfbench
