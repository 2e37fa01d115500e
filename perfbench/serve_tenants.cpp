// serve-tenants: 4 tenant connections, one generator thread each, stream
// SNTRB1 records of injected 10-sensor month traces over SNTRS1 loopback
// into an in-process service::Server. Open loop: each tenant sends one
// kFrameRecords frame (send + flush barrier) every period, at a fixed
// offered rate (kOfferedRate), and latency is timed from when a frame was
// due. Tenant 0 also issues a non-final REPORT every kSnapshotPeriod while
// it streams, so reads run beside writes.
//
// A round starts a fresh server configured for one group (an environment
// and four traces). Every tenant connects and binds its region before the
// first frame is due, streams one trace read frame by frame from its SNTRB1
// file, and ends with a final REPORT, which must equal a batch
// FleetMonitor::ingest of the same file. Rounds cycle through the 10 groups
// (40 traces, four per section 3.3 kind) and alternate the server fleet
// between threads 4 and 1.

#include <sys/prctl.h>

#include <cstdio>
#include <future>
#include <latch>
#include <thread>

#include "common/scenario.h"
#include "core/fleet.h"
#include "harness.h"
#include "service/client.h"
#include "service/server.h"
#include "trace/binary_trace.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace sentinel;

constexpr std::size_t kTenants = 4;
constexpr std::size_t kGroups = 10;  // environments; one per round, rotating
constexpr std::size_t kTraces = kGroups * kTenants;
constexpr std::size_t kSensors = 10;
constexpr double kDays = 31.0;
constexpr std::size_t kFrameRecords = 512;
/// Offered load, records/s over all tenants, frozen. The closed-loop
/// capacity with these frames (tenants sending back to back) measured
/// 4.6-4.9M rec/s on the 4-core reference machine. At about half of it the
/// threads-4 server's ack p99 swung by 10x from run to run, because host
/// slowdowns left it with backlogs; at about a quarter it held steady.
constexpr double kOfferedRate = 1.25e6;
constexpr double kSnapshotPeriod = 0.020;  // seconds between tenant 0's REPORTs

struct Trace {
  std::string path;  // SNTRB1 file
  bench::InjectionKind kind = bench::InjectionKind::kClean;
  std::size_t records = 0;
  std::string expected;  // batch FleetMonitor::ingest report of the file
  bool exact = false;    // expected report scores exact against the truth
};

/// One round's input: a GDI environment (the server's region configuration
/// comes from it, as the service requires one configuration for all
/// tenants) and one injected trace per tenant.
struct Group {
  core::PipelineConfig config;
  std::vector<Trace> traces;
};

struct Inputs {
  std::vector<Group> groups;
  std::uint64_t digest = kFnvBasis;  // over the expected reports and trace sizes
};

Trace make_trace(const Args& args, const sim::GdiEnvironment& env,
                 const core::PipelineConfig& cfg, std::size_t i) {
  Trace t;
  const auto kinds = bench::all_injection_kinds();
  t.kind = kinds[i % kinds.size()];
  t.path = args.data_dir + "/tenant-trace-" + std::to_string(i) + ".sntrb";
  const std::uint64_t seed = seed_mix(args.seed * kTraces + i) % 1000000007ULL;
  const auto trace = injected_trace(env, t.kind, seed, kSensors, kDays);
  write_trace_binary_file(t.path, trace);
  t.records = trace.size();

  core::FleetMonitor batch(core::FleetConfig{});
  batch.add_region("tenant", cfg);
  batch.ingest_file("tenant", t.path);
  batch.finish();
  const auto report = batch.diagnose();
  const auto& d = report.regions.at("tenant");
  t.expected = core::to_string(d);
  t.exact = bench::score_report(d, t.kind).exact;
  return t;
}

/// Group g: its own environment and traces g * kTenants ... + kTenants - 1,
/// so the kinds rotate through every tenant slot across groups.
Group make_group(const Args& args, std::size_t g) {
  Group out;
  const std::uint64_t seed = seed_mix(args.seed * kGroups + g) % 1000000007ULL;
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = kDays * kSecondsPerDay;
  ec.seed = seed;
  const sim::GdiEnvironment env(ec);
  bench::ScenarioConfig sc;
  sc.duration_days = kDays;
  sc.num_sensors = kSensors;
  sc.seed = seed;
  out.config = bench::make_pipeline_config(env, sc);
  for (std::size_t t = 0; t < kTenants; ++t) {
    out.traces.push_back(make_trace(args, env, out.config, g * kTenants + t));
  }
  return out;
}

service::ServerConfig server_config(const Group& group, std::size_t threads) {
  service::ServerConfig sc;
  sc.region = group.config;
  sc.fleet.threads = threads;
  return sc;
}

Inputs make_inputs(const Args& args) {
  std::vector<std::future<Group>> jobs;
  for (std::size_t g = 0; g < kGroups; ++g) {
    jobs.push_back(util::ThreadPool::shared().submit([&args, g] { return make_group(args, g); }));
  }
  Inputs in;
  // Every task refers to `args`; none may outlive a failed one.
  for (auto& job : jobs) job.wait();
  for (auto& job : jobs) {
    in.groups.push_back(job.get());
    for (const auto& t : in.groups.back().traces) {
      for (const char c : t.expected) fnv(in.digest, static_cast<unsigned char>(c));
      fnv(in.digest, t.records);
    }
  }
  service::Server server(server_config(in.groups.front(), kFleetThreads));
  server.start();
  server.stop();
  return in;
}

/// What one tenant saw in one round.
struct TenantLog {
  std::vector<double> ack_us, late_us, send_us, flush_us, snapshot_us;
  double busy_ns = 0, idle_ns = 0, wall_ns = 0;
  std::uint64_t frames = 0, frames_failed = 0, rejected = 0;
  std::uint64_t snapshots = 0, snapshots_failed = 0;
  bool final_ok = false;
  std::string error;
};

/// A round's two barriers. Tenants connect and bind first, then the main
/// thread fixes the time the first frame is due. Final REPORTs wait until
/// every tenant has streamed, so finishing one region never stalls the
/// frames of another.
struct RoundGate {
  std::latch ready{static_cast<std::ptrdiff_t>(kTenants)};
  std::promise<Clock::time_point> start;
  std::shared_future<Clock::time_point> start_at = start.get_future().share();
  std::latch streamed{static_cast<std::ptrdiff_t>(kTenants)};
};

/// Stream `trace` as tenant `tenant`, one frame per period.
void stream(service::Client& client, BinaryTraceReader& reader, std::size_t tenant,
            Clock::time_point start, TenantLog& log) {
  const auto t0 = Clock::now();
  const auto period = std::chrono::duration<double>(
      static_cast<double>(kFrameRecords) / (kOfferedRate / static_cast<double>(kTenants)));
  // Stagger the tenants across one period so frames do not arrive in lockstep.
  auto due = start + std::chrono::duration_cast<Clock::duration>(
                         period * (static_cast<double>(tenant) / kTenants));
  auto next_snapshot = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(kSnapshotPeriod));
  std::vector<SensorRecord> frame;
  while (reader.read_batch(frame, kFrameRecords) > 0) {
    const auto w0 = Clock::now();
    std::this_thread::sleep_until(due);
    log.idle_ns += std::chrono::duration<double, std::nano>(Clock::now() - w0).count();
    const auto s0 = Clock::now();
    const bool sent = client.send(frame).is_ok();
    const auto s1 = Clock::now();
    const bool flushed = sent && client.flush().is_ok();
    const auto s2 = Clock::now();
    ++log.frames;
    if (!flushed) ++log.frames_failed;
    log.late_us.push_back(std::chrono::duration<double, std::micro>(s0 - due).count());
    log.send_us.push_back(std::chrono::duration<double, std::micro>(s1 - s0).count());
    log.flush_us.push_back(std::chrono::duration<double, std::micro>(s2 - s1).count());
    log.ack_us.push_back(std::chrono::duration<double, std::micro>(s2 - due).count());
    log.busy_ns += std::chrono::duration<double, std::nano>(s2 - s0).count();
    due += std::chrono::duration_cast<Clock::duration>(period);
    if (tenant == 0 && s2 >= next_snapshot) {
      const auto r0 = Clock::now();
      const bool ok = client.report(false, false).is_ok();
      const auto r1 = Clock::now();
      ++log.snapshots;
      if (!ok) ++log.snapshots_failed;
      log.snapshot_us.push_back(std::chrono::duration<double, std::micro>(r1 - r0).count());
      log.busy_ns += std::chrono::duration<double, std::nano>(r1 - r0).count();
      next_snapshot += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kSnapshotPeriod));
    }
  }
  log.wall_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

void run_tenant(std::uint16_t port, std::size_t tenant, const Trace& trace, RoundGate& gate,
                TenantLog& log) {
  prctl(PR_SET_TIMERSLACK, 1UL);  // wake on the due time, not up to 50 us late
  bool arrived = false, streamed = false;
  try {
    service::ClientConfig cc;
    cc.port = port;
    cc.frame_records = kFrameRecords;
    service::Client client(cc);
    BinaryTraceReader reader(trace.path);
    const auto hello = client.hello("tenant-" + std::to_string(tenant), reader.dims());
    const bool bound = hello.is_ok() && hello.value() == 0;
    if (!bound) log.error = "hello failed";
    gate.ready.count_down();
    arrived = true;
    const Clock::time_point start = gate.start_at.get();
    if (bound) stream(client, reader, tenant, start, log);
    gate.streamed.arrive_and_wait();
    streamed = true;
    if (!bound) return;
    const auto final_report = client.report(true, false);
    log.final_ok = reader.status().is_ok() && final_report.is_ok() &&
                   final_report.value() == trace.expected;
    log.rejected = client.rejected_frames();
  } catch (const std::exception& e) {
    log.error = e.what();
    if (!arrived) gate.ready.count_down();
    if (!streamed) gate.streamed.count_down();
  }
}

struct Round {
  double records_per_s = 0;
  double steal = 0;  // share of the machine's CPU time the host took
  double wall_ns = 0;
  std::vector<TenantLog> tenants;
  std::uint64_t backpressure_waits = 0, hmm_updates = 0, windows = 0;
  std::uint64_t allocs = 0, records = 0, enqueued = 0, handoffs = 0, repacks = 0;
};

/// One round: a fresh server for group `g`, each tenant streaming one of its
/// traces on its own thread.
Round run_round(const Inputs& in, std::size_t g, std::size_t threads, Result& res,
                std::vector<bool>& trace_ok) {
  Round out;
  const Group& group = in.groups[g];
  service::Server server(server_config(group, threads));
  server.start();
  out.tenants.resize(kTenants);
  for (const auto& t : group.traces) out.records += t.records;
  const std::uint64_t allocs0 = alloc_count();
  const std::uint64_t e0 = registry_counter("fleet.records_enqueued");
  const std::uint64_t h0 = registry_counter("fleet.handoff_batches");
  const std::uint64_t r0 = registry_counter("hmm.slab.repacks");
  RoundGate gate;
  const double steal0 = steal_ns();
  Clock::time_point start;
  {
    std::vector<std::jthread> gens;
    for (std::size_t t = 0; t < kTenants; ++t) {
      gens.emplace_back([&, t] {
        run_tenant(server.port(), t, group.traces[t], gate, out.tenants[t]);
      });
    }
    gate.ready.wait();
    start = Clock::now() + std::chrono::microseconds(500);
    gate.start.set_value(start);
  }
  const auto end = Clock::now();
  out.allocs = alloc_count() - allocs0;
  out.enqueued = registry_counter("fleet.records_enqueued") - e0;
  out.handoffs = registry_counter("fleet.handoff_batches") - h0;
  out.repacks = registry_counter("hmm.slab.repacks") - r0;
  out.wall_ns = std::chrono::duration<double, std::nano>(end - start).count();
  out.records_per_s = static_cast<double>(out.records) / (out.wall_ns / 1e9);
  out.steal = steal_share(steal0, out.wall_ns);
  server.stop();

  for (std::size_t t = 0; t < kTenants; ++t) {
    const TenantLog& log = out.tenants[t];
    const std::string who = "serve-tenants: group " + std::to_string(g) + " tenant " +
                            std::to_string(t) + " at threads " + std::to_string(threads);
    res.check(log.error.empty(), who + ": " + log.error);
    res.attempted += log.frames + log.snapshots;
    res.failed += log.frames_failed + log.snapshots_failed;
    if (log.frames_failed + log.snapshots_failed > 0) {
      res.check(false, who + ": frames or snapshots not accepted");
    }
    res.op(log.final_ok, who + ": final report differs from batch ingest of trace " +
                             std::to_string(g * kTenants + t));
    if (!log.final_ok) trace_ok[g * kTenants + t] = false;
    if (!log.error.empty()) continue;  // the region may never have been bound
    const std::string region = "tenant-" + std::to_string(t);
    const auto& st = server.fleet().region_health(region);
    out.backpressure_waits += st.backpressure_waits;
    const auto c = server.fleet().region(region).counters();
    out.hmm_updates += c.hmm_updates;
    out.windows += c.windows_processed;
  }
  return out;
}

/// Steal ceiling of a calm round. Stricter than the batch workloads': frame
/// latency hangs on thread wake-ups, and any steal during a round moves its
/// tail.
constexpr double kStealCeiling = 0.005;

/// The calmest tenth of `rounds` under the ceiling (see calm_passes).
std::vector<Round> calm(std::vector<Round> rounds, const std::string& what, Result& res) {
  std::vector<double> steal;
  for (const auto& r : rounds) steal.push_back(r.steal);
  std::vector<Round> out;
  for (const std::size_t i : calm_passes(steal, 0.1, kStealCeiling, what, res)) {
    out.push_back(std::move(rounds[i]));
  }
  return out;
}

template <typename F>
std::vector<double> gather(const std::vector<Round>& rounds, F field) {
  std::vector<double> out;
  for (const auto& r : rounds) {
    for (const auto& t : r.tenants) {
      const std::vector<double>& v = t.*field;
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  return out;
}

}  // namespace

Result run_serve_tenants(const Args& args) {
  Result res;
  std::vector<double> setup_s;
  const Inputs in = set_up(args, [&] { return make_inputs(args); }, setup_s, res);
  std::fprintf(stderr, "serve-tenants: %zu traces, offered %.0f rec/s, setup %.3f s\n",
               kTraces, kOfferedRate, median(setup_s));

  std::vector<bool> trace_ok(kTraces, true);
  std::vector<Round> t4, t1;
  const double steal0 = steal_ns();
  // The traced run keeps every round, so it needs no calm ones.
  std::size_t calm4 = args.trace ? kMinCalm : 0, calm1 = calm4;
  const auto began = Clock::now();
  for (std::size_t k = 0; k < kGroups || keep_measuring(args, began, calm4, calm1); ++k) {
    const std::size_t g = k % kGroups;
    t4.push_back(run_round(in, g, kFleetThreads, res, trace_ok));
    if (t4.back().steal <= kStealCeiling) ++calm4;
    // The untraced run follows each threads-4 round with a threads-1 round
    // on the same group.
    if (args.trace) continue;
    t1.push_back(run_round(in, g, 1, res, trace_ok));
    if (t1.back().steal <= kStealCeiling) ++calm1;
  }
  const double steal = steal_share(steal0, 1e9 * seconds_between(began, Clock::now()));
  const auto rates = [](const std::vector<Round>& rounds) {
    std::vector<double> out;
    for (const auto& r : rounds) out.push_back(r.records_per_s);
    return out;
  };

  if (!args.trace) {
    std::size_t exact = 0;
    for (std::size_t i = 0; i < kTraces; ++i) {
      if (trace_ok[i] && in.groups[i / kTenants].traces[i % kTenants].exact) ++exact;
    }
    const std::size_t rounds = t4.size();
    t4 = calm(std::move(t4), "serve-tenants threads 4", res);
    t1 = calm(std::move(t1), "serve-tenants threads 1", res);
    const auto ack_us = gather(t4, &TenantLog::ack_us);
    std::fprintf(stderr,
                 "serve-tenants: %zu rounds per thread count, kept %zu + %zu (calm); "
                 "%zu ack samples; steal share %.1f%%\n",
                 rounds, t4.size(), t1.size(), ack_us.size(), 100.0 * steal);
    res.add("records_per_s", median(rates(t4)), "1/s");
    res.add("records_per_s_t1", median(rates(t1)), "1/s");
    res.add("ack_p50_us", quantile(ack_us, 0.50), "us");
    // The p99 is taken per round (about 625 frames) and the median over the
    // kept rounds is reported: one round the host stalls for milliseconds
    // would otherwise decide a pooled p99 on its own.
    std::vector<double> round_p99_us;
    for (const auto& r : t4) {
      std::vector<double> v;
      for (const auto& t : r.tenants) v.insert(v.end(), t.ack_us.begin(), t.ack_us.end());
      round_p99_us.push_back(quantile(v, 0.99));
    }
    res.add("ack_p99_us", median(round_p99_us), "us");
    res.add("snapshot_p50_us", median(gather(t4, &TenantLog::snapshot_us)), "us");
    res.add("verdict_exact_frac", static_cast<double>(exact) / kTraces, "frac");
    res.add("setup_s", median(setup_s), "s");
    res.add("peak_rss_mb", peak_rss_mb([&, k = std::size_t{0}]() mutable {
              run_round(in, k++ % kGroups, kFleetThreads, res, trace_ok);
            }),
            "MiB");
    return res;
  }

  LayerMetrics m;
  m.steal_share = steal;
  std::vector<double> cover;
  double allocs = 0, records = 0, waits = 0, rejected = 0, enq = 0, hand = 0, repacks = 0;
  std::uint64_t hmm_updates = 0, windows = 0;
  for (const auto& r : t4) {
    allocs += static_cast<double>(r.allocs);
    records += static_cast<double>(r.records);
    waits += static_cast<double>(r.backpressure_waits);
    enq += static_cast<double>(r.enqueued);
    hand += static_cast<double>(r.handoffs);
    repacks += static_cast<double>(r.repacks);
    hmm_updates += r.hmm_updates;
    windows += r.windows;
    for (const auto& t : r.tenants) {
      rejected += static_cast<double>(t.rejected);
      cover.push_back(t.busy_ns / (t.wall_ns - t.idle_ns));
    }
  }
  const double rounds = static_cast<double>(t4.size());
  m.allocs_per_record = allocs / records;
  m.backpressure_waits = waits / rounds;
  m.records_per_handoff = hand > 0 ? enq / hand : 0.0;
  m.hmm_updates_per_window = windows ? static_cast<double>(hmm_updates) / windows : 0.0;
  m.hmm_slab_repacks = repacks / rounds;
  m.send_us_p50 = median(gather(t4, &TenantLog::send_us));
  const auto flush_us = gather(t4, &TenantLog::flush_us);
  m.flush_us_p50 = quantile(flush_us, 0.50);
  m.flush_us_p99 = quantile(flush_us, 0.99);
  m.rejected_frames = rejected / rounds;
  m.gen_late_ms_p99 = quantile(gather(t4, &TenantLog::late_us), 0.99) / 1e3;
  // The untraced rounds take the same per-frame clock reads (ack latency
  // needs them), so tracing adds nothing here: overhead_ms stays 0.
  m.layer_sum_share = median(cover);
  std::fprintf(stderr,
               "serve-tenants traced: send+flush+REPORT cover %.1f%% of each tenant's non-idle "
               "streaming wall; uncovered: the generator loop (frame decode, bookkeeping); "
               "pacing sleeps are idle by design and excluded\n",
               100.0 * m.layer_sum_share);
  m.emit(res);
  return res;
}

}  // namespace perfbench
