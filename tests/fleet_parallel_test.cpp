// Tests: the parallel fleet path. The headline guarantee is determinism --
// the same record stream through a threads=1 fleet and a threads=4 fleet
// must yield bit-identical FleetReports (per-region pipelines are
// single-writer, diagnosis reads quiescent state, results assemble in
// region-name order) -- plus worker-fault quarantine (a pipeline exception
// in a pool worker is parked in the shard and folded into the region's
// health record on the caller thread, never rethrown to the producer), and
// the parallel simulator's trace-identity guarantee.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "faults/attack_models.h"
#include "faults/fault_models.h"
#include "faults/injection_plan.h"
#include "screen/screen.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/vecn.h"

namespace sentinel::core {
namespace {

class CycleEnvironment final : public sim::Environment {
 public:
  std::size_t dims() const override { return 2; }
  AttrVec truth(double t) const override {
    const auto phase = static_cast<long>(t / (3.0 * kSecondsPerHour));
    return (phase % 2 == 0) ? AttrVec{10.0, 60.0} : AttrVec{30.0, 40.0};
  }
};

PipelineConfig region_config() {
  PipelineConfig cfg;
  cfg.window_seconds = kSecondsPerHour;
  cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
  return cfg;
}

std::vector<SensorRecord> simulate_region(const sim::Environment& env, double duration,
                                          std::uint64_t seed,
                                          std::shared_ptr<faults::InjectionPlan> plan = nullptr) {
  sim::Simulator s(env);
  for (std::size_t i = 0; i < 6; ++i) {
    sim::MoteConfig mc;
    mc.id = static_cast<SensorId>(i);
    mc.noise_sigma = 0.3;
    mc.seed = seed;
    s.add_mote(mc);
  }
  if (plan) s.set_transform(faults::make_transform(plan));
  return s.run(duration).trace;
}

/// A 4-region workload with enough variety to exercise every diagnosis
/// path: two clean regions, one with a stuck sensor, one whose majority is
/// compromised (structural outlier).
std::vector<std::vector<SensorRecord>> make_workload(const sim::Environment& env) {
  std::vector<std::vector<SensorRecord>> traces;
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 1));
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 2));

  auto stuck = std::make_shared<faults::InjectionPlan>();
  stuck->add(2, std::make_unique<faults::StuckAtFault>(AttrVec{20.0, 5.0}), 0.5 * kSecondsPerDay);
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 3, stuck));

  auto compromised = std::make_shared<faults::InjectionPlan>();
  for (SensorId s = 0; s < 5; ++s) {  // 5 of 6 sensors: internal majority defeated
    faults::ChangeAttackConfig ac;
    ac.victim = faults::StateRegion{{30.0, 40.0}, 8.0};
    ac.observed_as = {55.0, 20.0};
    ac.fraction = 5.0 / 6.0;
    compromised->add(s, std::make_unique<faults::DynamicChangeAttack>(ac), 0.0);
  }
  traces.push_back(simulate_region(env, 3.0 * kSecondsPerDay, 4, compromised));
  return traces;
}

FleetReport run_fleet(const std::vector<std::vector<SensorRecord>>& traces, std::size_t threads,
                      std::vector<std::size_t>* windows_out = nullptr) {
  FleetConfig fc;
  fc.threads = threads;
  FleetMonitor fleet(fc);
  const std::vector<std::string> names = {"east", "north", "south", "west"};
  for (const auto& name : names) fleet.add_region(name, region_config());

  // Interleave across regions so parallel shards genuinely overlap.
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t r = 0; r < traces.size(); ++r) {
      if (i < traces[r].size()) {
        fleet.add_record(names[r], traces[r][i]);
        any = true;
      }
    }
    if (!any) break;
  }
  fleet.finish();
  if (windows_out) {
    windows_out->clear();
    for (const auto& name : names) {
      windows_out->push_back(fleet.region(name).windows_processed());
    }
  }
  return fleet.diagnose();
}

TEST(FleetParallel, ReportIdenticalToSerial) {
  const CycleEnvironment env;
  const auto traces = make_workload(env);

  std::vector<std::size_t> windows_serial, windows_parallel;
  const FleetReport serial = run_fleet(traces, 1, &windows_serial);
  const FleetReport parallel = run_fleet(traces, 4, &windows_parallel);

  EXPECT_EQ(windows_parallel, windows_serial);
  EXPECT_EQ(parallel.overall, serial.overall);
  EXPECT_EQ(parallel.structural_outliers, serial.structural_outliers);
  ASSERT_EQ(parallel.regions.size(), serial.regions.size());
  EXPECT_EQ(to_string(parallel), to_string(serial));

  // The workload is rich enough that identity is meaningful: a fault, an
  // outlier, and clean regions all present.
  EXPECT_EQ(serial.overall, Verdict::kError);
  ASSERT_TRUE(serial.regions.at("south").sensors.count(2));
  EXPECT_EQ(serial.regions.at("south").sensors.at(2).kind, AnomalyKind::kStuckAt);
  EXPECT_EQ(serial.structural_outliers, std::vector<std::string>{"west"});
}

TEST(FleetParallel, HardwareThreadCountAlsoIdentical) {
  const CycleEnvironment env;
  // Smaller workload; the point is an arbitrary pool size, not diagnosis.
  std::vector<std::vector<SensorRecord>> traces;
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 7));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 8));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 9));
  traces.push_back(simulate_region(env, 1.0 * kSecondsPerDay, 10));

  const FleetReport serial = run_fleet(traces, 1);
  const FleetReport parallel = run_fleet(traces, 0);  // 0 = hardware concurrency
  EXPECT_EQ(to_string(parallel), to_string(serial));

  // threads = 0 resolves like the pool does: hardware threads capped by the
  // cgroup CPU quota.
  FleetConfig fc;
  fc.threads = 0;
  EXPECT_EQ(FleetMonitor(fc).config().threads, util::default_concurrency());
}

TEST(FleetParallel, WorkerExceptionQuarantinesRegionWithAttribution) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::Counter& drained = util::metrics().counter("fleet.records_drained");
    const std::uint64_t drained_before = drained.total();
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor fleet(fc);
    fleet.add_region("ok", region_config());
    fleet.add_region("bad", region_config());

    // Dimension-mismatched records make the pipeline throw (AttrVec
    // distance on a 2-dim model), inside a pool worker at threads > 1. That
    // must NOT resurface as an exception on the caller thread: the sick
    // region is quarantined with the error attributed to it, later records
    // for it are dropped and counted, and the healthy region completes
    // untouched.
    std::size_t offered = 0;
    for (int i = 0; i < 5000; ++i) {
      const double t = 60.0 * i;
      for (SensorId s = 0; s < 6; ++s) {
        fleet.add_record("bad", {s, t, {1.0, 2.0, 3.0}});  // 3 dims into a 2-dim region
        ++offered;
        fleet.add_record("ok", {s, t, {10.0, 60.0}});
      }
    }
    fleet.finish();

    const RegionState& bad = fleet.region_health("bad");
    EXPECT_EQ(bad.health, RegionHealth::kQuarantined);
    EXPECT_FALSE(bad.status.is_ok());
    // The status message carries the region name -- a fleet log line must
    // say *which* feed died, not just that one did.
    EXPECT_NE(bad.status.message().find("bad"), std::string::npos) << bad.status.to_string();
    EXPECT_GT(bad.records_dropped, 0u);
    // Every offered record is either ingested or dropped, never both.
    EXPECT_EQ(bad.records_ingested + bad.records_dropped, offered);
    // The original exception rides along for callers that want the real type.
    ASSERT_TRUE(bad.error);
    EXPECT_THROW(std::rethrow_exception(bad.error), std::invalid_argument);

    // drain() stays a quiescence point and never throws region poison.
    EXPECT_NO_THROW(fleet.drain());
    EXPECT_EQ(fleet.region_health("ok").health, RegionHealth::kHealthy);
    if (threads > 1) {
      // Workers count exactly the records they applied -- including the
      // batches applied ahead of the failing one in the same queue swap.
      EXPECT_EQ(drained.total() - drained_before,
                fleet.region_health("ok").records_ingested + bad.records_ingested);
    }
    EXPECT_GT(fleet.region("ok").windows_processed(), 0u);

    // The quarantined region is absent from the report body but present --
    // with its captured cause -- in the health section.
    const FleetReport report = fleet.diagnose();
    EXPECT_EQ(report.regions.count("bad"), 0u);
    EXPECT_EQ(report.regions.count("ok"), 1u);
    ASSERT_EQ(report.health.count("bad"), 1u);
    EXPECT_EQ(report.health.at("bad").health, RegionHealth::kQuarantined);
  }
}

TEST(FleetParallel, InterleavedRecordsAndWindowsKeepArrivalOrder) {
  // add_records and add_window interleaved on one region with no drain()
  // between them: every thread count applies them in arrival order, so the
  // reports and the pipeline state match. Record hours are clean; window
  // hours carry a stuck sensor.
  const CycleEnvironment env;
  const std::vector<SensorRecord> trace = simulate_region(env, 2.0 * kSecondsPerDay, 11);
  const auto hour_of = [](const SensorRecord& rec) {
    return static_cast<std::size_t>(rec.time / kSecondsPerHour);
  };
  const std::size_t hours = hour_of(trace.back()) + 1;
  std::vector<std::vector<SensorRecord>> by_hour(hours);
  for (const auto& rec : trace) by_hour[hour_of(rec)].push_back(rec);
  const auto window_of = [&env](std::size_t hour) {
    ObservationSet w;
    w.window_index = hour + 1;
    w.window_start = static_cast<double>(hour) * kSecondsPerHour;
    w.window_end = w.window_start + kSecondsPerHour;
    const AttrVec truth = env.truth(w.window_start);
    for (SensorId s = 0; s < 6; ++s) {
      w.per_sensor[s] = (s == 2) ? AttrVec{20.0, 5.0} : truth;
      w.raw.push_back(w.per_sensor[s]);
    }
    return w;
  };

  // Even hours arrive as records, odd hours as windows, in `order`. Returns
  // the report and the region's full resumable state, which shows the order
  // the pipeline saw even where the report does not.
  const auto run = [&](std::size_t threads, const std::vector<std::size_t>& order) {
    FleetConfig fc;
    fc.threads = threads;
    fc.batch_records = 16;  // many small handoffs between the windows
    FleetMonitor fleet(fc);
    fleet.add_region("r", region_config());
    for (const std::size_t h : order) {
      if (h % 2 == 0) {
        fleet.add_records("r", by_hour[h]);
      } else {
        fleet.add_window("r", window_of(h));
      }
    }
    fleet.finish();
    EXPECT_EQ(fleet.region_health("r").health, RegionHealth::kHealthy);
    std::ostringstream state;
    fleet.region("r").save_checkpoint(state, serialize::Format::kText,
                                      CheckpointScope::kResumable);
    return std::make_pair(to_string(fleet.diagnose()), state.str());
  };
  std::vector<std::size_t> interleaved, windows_last;
  for (std::size_t h = 0; h < hours; ++h) interleaved.push_back(h);
  for (std::size_t h = 0; h < hours; h += 2) windows_last.push_back(h);
  for (std::size_t h = 1; h < hours; h += 2) windows_last.push_back(h);

  const auto serial = run(1, interleaved);
  EXPECT_EQ(run(4, interleaved), serial);
  EXPECT_EQ(run(4, interleaved), serial);
  EXPECT_NE(run(1, windows_last).second, serial.second);  // the order is observable
}

TEST(FleetParallel, RecordWidthChangeMatchesSerial) {
  // Attribute widths that change inside one add_records span and across
  // spans. At threads > 1 a width change closes the producer's record batch,
  // so the pipeline sees the same record sequence as at threads = 1:
  //  * "legal" switches to 3-wide records for whole hours reported by only
  //    two sensors -- windows the pipeline skips (min_sensors_per_window), so
  //    the region stays healthy;
  //  * "bad" ends one span with a 3-wide record inside a 2-wide hour, and the
  //    next span's first record closes that window: the windower's legacy
  //    dimension-mismatch error quarantines the region.
  const CycleEnvironment env;
  const auto record = [&env](SensorId s, std::size_t hour, std::size_t k, std::size_t dims) {
    const double t = static_cast<double>(hour) * kSecondsPerHour + 300.0 * static_cast<double>(k);
    AttrVec a = env.truth(t);
    a[0] += 0.1 * static_cast<double>((s + k) % 5);
    a[1] -= 0.1 * static_cast<double>((2 * s + k) % 3);
    a.resize(dims, 1.0);
    return SensorRecord{s, t, a};
  };
  const auto hour_of = [&](std::size_t hour, bool wide) {
    std::vector<SensorRecord> recs;
    for (std::size_t k = 0; k < 12; ++k) {
      for (SensorId s = 0; s < (wide ? 2u : 6u); ++s) {
        recs.push_back(record(s, hour, k, wide ? 3 : 2));
      }
    }
    return recs;
  };

  // legal: spans alternate one hour / two hours, so each wide hour (every
  // 7th) starts either a span or the second half of one.
  std::vector<std::vector<SensorRecord>> legal;
  for (std::size_t h = 0; h < 48;) {
    const std::size_t n = legal.size() % 2 == 0 ? 1 : 2;
    std::vector<SensorRecord> span;
    for (std::size_t i = 0; i < n && h < 48; ++i, ++h) {
      const auto recs = hour_of(h, h % 7 == 4);
      span.insert(span.end(), recs.begin(), recs.end());
    }
    legal.push_back(std::move(span));
  }
  // bad: one span per hour; hour 9's span ends with a 3-wide sample from
  // sensor 0, and hour 10's first record closes that window.
  std::vector<std::vector<SensorRecord>> bad;
  for (std::size_t h = 0; h < 24; ++h) {
    bad.push_back(hour_of(h, false));
    if (h == 9) bad.back().push_back(record(0, h, 11, 3));
  }

  const auto run = [&](std::size_t threads) {
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor fleet(fc);
    fleet.add_region("bad", region_config());
    fleet.add_region("legal", region_config());
    std::size_t offered_bad = 0, offered_legal = 0;
    for (std::size_t i = 0; i < std::max(legal.size(), bad.size()); ++i) {
      if (i < legal.size()) {
        fleet.add_records("legal", legal[i]);
        offered_legal += legal[i].size();
      }
      if (i < bad.size()) {
        fleet.add_records("bad", bad[i]);
        offered_bad += bad[i].size();
      }
    }
    fleet.finish();
    const RegionState& b = fleet.region_health("bad");
    const RegionState& l = fleet.region_health("legal");
    EXPECT_EQ(b.records_ingested + b.records_dropped, offered_bad);
    EXPECT_EQ(l.records_ingested + l.records_dropped, offered_legal);
    EXPECT_EQ(l.health, RegionHealth::kHealthy);
    EXPECT_GT(fleet.region("legal").windows_processed(), 0u);
    return std::make_pair(to_string(fleet.diagnose()), b.status.to_string());
  };

  const auto serial = run(1);
  EXPECT_NE(serial.second.find("region bad: pipeline failed: AttrVec dimension mismatch: 2 vs 3"),
            std::string::npos)
      << serial.second;
  EXPECT_EQ(run(4), serial);  // report and quarantine status
  EXPECT_EQ(run(4), serial);
}

TEST(FleetParallel, RecycledWindowCopiesMatchSerial) {
  // At threads > 1 add_window copy-assigns the caller's window into a window
  // recycled from the shard. The caller here reuses and mutates ONE
  // ObservationSet across every call, and the shapes vary: the sensor count
  // shrinks and grows, and the fields present cycle through
  //  0. rep arrays + rep_sums + rep_total + cached_mean (a cluster-head upload),
  //  1. rep arrays + raw (no cached_mean, rep_sums or rep_total),
  //  2. per_sensor + raw (hand-built),
  //  3. per_sensor + cached_mean (no raw).
  // A recycled copy that kept any field of an earlier window (rep arrays in a
  // per_sensor window, stale rep_sums or cached_mean) feeds the pipeline a
  // different window than threads = 1 applies in place.
  const CycleEnvironment env;
  const std::size_t counts[] = {6, 9, 4, 12, 3, 8, 5};
  const auto run = [&](std::size_t threads) {
    FleetConfig fc;
    fc.threads = threads;
    FleetMonitor fleet(fc);
    PipelineConfig screened = region_config();
    screened.screen.mode = screen::ScreenMode::kScreen;
    fleet.add_region("plain", region_config());
    fleet.add_region("screened", screened);

    ObservationSet w;
    for (std::size_t i = 0; i < 96; ++i) {
      w.window_index = i + 1;
      w.window_start = static_cast<double>(i) * kSecondsPerHour;
      w.window_end = w.window_start + kSecondsPerHour;
      w.raw.clear();
      w.per_sensor.clear();
      w.cached_mean.clear();
      w.rep_sensors.clear();
      w.rep_points.clear();
      w.rep_sums.clear();
      w.rep_total.clear();
      const std::size_t shape = i % 4;
      const std::size_t sensors = counts[i % std::size(counts)];
      const AttrVec truth = env.truth(w.window_start);
      for (SensorId s = 0; s < sensors; ++s) {
        AttrVec p = (s == 2 && i >= 24) ? AttrVec{20.0, 5.0} : truth;
        p[0] += 0.1 * static_cast<double>((7 * s + 3 * i) % 5) - 0.2;
        p[1] -= 0.1 * static_cast<double>((5 * s + i) % 3);
        if (shape <= 1) {
          w.rep_sensors.push_back(s);
          w.rep_points.push_back(p);
        } else {
          w.per_sensor[s] = p;
        }
        if (shape == 1 || shape == 2) w.raw.push_back(p);
      }
      if (shape == 0 || shape == 3) {
        std::vector<AttrVec> reps;
        for (const auto& [id, p] : w.representatives()) reps.push_back(p);
        w.cached_mean = vecn::mean(reps);
      }
      if (shape == 0) {
        w.rep_total.assign(2, 0.0);
        for (const auto& p : w.rep_points) {
          w.rep_sums.push_back(vecn::scalar_sum(p));
          w.rep_total[0] += p[0];
          w.rep_total[1] += p[1];
        }
      }
      fleet.add_window("plain", w);
      fleet.add_window("screened", w);
    }
    fleet.finish();
    std::string out = to_string(fleet.diagnose());
    for (const std::string name : {"plain", "screened"}) {
      EXPECT_EQ(fleet.region_health(name).health, RegionHealth::kHealthy) << name;
      std::ostringstream state;
      fleet.region(name).save_checkpoint(state, serialize::Format::kText,
                                         CheckpointScope::kResumable);
      out += state.str();
    }
    return out;
  };

  const std::string serial = run(1);
  EXPECT_NE(serial.find("sensor 2:"), std::string::npos);  // the stuck sensor is diagnosed
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(4), serial);
}

TEST(FleetParallel, WindowBackpressureSurvivesFailingWorker) {
  // A window the pipeline cannot apply (3 attributes into a 2-attribute
  // region) fails inside a worker at threads > 1. add_window waits while a
  // window sits untaken in the shard queue; that wait must also end on the
  // parked failure, so the windows and records sent after it return (no
  // hang), are dropped behind the failure, and are counted.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetConfig fc;
    fc.threads = threads;
    fc.batch_records = 8;
    FleetMonitor fleet(fc);
    fleet.add_region("bad", region_config());
    fleet.add_region("ok", region_config());

    const auto window = [](std::size_t i, std::size_t dims) {
      ObservationSet w;
      w.window_index = i + 1;
      w.window_start = static_cast<double>(i) * kSecondsPerHour;
      w.window_end = w.window_start + kSecondsPerHour;
      for (SensorId s = 0; s < 6; ++s) {
        AttrVec p{10.0 + 0.1 * s, 60.0};
        p.resize(dims, 1.0);
        w.rep_sensors.push_back(s);
        w.rep_points.push_back(p);
        w.raw.push_back(p);
      }
      return w;
    };
    std::size_t offered = 0;
    for (std::size_t i = 0; i < 4; ++i) {  // healthy windows ahead of the failure
      fleet.add_window("bad", window(i, 2));
      fleet.add_window("ok", window(i, 2));
      offered += 6;
    }
    fleet.add_window("bad", window(4, 3));  // throws in the pipeline
    offered += 6;
    for (std::size_t i = 5; i < 12; ++i) {  // at least three more behind it
      fleet.add_window("bad", window(i, 2));
      fleet.add_window("ok", window(i, 2));
      offered += 6;
    }
    std::vector<SensorRecord> span;
    for (SensorId s = 0; s < 6; ++s) span.push_back({s, 12.5 * kSecondsPerHour, {10.0, 60.0}});
    fleet.add_records("bad", span);
    offered += span.size();
    fleet.add_window("bad", window(13, 2));
    offered += 6;
    fleet.finish();

    const RegionState& bad = fleet.region_health("bad");
    EXPECT_EQ(bad.health, RegionHealth::kQuarantined);
    EXPECT_NE(bad.status.message().find("region bad: pipeline failed"), std::string::npos)
        << bad.status.to_string();
    ASSERT_TRUE(bad.error);
    EXPECT_THROW(std::rethrow_exception(bad.error), std::invalid_argument);
    EXPECT_EQ(bad.records_ingested, 4u * 6u);  // exactly the windows applied
    EXPECT_EQ(bad.records_ingested + bad.records_dropped, offered);
    EXPECT_EQ(fleet.region_health("ok").health, RegionHealth::kHealthy);
    EXPECT_EQ(fleet.region("ok").windows_processed(), 11u);
    const FleetReport report = fleet.diagnose();
    EXPECT_EQ(report.regions.count("bad"), 0u);
    EXPECT_EQ(report.regions.count("ok"), 1u);
  }
}

TEST(FleetParallel, DrainIsQuiescencePoint) {
  const CycleEnvironment env;
  const auto trace = simulate_region(env, 1.0 * kSecondsPerDay, 5);

  FleetConfig fc;
  fc.threads = 4;
  FleetMonitor fleet(fc);
  fleet.add_region("r", region_config());
  for (const auto& rec : trace) fleet.add_record("r", rec);
  fleet.drain();
  // After drain every queued record reached the pipeline: the streaming
  // windower has closed all but the final partial window.
  const std::size_t before_finish = fleet.region("r").windows_processed();
  EXPECT_GT(before_finish, 20u);
  fleet.finish();
  EXPECT_GE(fleet.region("r").windows_processed(), before_finish);
}

TEST(FleetParallel, ConfigValidation) {
  FleetConfig bad_tol;
  bad_tol.state_match_tol = 0.0;
  EXPECT_THROW(FleetMonitor{bad_tol}, std::invalid_argument);
  FleetConfig bad_queue;
  bad_queue.max_queue_records = 0;
  EXPECT_THROW(FleetMonitor{bad_queue}, std::invalid_argument);
}

TEST(SimulatorParallel, TraceIdenticalToSerial) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 2.0 * kSecondsPerDay;
  ec.seed = 11;
  const sim::GdiEnvironment env(ec);

  sim::GdiDeploymentConfig dc;
  dc.num_sensors = 10;
  dc.seed = 11;

  auto serial_sim = sim::make_gdi_deployment(env, dc);
  const auto serial = serial_sim.run(ec.duration_seconds);

  auto parallel_sim = sim::make_gdi_deployment(env, dc);
  util::ThreadPool pool(4);
  const auto parallel = parallel_sim.run(ec.duration_seconds, pool);

  EXPECT_EQ(parallel.trace, serial.trace);
  EXPECT_EQ(parallel.stats.sampled, serial.stats.sampled);
  EXPECT_EQ(parallel.stats.suppressed, serial.stats.suppressed);
  EXPECT_EQ(parallel.stats.lost, serial.stats.lost);
  EXPECT_EQ(parallel.stats.malformed, serial.stats.malformed);
  EXPECT_EQ(parallel.stats.delivered, serial.stats.delivered);
}

TEST(SimulatorParallel, WithInjectionPlanIdenticalToSerial) {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 1.0 * kSecondsPerDay;
  ec.seed = 13;
  const sim::GdiEnvironment env(ec);

  const auto make = [&] {
    sim::GdiDeploymentConfig dc;
    dc.num_sensors = 8;
    dc.seed = 13;
    auto s = sim::make_gdi_deployment(env, dc);
    auto plan = std::make_shared<faults::InjectionPlan>();
    plan->add(3, std::make_unique<faults::StuckAtFault>(AttrVec{15.0, 1.0}), 0.2 * kSecondsPerDay);
    plan->add(5, std::make_unique<faults::RandomNoiseFault>(10.0, 13), 0.1 * kSecondsPerDay);
    s.set_transform(faults::make_transform(plan));
    return s;
  };

  auto serial_sim = make();
  const auto serial = serial_sim.run(ec.duration_seconds);
  auto parallel_sim = make();
  util::ThreadPool pool(3);
  const auto parallel = parallel_sim.run(ec.duration_seconds, pool);
  EXPECT_EQ(parallel.trace, serial.trace);
}

}  // namespace
}  // namespace sentinel::core
