// Tests: the columnar windower against the legacy map-based reference.
//
// PR "columnar windowing data plane" rebuilt Windower around slot-indexed
// SoA accumulators and batched kernels; the contract is that every emitted
// ObservationSet is *bit-identical* to what the old std::map-based
// finalization produced. This file embeds that legacy implementation
// verbatim (from the pre-columnar source) as an in-test reference and
// property-tests the two against each other over hostile traces:
// out-of-order timestamps within a window, sparse/absent sensors,
// single-record windows, NaN/negative/huge times, multi-window gaps, and
// special attribute values (inf, denormals, signed zero).
//
// Kernel-level coverage note: the accumulation kernels themselves are
// cross-checked per level in kernels_test.cpp (AccumRows*/SumRows*), and the
// CI scalar job re-runs this whole suite under SENTINEL_KERNELS=scalar, so
// the bit-identity property here is exercised at every dispatch level.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "trace/windower.h"
#include "util/serialize.h"
#include "util/vecn.h"

namespace sentinel {
namespace {

// --- the legacy map-based windower, verbatim -------------------------------

namespace legacy {

class Windower {
 public:
  explicit Windower(double window_seconds) : window_seconds_(window_seconds) {}

  template <typename Fn>
  void add(const SensorRecord& rec, Fn&& on_window) {
    const auto idx = index_for(rec.time);
    if (current_index_ == 0) {
      open_window(idx);
    } else if (idx < current_index_) {
      ++late_records_;
      return;
    } else if (idx > current_index_) {
      on_window(finalize_current());
      for (std::size_t i = current_index_ + 1; i < idx; ++i) {
        ObservationSet empty;
        empty.window_index = i;
        empty.window_start = window_seconds_ * static_cast<double>(i - 1);
        empty.window_end = window_seconds_ * static_cast<double>(i);
        on_window(std::move(empty));
      }
      open_window(idx);
    }
    pending_.push_back(rec);
  }

  std::optional<ObservationSet> flush() {
    if (current_index_ == 0 || pending_.empty()) return std::nullopt;
    auto set = finalize_current();
    open_window(current_index_);
    return set;
  }

  std::size_t late_records() const { return late_records_; }
  std::size_t clamped_records() const { return clamped_records_; }

 private:
  ObservationSet finalize_current() {
    ObservationSet set;
    set.window_index = current_index_;
    set.window_start = window_seconds_ * static_cast<double>(current_index_ - 1);
    set.window_end = window_seconds_ * static_cast<double>(current_index_);
    std::map<SensorId, std::vector<AttrVec>> by_sensor;
    for (auto& rec : pending_) {
      set.raw.push_back(rec.attrs);
      by_sensor[rec.sensor].push_back(std::move(rec.attrs));
    }
    set.rep_sensors.reserve(by_sensor.size());
    set.rep_points.reserve(by_sensor.size());
    set.rep_sums.reserve(by_sensor.size());
    for (auto& [id, samples] : by_sensor) {
      auto rep = vecn::mean(samples);
      set.per_sensor.emplace(id, rep);
      set.rep_sensors.push_back(id);
      set.rep_sums.push_back(vecn::scalar_sum(rep));
      if (set.rep_total.empty()) set.rep_total.assign(rep.size(), 0.0);
      for (std::size_t a = 0; a < set.rep_total.size() && a < rep.size(); ++a) {
        set.rep_total[a] += rep[a];
      }
      set.rep_points.push_back(std::move(rep));
    }
    if (!set.raw.empty()) vecn::mean_into(set.raw, set.cached_mean);
    return set;
  }

  void open_window(std::size_t index) {
    current_index_ = index;
    pending_.clear();
  }

  std::size_t index_for(double time) {
    const double idx = std::floor(time / window_seconds_);
    if (!(idx >= 0.0)) {
      ++clamped_records_;
      return 1;
    }
    constexpr double kMaxIndex = 9.0e18;
    if (idx >= kMaxIndex) {
      ++clamped_records_;
      return static_cast<std::size_t>(kMaxIndex);
    }
    return static_cast<std::size_t>(idx) + 1;
  }

  double window_seconds_;
  std::size_t current_index_ = 0;
  std::vector<SensorRecord> pending_;
  std::size_t late_records_ = 0;
  std::size_t clamped_records_ = 0;
};

}  // namespace legacy

// --- bit-exact ObservationSet comparison -----------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_vec(const AttrVec& got, const AttrVec& want, const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i])) << tag << " [" << i << "] got=" << got[i]
                                           << " want=" << want[i];
  }
}

void expect_same_window(const ObservationSet& got, const ObservationSet& want,
                        const std::string& tag, bool expect_raw = true) {
  EXPECT_EQ(got.window_index, want.window_index) << tag;
  EXPECT_EQ(bits(got.window_start), bits(want.window_start)) << tag;
  EXPECT_EQ(bits(got.window_end), bits(want.window_end)) << tag;
  if (expect_raw) {
    ASSERT_EQ(got.raw.size(), want.raw.size()) << tag;
    for (std::size_t r = 0; r < got.raw.size(); ++r) {
      expect_same_vec(got.raw[r], want.raw[r], tag + " raw[" + std::to_string(r) + "]");
    }
    ASSERT_EQ(got.per_sensor.size(), want.per_sensor.size()) << tag;
    auto gi = got.per_sensor.begin();
    auto wi = want.per_sensor.begin();
    for (; gi != got.per_sensor.end(); ++gi, ++wi) {
      EXPECT_EQ(gi->first, wi->first) << tag;
      expect_same_vec(gi->second, wi->second,
                      tag + " per_sensor[" + std::to_string(wi->first) + "]");
    }
  } else {
    EXPECT_TRUE(got.raw.empty()) << tag << ": keep_raw=false must not retain raw";
    EXPECT_TRUE(got.per_sensor.empty()) << tag << ": keep_raw=false must not build the map";
  }
  expect_same_vec(got.cached_mean, want.cached_mean, tag + " cached_mean");
  EXPECT_EQ(got.rep_sensors, want.rep_sensors) << tag;
  ASSERT_EQ(got.rep_points.size(), want.rep_points.size()) << tag;
  for (std::size_t j = 0; j < got.rep_points.size(); ++j) {
    expect_same_vec(got.rep_points[j], want.rep_points[j],
                    tag + " rep_points[" + std::to_string(j) + "]");
  }
  expect_same_vec(got.rep_sums, want.rep_sums, tag + " rep_sums");
  expect_same_vec(got.rep_total, want.rep_total, tag + " rep_total");
}

// --- hostile trace generation ----------------------------------------------

/// A deterministic hostile trace: mostly-forward time walk with backwards
/// jitter inside the window, multi-window jumps (gaps + single-record
/// windows), genuinely late records, degenerate times (NaN / negative /
/// astronomically large), sensors drawn sparsely from a pool (some ids never
/// appear), and attribute values spanning special doubles. Dimensions are
/// uniform per trace -- mismatch handling is tested separately because the
/// legacy path leaves moved-from remnants behind after throwing.
std::vector<SensorRecord> hostile_trace(std::uint64_t seed, std::size_t n, std::size_t dims,
                                        double window) {
  std::mt19937_64 rng(0x5eed0000 + seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  constexpr double kSpecial[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::denorm_min(), 1e300, -1e-300};
  std::vector<SensorRecord> trace;
  trace.reserve(n);
  double t = 0.25 * window;
  for (std::size_t i = 0; i < n; ++i) {
    const double roll = unit(rng);
    SensorRecord rec;
    if (roll < 0.025) {
      rec.time = std::numeric_limits<double>::quiet_NaN();  // clamps to window 1 (late)
    } else if (roll < 0.05) {
      rec.time = -window * unit(rng) * 10.0;  // negative: clamps to window 1
      // (An astronomically large time clamps to index ~9e18 and the gap
      // emission loop would then emit ~1e18 empty windows -- identical in
      // both implementations but far too slow to property-test here; the
      // clamp itself is covered by the NaN/negative cases above.)
    } else if (roll < 0.10) {
      t += window * (2.0 + std::floor(unit(rng) * 4.0));  // gap: skip 2-5 windows
      rec.time = t;
    } else if (roll < 0.15) {
      rec.time = t - window * (1.0 + unit(rng));  // genuinely late
    } else {
      t += window * 0.15 * unit(rng);
      rec.time = t - window * 0.4 * unit(rng);  // out-of-order within the window
    }
    rec.sensor = static_cast<SensorId>(rng() % 11);  // sparse: many absent per window
    rec.attrs.resize(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      if (unit(rng) < 0.08) {
        rec.attrs[d] = kSpecial[rng() % std::size(kSpecial)];
      } else {
        rec.attrs[d] = (unit(rng) - 0.5) * std::pow(10.0, 6.0 * unit(rng) - 3.0);
      }
    }
    trace.push_back(std::move(rec));
  }
  return trace;
}

std::vector<ObservationSet> run_legacy(const std::vector<SensorRecord>& trace, double window,
                                       std::size_t* late = nullptr,
                                       std::size_t* clamped = nullptr) {
  legacy::Windower w(window);
  std::vector<ObservationSet> out;
  for (const auto& rec : trace) w.add(rec, [&](ObservationSet&& s) { out.push_back(std::move(s)); });
  if (auto last = w.flush()) out.push_back(std::move(*last));
  if (late) *late = w.late_records();
  if (clamped) *clamped = w.clamped_records();
  return out;
}

std::vector<ObservationSet> run_columnar(const std::vector<SensorRecord>& trace, double window,
                                         std::size_t batch, bool keep_raw,
                                         std::size_t* late = nullptr,
                                         std::size_t* clamped = nullptr) {
  Windower w(WindowerConfig{window, keep_raw});
  std::vector<ObservationSet> out;
  const auto sink = [&](ObservationSet&& s) { out.push_back(std::move(s)); };
  for (std::size_t i = 0; i < trace.size(); i += batch) {
    const std::size_t n = std::min(batch, trace.size() - i);
    w.add_batch(std::span<const SensorRecord>(trace.data() + i, n), sink);
  }
  if (auto last = w.flush()) out.push_back(std::move(*last));
  if (late) *late = w.late_records();
  if (clamped) *clamped = w.clamped_records();
  return out;
}

// --- properties ------------------------------------------------------------

TEST(WindowerColumnar, BitIdenticalToLegacyOverHostileTraces) {
  const double window = 60.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (const std::size_t dims : {1ul, 2ul, 5ul}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " dims=" + std::to_string(dims));
      const auto trace = hostile_trace(seed, 800, dims, window);
      std::size_t llate = 0, lclamped = 0;
      const auto want = run_legacy(trace, window, &llate, &lclamped);
      for (const std::size_t batch : {1ul, 7ul, 64ul, trace.size()}) {
        std::size_t clate = 0, cclamped = 0;
        const auto got = run_columnar(trace, window, batch, /*keep_raw=*/true, &clate, &cclamped);
        const std::string tag = "batch=" + std::to_string(batch);
        EXPECT_EQ(clate, llate) << tag;
        EXPECT_EQ(cclamped, lclamped) << tag;
        ASSERT_EQ(got.size(), want.size()) << tag;
        for (std::size_t k = 0; k < got.size(); ++k) {
          expect_same_window(got[k], want[k], tag + " window[" + std::to_string(k) + "]");
        }
      }
    }
  }
}

TEST(WindowerColumnar, KeepRawOffMatchesRepArraysWithEmptyHistory) {
  const double window = 60.0;
  const auto trace = hostile_trace(42, 600, 3, window);
  const auto want = run_legacy(trace, window);
  const auto got = run_columnar(trace, window, /*batch=*/32, /*keep_raw=*/false);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    expect_same_window(got[k], want[k], "window[" + std::to_string(k) + "]",
                       /*expect_raw=*/false);
    // The lean window must still report occupancy and the overall mean.
    EXPECT_EQ(got[k].empty(), want[k].empty());
    EXPECT_EQ(got[k].sensor_count(), want[k].sensor_count());
    if (!got[k].empty()) {
      expect_same_vec(got[k].overall_mean(), want[k].overall_mean(),
                      "overall_mean[" + std::to_string(k) + "]");
    }
  }
}

TEST(WindowerColumnar, SingleRecordWindowsAndExactBoundaries) {
  // One record per window plus records exactly on window boundaries (time =
  // k*w belongs to window k+1 under the half-open convention).
  const double window = 10.0;
  std::vector<SensorRecord> trace;
  for (std::size_t k = 0; k < 20; ++k) {
    SensorRecord rec;
    rec.sensor = static_cast<SensorId>(k % 3);
    rec.time = static_cast<double>(k) * 3.0 * window;  // every 3rd window only
    rec.attrs = {static_cast<double>(k) * 0.1, -1.0 / (static_cast<double>(k) + 1.0)};
    trace.push_back(std::move(rec));
  }
  const auto want = run_legacy(trace, window);
  for (const std::size_t batch : {1ul, 5ul, trace.size()}) {
    const auto got = run_columnar(trace, window, batch, /*keep_raw=*/true);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      expect_same_window(got[k], want[k],
                         "batch=" + std::to_string(batch) + " window[" + std::to_string(k) + "]");
      EXPECT_EQ(got[k].empty(), want[k].empty());
    }
  }
}

TEST(WindowerColumnar, DimensionMismatchThrowsLegacyMessage) {
  // A sensor whose samples disagree in width throws for the lowest such
  // sensor id (the legacy vecn::mean order); after the throw the columnar
  // windower is reset and usable, which the legacy one never guaranteed.
  Windower w(WindowerConfig{60.0, true});
  const auto sink = [](ObservationSet&&) {};
  std::vector<SensorRecord> recs;
  recs.push_back({.sensor = 4, .time = 5.0, .attrs = {1.0, 2.0}});
  recs.push_back({.sensor = 4, .time = 6.0, .attrs = {1.0, 2.0, 3.0}});
  recs.push_back({.sensor = 7, .time = 70.0, .attrs = {9.0}});  // closes window 1
  try {
    w.add_batch(std::span<const SensorRecord>(recs.data(), recs.size()), sink);
    FAIL() << "expected dimension mismatch";
  } catch (const std::invalid_argument& e) {
    // Identical to what legacy finalize_current surfaced via vecn::mean.
    std::string want;
    try {
      std::vector<AttrVec> samples = {{1.0, 2.0}, {1.0, 2.0, 3.0}};
      (void)vecn::mean(samples);
    } catch (const std::invalid_argument& le) {
      want = le.what();
    }
    EXPECT_EQ(std::string(e.what()), want);
  }
  // Still usable: the poisoned window was discarded, window 2 accumulates.
  std::size_t emitted = 0;
  SensorRecord ok{.sensor = 1, .time = 75.0, .attrs = {1.0, 1.0}};
  w.add(ok, [&](ObservationSet&&) { ++emitted; });
  auto last = w.flush();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->window_index, 2u);
  EXPECT_EQ(last->sensor_count(), 1u);
}

// --- the RecordBatch entry --------------------------------------------------

/// Feed `recs` through the columnar entry, one RecordBatch per run of equal
/// attribute width -- the way the fleet's producer batches them.
template <class Fn>
void add_columnar(Windower& w, std::span<const SensorRecord> recs, Fn&& sink) {
  RecordBatch batch;
  for (std::size_t done = 0; done < recs.size();) {
    batch.clear();
    done += batch.append(recs.subspan(done));
    w.add_batch(batch, sink);
  }
}

std::string checkpoint_bytes(const Windower& w) {
  std::ostringstream blob(std::ios::binary);
  serialize::BinaryWriter sw(blob);
  w.save(sw);
  return blob.str();
}

TEST(WindowerColumnar, RecordBatchEntryMatchesSpanEntry) {
  // Both entries run the same per-record step, so a trace fed as
  // RecordBatches emits bit-identical windows and leaves byte-identical
  // checkpoints (the arrival-order log) at every batch boundary.
  const double window = 60.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto trace = hostile_trace(seed, 600, 3, window);
    for (const std::size_t batch : {1ul, 5ul, trace.size()}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " batch=" + std::to_string(batch));
      Windower spans(WindowerConfig{window, true});
      Windower columns(WindowerConfig{window, true});
      std::vector<ObservationSet> want, got;
      const auto sink_want = [&](ObservationSet&& s) { want.push_back(std::move(s)); };
      const auto sink_got = [&](ObservationSet&& s) { got.push_back(std::move(s)); };
      for (std::size_t i = 0; i < trace.size(); i += batch) {
        const std::span<const SensorRecord> recs(trace.data() + i,
                                                 std::min(batch, trace.size() - i));
        spans.add_batch(recs, sink_want);
        add_columnar(columns, recs, sink_got);
        ASSERT_EQ(checkpoint_bytes(columns), checkpoint_bytes(spans)) << "after record " << i;
      }
      if (auto last = spans.flush()) want.push_back(std::move(*last));
      if (auto last = columns.flush()) got.push_back(std::move(*last));
      EXPECT_EQ(columns.late_records(), spans.late_records());
      EXPECT_EQ(columns.clamped_records(), spans.clamped_records());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        expect_same_window(got[k], want[k], "window[" + std::to_string(k) + "]");
      }
    }
  }
}

TEST(WindowerColumnar, RecordBatchEntryDimensionMismatchThrowsLegacyMessage) {
  // DimensionMismatchThrowsLegacyMessage through the columnar entry: the
  // width change splits the records into two batches, and the window close
  // in the third throws the same message and leaves the windower usable.
  std::vector<SensorRecord> recs;
  recs.push_back({.sensor = 4, .time = 5.0, .attrs = {1.0, 2.0}});
  recs.push_back({.sensor = 4, .time = 6.0, .attrs = {1.0, 2.0, 3.0}});
  recs.push_back({.sensor = 7, .time = 70.0, .attrs = {9.0}});  // closes window 1
  const auto sink = [](ObservationSet&&) {};
  // Returns the thrown message and the windows emitted after recovering.
  const auto message = [&](auto&& feed) {
    Windower w(WindowerConfig{60.0, true});
    std::string what;
    try {
      feed(w);
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    std::size_t emitted = 0;
    RecordBatch ok;
    const SensorRecord rec{.sensor = 1, .time = 75.0, .attrs = {1.0, 1.0}};
    ok.append(std::span<const SensorRecord>(&rec, 1));
    w.add_batch(ok, [&](ObservationSet&&) { ++emitted; });
    const auto last = w.flush();
    EXPECT_TRUE(last.has_value() && last->window_index == 2u && last->sensor_count() == 1u);
    return std::make_pair(what, emitted);
  };
  const auto want =
      message([&](Windower& w) { w.add_batch(std::span<const SensorRecord>(recs), sink); });
  EXPECT_EQ(want.first, "AttrVec dimension mismatch: 2 vs 3");
  EXPECT_EQ(message([&](Windower& w) { add_columnar(w, recs, sink); }), want);
}

TEST(WindowerColumnar, SaveLoadRoundTripContinuesBitIdentically) {
  // Checkpoint mid-window, restore into a fresh windower, and continue both
  // with the remainder of the trace: every subsequent window must match the
  // uninterrupted run bit-for-bit (load() replays the arrival-order log to
  // rebuild the columnar accumulators).
  const double window = 60.0;
  const auto trace = hostile_trace(7, 500, 3, window);
  const std::size_t cut = 217;  // deliberately mid-window, mid-batch

  const auto want = run_columnar(trace, window, 16, /*keep_raw=*/true);

  Windower first(WindowerConfig{window, true});
  std::vector<ObservationSet> got;
  const auto sink = [&](ObservationSet&& s) { got.push_back(std::move(s)); };
  first.add_batch(std::span<const SensorRecord>(trace.data(), cut), sink);

  std::ostringstream blob(std::ios::binary);
  serialize::BinaryWriter sw(blob);
  first.save(sw);

  Windower resumed(WindowerConfig{window, true});
  std::istringstream in(blob.str(), std::ios::binary);
  serialize::BinaryReader sr(in);
  resumed.load(sr);

  resumed.add_batch(std::span<const SensorRecord>(trace.data() + cut, trace.size() - cut), sink);
  if (auto last = resumed.flush()) got.push_back(std::move(*last));

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    expect_same_window(got[k], want[k], "window[" + std::to_string(k) + "]");
  }
}

// --- fleet determinism over a hostile stream -------------------------------

TEST(WindowerColumnar, FleetReportIdenticalAcrossThreadsOnHostileTrace) {
  // The batched shard handoff must not change results: a hostile trace
  // (out-of-order, sparse, degenerate times) through threads=1 and threads=4
  // fleets yields byte-identical reports.
  const double window = kSecondsPerHour;
  const auto make_trace = [&](std::uint64_t seed) {
    auto t = hostile_trace(seed, 1200, 2, window);
    // Scale hostile times into a few days so the pipeline sees real windows.
    for (auto& rec : t) {
      if (std::isfinite(rec.time) && rec.time >= 0.0) rec.time *= 40.0;
    }
    return t;
  };
  const std::vector<std::vector<SensorRecord>> traces = {make_trace(1), make_trace(2)};

  const auto run = [&](std::size_t threads) {
    core::FleetConfig fc;
    fc.threads = threads;
    core::FleetMonitor fleet(fc);
    core::PipelineConfig cfg;
    cfg.window_seconds = window;
    cfg.initial_states = {{10.0, 60.0}, {30.0, 40.0}};
    fleet.add_region("alpha", cfg);
    fleet.add_region("beta", cfg);
    const std::vector<std::string> names = {"alpha", "beta"};
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
    return core::to_string(fleet.diagnose());
  };

  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace sentinel
