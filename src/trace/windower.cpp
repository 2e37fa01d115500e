// Columnar windower implementation.
//
// Bit-identity contract: every value in a finalized ObservationSet must equal,
// bit for bit, what the legacy map-based finalization produced --
//
//   std::map<SensorId, std::vector<AttrVec>> by_sensor;   // group samples
//   for each sensor ascending: rep = vecn::mean(samples); // accumulate, *1/n
//   rep_sums.push_back(vecn::scalar_sum(rep));
//   rep_total += rep (sized from the first rep, min-truncated);
//   vecn::mean_into(raw, cached_mean);                    // all records, *1/n
//
// The columnar path reproduces each accumulation order exactly:
//  * A slot's running-sum row receives that sensor's samples in arrival
//    order, element-wise from +0.0 -- the same add sequence vecn::mean
//    performs on the grouped samples (grouping preserves arrival order per
//    sensor). The representative is sums[i] * (1.0/count), the same single
//    rounding vecn::mean's `x *= inv` applies to the same sum.
//  * The whole-window total receives every record in arrival order,
//    element-wise -- vecn::mean_into's order over `raw` -- and cached_mean
//    is total[i] * (1.0/count), matching its `*= inv`.
//  * Reps are emitted in ascending sensor order (std::sort over touched
//    slots), the order std::map iteration gave the legacy loop; rep_sums /
//    rep_total are computed from the finished reps with the identical
//    helper and truncation guard.
// The deferred adds run through kern accum_rows/sum_rows, which are
// element-wise with rows processed in gather order at every level, so the
// kernel batching changes nothing about the order of additions.
//
// Dimension-mismatch errors also mirror the legacy path: a sensor whose
// samples disagree in width throws vecn::check_same_size's message for the
// lowest such sensor id (legacy: vecn::mean over the first conflicted group),
// else a window whose records disagree throws it for the first record that
// differs from the window's first (legacy: vecn::mean_into over raw). In
// both cases the window being finalized is discarded; unlike the legacy
// code, which left moved-from remnants behind, the columnar windower resets
// to a clean empty window.

#include "trace/windower.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/kernels.h"
#include "util/serialize.h"

namespace sentinel {

AttrVec ObservationSet::overall_mean() const {
  if (!cached_mean.empty()) return cached_mean;
  if (raw.empty()) throw std::logic_error("ObservationSet::overall_mean on empty window");
  return vecn::mean(raw);
}

std::vector<std::pair<SensorId, AttrVec>> ObservationSet::representatives() const {
  std::vector<std::pair<SensorId, AttrVec>> out;
  if (!rep_sensors.empty()) {
    out.reserve(rep_sensors.size());
    for (std::size_t j = 0; j < rep_sensors.size(); ++j) {
      out.emplace_back(rep_sensors[j], rep_points[j]);
    }
    return out;
  }
  out.reserve(per_sensor.size());
  for (const auto& [id, v] : per_sensor) out.emplace_back(id, v);
  return out;
}

namespace {

// Fibonacci-style mix so consecutive sensor ids spread across the table.
inline std::size_t hash_id(SensorId id) {
  return static_cast<std::size_t>(id) * 0x9E3779B97F4A7C15ull;
}

[[noreturn]] void throw_dims_mismatch(std::uint32_t have, std::uint32_t got) {
  throw std::invalid_argument("AttrVec dimension mismatch: " + std::to_string(have) + " vs " +
                              std::to_string(got));
}

}  // namespace

Windower::Windower(const WindowerConfig& cfg)
    : window_seconds_(cfg.window_seconds), keep_raw_(cfg.keep_raw) {
  if (!(window_seconds_ > 0.0)) throw std::invalid_argument("Windower: window must be positive");
  ht_.assign(64, 0);
}

void Windower::open_window(std::size_t index) { current_index_ = index; }

std::size_t Windower::index_for(double time) {
  // Window i (1-based) covers [w*(i-1), w*i); the paper's eq. (1) is
  // inclusive on both ends, but half-open intervals avoid double counting.
  // Degenerate times need defined handling before the cast -- converting a
  // negative or out-of-range double to size_t is undefined behavior (the
  // ASan+UBSan CI job checks this path): times before deployment start (and
  // NaN) clamp into window 1, astronomically large times clamp to the
  // largest index the cast can represent. Each clamp is counted so the
  // pipeline can attribute degenerate timestamps instead of absorbing them
  // silently.
  const double idx = std::floor(time / window_seconds_);
  if (!(idx >= 0.0)) {
    ++clamped_records_;
    return 1;
  }
  constexpr double kMaxIndex = 9.0e18;  // < 2^63: cast below is defined
  if (idx >= kMaxIndex) {
    ++clamped_records_;
    return static_cast<std::size_t>(kMaxIndex);
  }
  return static_cast<std::size_t>(idx) + 1;
}

std::uint32_t Windower::slot_for(SensorId id) {
  std::size_t mask = ht_.size() - 1;
  std::size_t h = hash_id(id) & mask;
  while (ht_[h] != 0) {
    const std::uint32_t s = ht_[h] - 1;
    if (slot_ids_[s] == id) return s;
    h = (h + 1) & mask;
  }
  // First sight of this sensor: append a slot (the only allocating event on
  // the accumulate path, amortized to zero once the fleet's id set is seen).
  const auto s = static_cast<std::uint32_t>(slot_ids_.size());
  slot_ids_.push_back(id);
  slot_counts_.push_back(0);
  slot_dims_.push_back(kDimsUnset);
  slot_conflict_.push_back(kDimsUnset);
  sums_.resize(sums_.size() + stride_, 0.0);
  ht_[h] = s + 1;
  if ((slot_ids_.size() + 1) * 4 > ht_.size() * 3) rehash();
  return s;
}

void Windower::rehash() {
  std::vector<std::uint32_t> bigger(ht_.size() * 2, 0);
  const std::size_t mask = bigger.size() - 1;
  for (std::uint32_t s = 0; s < slot_ids_.size(); ++s) {
    std::size_t h = hash_id(slot_ids_[s]) & mask;
    while (bigger[h] != 0) h = (h + 1) & mask;
    bigger[h] = s + 1;
  }
  ht_.swap(bigger);
}

void Windower::grow_stride(std::size_t dims) {
  // A record wider than any seen before: re-lay the sums arena at the new
  // padded stride. Gathered offsets were computed against the old stride, so
  // they must land first.
  flush_slot_gather();
  const std::size_t new_stride = kern::padded(dims);
  std::vector<double> wider(slot_ids_.size() * new_stride, 0.0);
  for (std::size_t s = 0; s < slot_ids_.size(); ++s) {
    const double* src = sums_.data() + s * stride_;
    double* dst = wider.data() + s * new_stride;
    for (std::size_t i = 0; i < stride_; ++i) dst[i] = src[i];
  }
  sums_.swap(wider);
  stride_ = new_stride;
}

void Windower::flush_slot_gather() {
  if (g_count_ == 0) return;
  kern::k().accum_rows(sums_.data(), g_offs_.data(), g_srcs_.data(), g_count_, g_dims_);
  g_count_ = 0;
}

void Windower::flush_total_gather() {
  if (gt_count_ == 0) return;
  kern::k().sum_rows(total_.data(), gt_srcs_.data(), gt_count_, window_dims_);
  gt_count_ = 0;
}

void Windower::accumulate(SensorId sensor, double time, const double* attrs, std::size_t dims) {
  if (pending_count_ == pending_log_.size()) pending_log_.emplace_back();
  SensorRecord& e = pending_log_[pending_count_];
  e.sensor = sensor;
  e.time = time;
  e.attrs.assign(attrs, attrs + dims);
  ++pending_count_;
  accumulate_entry(e);
}

void Windower::accumulate_entry(const SensorRecord& e) {
  const auto dims = static_cast<std::uint32_t>(e.attrs.size());
  const double* src = e.attrs.data();

  // Whole-window total: every record whose width matches the window's first.
  if (window_dims_ == kDimsUnset) {
    window_dims_ = dims;
    total_.assign(dims, 0.0);
  }
  if (dims == window_dims_) {
    if (gt_count_ == kGatherCap) flush_total_gather();
    gt_srcs_[gt_count_++] = src;
  } else if (window_conflict_ == kDimsUnset) {
    window_conflict_ = dims;
  }

  // Per-sensor running sum.
  if (static_cast<std::size_t>(dims) > stride_) grow_stride(dims);
  const std::uint32_t slot = slot_for(e.sensor);
  if (slot_counts_[slot] == 0) {
    touched_.push_back(slot);
    slot_dims_[slot] = dims;
  }
  ++slot_counts_[slot];
  if (dims == slot_dims_[slot]) {
    if (g_count_ == kGatherCap || (g_count_ != 0 && g_dims_ != dims)) flush_slot_gather();
    if (g_count_ == 0) g_dims_ = dims;
    g_offs_[g_count_] = static_cast<std::size_t>(slot) * stride_;
    g_srcs_[g_count_] = src;
    ++g_count_;
  } else if (slot_conflict_[slot] == kDimsUnset) {
    slot_conflict_[slot] = dims;
  }
}

void Windower::reset_window_state() {
  for (const std::uint32_t s : touched_) {
    slot_counts_[s] = 0;
    slot_dims_[s] = kDimsUnset;
    slot_conflict_[s] = kDimsUnset;
    double* row = sums_.data() + static_cast<std::size_t>(s) * stride_;
    std::fill(row, row + stride_, 0.0);
  }
  touched_.clear();
  pending_count_ = 0;
  window_dims_ = kDimsUnset;
  window_conflict_ = kDimsUnset;
  g_count_ = 0;
  gt_count_ = 0;
}

void Windower::finalize_into(ObservationSet& out) {
  flush_slot_gather();
  flush_total_gather();

  out.window_index = current_index_;
  out.window_start = window_seconds_ * static_cast<double>(current_index_ - 1);
  out.window_end = window_seconds_ * static_cast<double>(current_index_);
  out.per_sensor.clear();
  out.cached_mean.clear();
  out.rep_sensors.clear();
  out.rep_sums.clear();
  out.rep_total.clear();
  if (!keep_raw_) out.raw.clear();
  // raw / rep_points are recycled element-wise below (clear() would free
  // every inner buffer and reintroduce per-window allocations).

  // Ascending sensor order -- the order the legacy std::map iteration gave.
  std::sort(touched_.begin(), touched_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return slot_ids_[a] < slot_ids_[b]; });

  // Legacy throw order: the lowest sensor id whose own samples disagree in
  // width throws first (vecn::mean over that group)...
  for (const std::uint32_t s : touched_) {
    if (slot_conflict_[s] != kDimsUnset) {
      const std::uint32_t have = slot_dims_[s];
      const std::uint32_t got = slot_conflict_[s];
      reset_window_state();
      throw_dims_mismatch(have, got);
    }
  }

  const std::size_t n_sensors = touched_.size();
  if (out.rep_points.size() > n_sensors) out.rep_points.resize(n_sensors);
  out.rep_sensors.reserve(n_sensors);
  out.rep_sums.reserve(n_sensors);
  for (std::size_t j = 0; j < n_sensors; ++j) {
    const std::uint32_t s = touched_[j];
    const double* row = sums_.data() + static_cast<std::size_t>(s) * stride_;
    const std::size_t dims = slot_dims_[s];
    const double inv = 1.0 / static_cast<double>(slot_counts_[s]);
    if (j == out.rep_points.size()) out.rep_points.emplace_back();
    AttrVec& rep = out.rep_points[j];
    rep.resize(dims);
    for (std::size_t i = 0; i < dims; ++i) rep[i] = row[i] * inv;
    out.rep_sensors.push_back(slot_ids_[s]);
    if (keep_raw_) out.per_sensor.emplace(slot_ids_[s], rep);
    out.rep_sums.push_back(vecn::scalar_sum(rep));
    if (out.rep_total.empty()) out.rep_total.assign(rep.size(), 0.0);
    for (std::size_t a = 0; a < out.rep_total.size() && a < rep.size(); ++a) {
      out.rep_total[a] += rep[a];
    }
  }

  if (pending_count_ > 0) {
    // ...then a window whose records disagree with its first record's width
    // (vecn::mean_into over raw).
    if (window_conflict_ != kDimsUnset) {
      const std::uint32_t have = window_dims_;
      const std::uint32_t got = window_conflict_;
      reset_window_state();
      throw_dims_mismatch(have, got);
    }
    const double inv = 1.0 / static_cast<double>(pending_count_);
    out.cached_mean.resize(window_dims_);
    for (std::size_t i = 0; i < window_dims_; ++i) out.cached_mean[i] = total_[i] * inv;
  }

  if (keep_raw_) {
    if (out.raw.size() > pending_count_) out.raw.resize(pending_count_);
    for (std::size_t i = 0; i < pending_count_; ++i) {
      if (i == out.raw.size()) out.raw.emplace_back();
      const AttrVec& a = pending_log_[i].attrs;
      out.raw[i].assign(a.begin(), a.end());
    }
  }

  reset_window_state();
}

std::vector<ObservationSet> Windower::add(const SensorRecord& rec) {
  std::vector<ObservationSet> completed;
  add(rec, [&completed](ObservationSet&& w) { completed.push_back(std::move(w)); });
  return completed;
}

std::optional<ObservationSet> Windower::flush() {
  if (current_index_ == 0 || pending_count_ == 0) return std::nullopt;
  ObservationSet set;
  finalize_into(set);  // resets to an empty window at the same index
  return set;
}

void Windower::save(serialize::Writer& w) const {
  serialize::tag(w, "windower");
  serialize::put(w, current_index_);
  serialize::put(w, late_records_);
  serialize::put(w, clamped_records_);
  serialize::put(w, pending_count_);
  for (std::size_t i = 0; i < pending_count_; ++i) {
    const SensorRecord& rec = pending_log_[i];
    serialize::put(w, rec.sensor);
    serialize::put(w, rec.time);
    serialize::put_vector(w, rec.attrs);
  }
}

void Windower::load(serialize::Reader& r) {
  serialize::expect(r, "windower");
  current_index_ = serialize::get<std::size_t>(r);
  late_records_ = serialize::get<std::size_t>(r);
  clamped_records_ = serialize::get<std::size_t>(r);
  const auto n = serialize::get<std::size_t>(r);
  if (n > (1u << 26)) throw std::runtime_error("checkpoint: implausible pending-record count");
  reset_window_state();
  pending_log_.clear();
  pending_log_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SensorRecord rec;
    rec.sensor = serialize::get<SensorId>(r);
    rec.time = serialize::get<double>(r);
    rec.attrs = serialize::get_vector<double>(r);
    pending_log_.push_back(std::move(rec));
  }
  // Rebuild the columnar accumulators by replaying the log (the counters
  // above were restored from the stream; replay must not re-count).
  pending_count_ = n;
  for (std::size_t i = 0; i < n; ++i) accumulate_entry(pending_log_[i]);
  flush_slot_gather();
  flush_total_gather();
}

std::vector<ObservationSet> window_trace(std::vector<SensorRecord> records,
                                         double window_seconds) {
  std::stable_sort(records.begin(), records.end(),
                   [](const SensorRecord& a, const SensorRecord& b) { return a.time < b.time; });
  Windower w(window_seconds);
  std::vector<ObservationSet> out;
  for (const auto& rec : records) {
    auto done = w.add(rec);
    out.insert(out.end(), std::make_move_iterator(done.begin()),
               std::make_move_iterator(done.end()));
  }
  if (auto last = w.flush()) out.push_back(std::move(*last));
  return out;
}

}  // namespace sentinel
