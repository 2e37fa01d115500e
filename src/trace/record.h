// Core trace types.
//
// The paper's data model (section 3.1): each sensor j periodically sends a
// message <t, p> to a single collector node, where p = <x_1, ..., x_n> is the
// vector of n environment attributes sampled at time t. SensorRecord is that
// message. Time is in seconds from the start of the deployment.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/vecn.h"

namespace sentinel {

using SensorId = std::uint32_t;

struct SensorRecord {
  SensorId sensor = 0;
  double time = 0.0;  // seconds since deployment start
  AttrVec attrs;      // <x_1, ..., x_n>

  bool operator==(const SensorRecord&) const = default;
};

/// A run of records in columnar form: sensor ids, times, and one flat
/// attribute array strided by `dims`, which is fixed for the whole batch.
/// This is what a fleet shard hands from its producer to its worker; the
/// columns keep their capacity across clear(), so a recycled batch refills
/// without touching the allocator.
struct RecordBatch {
  std::size_t dims = 0;  // attribute width of every record in the batch
  std::vector<SensorId> sensors;
  std::vector<double> times;
  std::vector<double> attrs;  // record i's attributes at [i * dims, (i + 1) * dims)

  std::size_t size() const { return sensors.size(); }
  bool empty() const { return sensors.empty(); }
  const double* attrs_of(std::size_t i) const { return attrs.data() + i * dims; }

  /// Append the longest prefix of `recs` whose attribute width matches the
  /// batch's (an empty batch takes the width of recs.front()). Returns how
  /// many records were appended; fewer than recs.size() means the next one
  /// is a different width and needs a batch of its own.
  std::size_t append(std::span<const SensorRecord> recs) {
    if (recs.empty()) return 0;
    if (empty()) dims = recs.front().attrs.size();
    std::size_t n = 0;
    while (n < recs.size() && recs[n].attrs.size() == dims) ++n;
    const std::size_t base = size();
    sensors.resize(base + n);
    times.resize(base + n);
    attrs.resize((base + n) * dims);
    double* dst = attrs.data() + base * dims;
    for (std::size_t i = 0; i < n; ++i, dst += dims) {
      const SensorRecord& rec = recs[i];
      sensors[base + i] = rec.sensor;
      times[base + i] = rec.time;
      std::copy(rec.attrs.begin(), rec.attrs.end(), dst);
    }
    return n;
  }

  /// Drop every record, keeping the columns' capacity.
  void clear() {
    dims = 0;
    sensors.clear();
    times.clear();
    attrs.clear();
  }
};

/// Names of the attribute dimensions (e.g. {"temperature", "humidity"}).
/// Purely descriptive; algorithms operate on indices.
struct AttrSchema {
  std::vector<std::string> names;

  std::size_t dims() const { return names.size(); }
};

/// The (temperature, humidity) schema used throughout the paper's evaluation.
inline AttrSchema gdi_schema() { return AttrSchema{{"temperature", "humidity"}}; }

/// Full multimodal mote schema (paper section 3.1 lists pressure too).
inline AttrSchema gdi_schema3() {
  return AttrSchema{{"temperature", "humidity", "pressure"}};
}

constexpr double kSecondsPerMinute = 60.0;
constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;

}  // namespace sentinel
