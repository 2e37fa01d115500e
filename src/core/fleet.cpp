#include "core/fleet.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/checkpoint_store.h"
#include "trace/trace_reader.h"
#include "util/serialize.h"
#include "util/fault_test.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/vecn.h"

namespace sentinel::core {

namespace {

/// Every state of `a` has a counterpart in `b` within tol.
bool covered_by(const hmm::MarkovChain& a, const CentroidLookup& lookup_a,
                const hmm::MarkovChain& b, const CentroidLookup& lookup_b, double tol) {
  for (const auto id_a : a.states()) {
    const auto ca = lookup_a(id_a);
    if (!ca) return false;
    bool matched = false;
    for (const auto id_b : b.states()) {
      const auto cb = lookup_b(id_b);
      if (cb && vecn::dist(*ca, *cb) <= tol) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

int verdict_rank(Verdict v) {
  switch (v) {
    case Verdict::kNormal: return 0;
    case Verdict::kError: return 1;
    case Verdict::kAttack: return 2;
  }
  return 0;
}

/// Records one shard FIFO entry stands for: a batch's length, or a window's
/// sensor count (the weight add_window bills).
std::size_t weight_of(std::span<const SensorRecord> recs) { return recs.size(); }
std::size_t weight_of(const RecordBatch& batch) { return batch.size(); }
std::size_t weight_of(const ObservationSet& window) { return window.sensor_count(); }

/// Close `p`'s partial window, returning a throw instead of propagating it.
std::exception_ptr finish_pipeline(DetectionPipeline& p) {
  try {
    p.finish();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// Human-readable message of a captured exception, for attributed statuses.
std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

bool models_structurally_similar(const hmm::MarkovChain& a, const CentroidLookup& lookup_a,
                                 const hmm::MarkovChain& b, const CentroidLookup& lookup_b,
                                 double tol) {
  return covered_by(a, lookup_a, b, lookup_b, tol) && covered_by(b, lookup_b, a, lookup_a, tol);
}

const char* to_string(RegionHealth h) {
  switch (h) {
    case RegionHealth::kHealthy: return "healthy";
    case RegionHealth::kDegraded: return "degraded";
    case RegionHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string to_string(const FleetReport& r) {
  std::ostringstream os;
  os << "fleet: " << to_string(r.overall) << '\n';
  for (const auto& [name, report] : r.regions) {
    os << "[region " << name << "] " << to_string(report.network) << '\n';
    for (const auto& [id, d] : report.sensors) {
      os << "[region " << name << "] sensor " << id << ": " << to_string(d) << '\n';
    }
  }
  if (!r.structural_outliers.empty()) {
    os << "structural outliers:";
    for (const auto& name : r.structural_outliers) os << ' ' << name;
    os << '\n';
  }
  // Screen-tier lines only for regions that screen: an all-off fleet renders
  // byte-identically to a report predating the tier.
  if (!r.screens.empty()) {
    os << "screen tier:\n";
    for (const auto& [name, s] : r.screens) {
      os << "[region " << name << "] escalated " << s.escalated << "/" << s.sensors
         << ", sensor-windows screened " << s.screened_windows << " escalated "
         << s.escalated_windows << ", trips chi2 " << s.chi2_trips << " runs "
         << s.runs_trips << ", edges +" << s.escalations << " -" << s.deescalations
         << '\n';
    }
  }
  // Health lines only when something is off: an all-healthy fleet renders
  // byte-identically to a report predating the health lifecycle.
  bool any_unhealthy = false;
  for (const auto& [name, st] : r.health) {
    if (st.health != RegionHealth::kHealthy) any_unhealthy = true;
  }
  if (any_unhealthy) {
    os << "region health:\n";
    for (const auto& [name, st] : r.health) {
      os << "[region " << name << "] " << to_string(st.health);
      if (!st.status.is_ok()) os << ": " << st.status.to_string();
      os << " (ingested " << st.records_ingested << ", dropped " << st.records_dropped;
      if (st.malformed.total() > 0) os << ", " << to_string(st.malformed);
      os << ")\n";
    }
  }
  return os.str();
}

/// Per-region shard: one FIFO of record batches and windows in arrival
/// order, and the one place a fleet advances a region's pipeline (apply).
/// At threads > 1 the FIFO is drained by at most one pool task at a time
/// (`draining` guards task spawning), which is the single-writer invariant
/// the fleet relies on; at threads = 1 the caller applies its own span or
/// window in place and the FIFO stays empty. `producer` belongs to the
/// (single) producer thread: add_records appends columns to it, and it is
/// handed off under the lock once per FleetConfig::batch_records (or when a
/// record's width differs from the batch's). Batches circulate: the worker
/// clears each one it applied and returns it to `free_batches`, and a
/// handoff takes its replacement from there, so at steady state a handoff
/// allocates nothing and the free list never outgrows the batches that were
/// in flight at once. Workers never touch health_ directly: a failure is
/// parked in `error`/`dropped` under the lock and the producer folds it into
/// the region's health record (absorb_shard_faults) -- keeping every health
/// transition on the caller thread, hence deterministic at any thread count.
struct FleetMonitor::Shard {
  Shard(std::string region_name, DetectionPipeline& p)
      : name(std::move(region_name)), pipeline(&p) {}

  /// Run one record span or window through the pipeline. A throw parks the
  /// error, and every later item is dropped unapplied (the pipeline's state
  /// after a throw is unknown, so applying more would be worse). Dropped
  /// items count in `dropped` at their full weight -- accounting is item-
  /// granular. Returns false when the item was dropped. Only the thread
  /// currently applying writes `error`, so reading it here needs no lock.
  template <class Work>
  bool apply(const Work& work) {
    if (!error) {
      try {
        if constexpr (std::is_same_v<Work, ObservationSet>) {
          pipeline->process_window(work);
        } else {
          pipeline->add_records(work);
        }
        return true;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    dropped += weight_of(work);
    return false;
  }

  std::string name;
  RecordBatch producer;  // producer-thread-only
  std::mutex mu;
  std::condition_variable cv;  // queue shrank, drain finished, or error set
  // Whole producer batches and copied windows, in arrival order: a handoff
  // moves one batch, and the drain side feeds each batch to the pipeline's
  // columnar entry. queue_records counts the batches' records for
  // backpressure; windows are coarse and uncapped.
  using Fifo = std::vector<std::variant<RecordBatch, ObservationSet>>;
  Fifo queue;
  std::vector<RecordBatch> free_batches;  // applied batches, cleared (under mu)
  Fifo work;  // the queue as swapped out by the drain task (drain task only)
  std::size_t queue_records = 0;
  bool draining = false;     // a pool task owns this shard's pipeline
  std::exception_ptr error;  // first pipeline exception, folded into health
  std::size_t dropped = 0;   // accepted records discarded behind a failure
  DetectionPipeline* pipeline;
};

/// The checkpoint committer: a single dedicated thread that runs the
/// store's fsync/rename commit protocol so disk latency never blocks the
/// ingest (producer) thread. The producer serializes each snapshot itself
/// at a quiesced record boundary (commit_region_checkpoint) -- the bytes
/// crossing this queue are immutable, so the on-disk store always names a
/// checkpoint covering exactly the records the meta records. FIFO order
/// means epochs advance in enqueue order; the destructor drains whatever is
/// queued before joining, so fleet destruction implies full durability of
/// every snapshot taken.
struct FleetMonitor::Committer {
  struct Pending {
    std::string region;
    std::string bytes;  // serialized resumable checkpoint
    RegionCheckpointMeta meta;
  };

  explicit Committer(FleetMonitor& fleet) : fleet_(fleet), thread_([this] { run(); }) {}

  ~Committer() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv.notify_all();
    thread_.join();
  }

  void enqueue(Pending p) {
    {
      std::lock_guard<std::mutex> lk(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_all();
  }

  /// Block until every enqueued commit has reached disk (or failed).
  void drain() {
    std::unique_lock<std::mutex> lk(mu);
    drained.wait(lk, [this] { return queue.empty() && !busy; });
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv.wait(lk, [this] { return stop || !queue.empty(); });
      if (queue.empty()) {
        if (stop) return;  // drained: nothing left to make durable
        continue;
      }
      Pending p = std::move(queue.front());
      queue.pop_front();
      busy = true;
      lk.unlock();
      const util::Status s = fleet_.store_->commit_region_bytes(p.region, p.bytes, p.meta);
      if (s.is_ok()) {
        fleet_.m_ckpt_commits_->inc();
        fleet_.m_ckpt_bytes_->add(p.meta.bytes);
      } else {
        // An I/O failure, not a region-health event: the previously
        // committed epoch still stands and detection continues.
        fleet_.m_ckpt_failures_->inc();
      }
      lk.lock();
      busy = false;
      if (queue.empty()) drained.notify_all();
    }
  }

  FleetMonitor& fleet_;
  std::mutex mu;
  std::condition_variable cv;       // work arrived or stop requested
  std::condition_variable drained;  // queue empty and no commit in flight
  std::deque<Pending> queue;
  bool stop = false;
  bool busy = false;  // a commit is between unlock and relock
  std::thread thread_;  // last member: starts only after the state above exists
};

FleetMonitor::FleetMonitor(FleetConfig cfg) : cfg_(cfg) {
  if (!(cfg_.state_match_tol > 0.0)) {
    throw std::invalid_argument("FleetMonitor: tolerance must be positive");
  }
  if (cfg_.max_queue_records == 0) {
    throw std::invalid_argument("FleetMonitor: max_queue_records must be >= 1");
  }
  if (cfg_.batch_records == 0) {
    throw std::invalid_argument("FleetMonitor: batch_records must be >= 1");
  }
  const auto& h = cfg_.health;
  if (!(h.degraded_malformed_ratio >= 0.0) || !(h.quarantine_malformed_ratio >= 0.0) ||
      h.degraded_malformed_ratio > 1.0 || h.quarantine_malformed_ratio > 1.0 ||
      h.degraded_malformed_ratio > h.quarantine_malformed_ratio) {
    throw std::invalid_argument(
        "FleetMonitor: malformed ratios must satisfy 0 <= degraded <= quarantine <= 1");
  }
  pool_ = std::make_unique<util::ThreadPool>(cfg_.threads);  // 0 = default_concurrency()
  cfg_.threads = pool_->size();
  if (!cfg_.checkpoint_dir.empty()) {
    store_ = std::make_unique<CheckpointStore>(cfg_.checkpoint_dir);
    committer_ = std::make_unique<Committer>(*this);
  }

  auto& reg = util::metrics();
  m_enqueued_ = &reg.counter("fleet.records_enqueued");
  m_windows_ = &reg.counter("fleet.windows_ingested");
  m_handoffs_ = &reg.counter("fleet.handoff_batches");
  m_backpressure_ = &reg.counter("fleet.backpressure_waits");
  m_backpressure_ns_ = &reg.counter("fleet.backpressure_block_ns");
  m_snapshots_ = &reg.counter("fleet.report_snapshots");
  m_drained_ = &reg.counter("fleet.records_drained");
  m_drain_batches_ = &reg.counter("fleet.drain_batches");
  m_dropped_ = &reg.counter("fleet.records_dropped_quarantined");
  m_ckpt_commits_ = &reg.counter("fleet.checkpoint_commits");
  m_ckpt_failures_ = &reg.counter("fleet.checkpoint_failures");
  m_ckpt_bytes_ = &reg.counter("fleet.checkpoint_bytes");
  m_queue_depth_ = &reg.histogram("fleet.queue_depth",
                                  util::Histogram::exponential_bounds(64, 2.0, 10));
}

namespace {
FleetConfig serial_fleet_config(double state_match_tol) {
  FleetConfig c;
  c.state_match_tol = state_match_tol;
  c.threads = 1;
  return c;
}
}  // namespace

FleetMonitor::FleetMonitor(double state_match_tol)
    : FleetMonitor(serial_fleet_config(state_match_tol)) {}

// Out of line so ~unique_ptr<Shard>/~unique_ptr<Committer> see the complete
// types. Members destroy in reverse declaration order: committer_ first
// among the moving parts (drains queued checkpoint commits and joins while
// store_ is still alive), then store_, then pool_ (drains pending shard
// tasks and joins the workers while regions_/shards_ are still alive).
FleetMonitor::~FleetMonitor() = default;

void FleetMonitor::register_shard(const std::string& name, DetectionPipeline& pipeline) {
  shards_.emplace(name, std::make_unique<Shard>(name, pipeline));
}

void FleetMonitor::add_region(const std::string& name, PipelineConfig cfg) {
  const auto [it, inserted] = regions_.try_emplace(name, std::move(cfg));
  if (!inserted) throw std::invalid_argument("FleetMonitor: duplicate region " + name);
  health_.emplace(name, RegionState{});
  register_shard(name, it->second);
}

void FleetMonitor::add_region(const std::string& name, PipelineConfig cfg,
                              std::istream& checkpoint) {
  const auto [it, inserted] = regions_.try_emplace(name, std::move(cfg), checkpoint);
  if (!inserted) throw std::invalid_argument("FleetMonitor: duplicate region " + name);
  health_.emplace(name, RegionState{});
  register_shard(name, it->second);
}

util::Result<std::uint64_t> FleetMonitor::add_region_resumed(const std::string& name,
                                                             PipelineConfig cfg) {
  if (!store_) {
    throw std::invalid_argument("FleetMonitor: add_region_resumed requires checkpoint_dir");
  }
  if (regions_.count(name) > 0) {
    throw std::invalid_argument("FleetMonitor: duplicate region " + name);
  }
  auto manifest = store_->load_manifest();
  if (!manifest.is_ok()) {
    if (manifest.status().code() == util::StatusCode::kNotFound) {
      add_region(name, std::move(cfg));  // nothing ever committed: fresh start
      return std::uint64_t{0};
    }
    return manifest.status();  // torn/corrupt manifest: create nothing
  }
  const auto it = manifest->regions.find(name);
  if (it == manifest->regions.end()) {
    add_region(name, std::move(cfg));  // region never checkpointed: fresh start
    return std::uint64_t{0};
  }
  const RegionCheckpointMeta& meta = it->second;
  std::string bytes;
  if (util::Status s = store_->read_region(meta, bytes); !s.is_ok()) return s;
  std::istringstream checkpoint(bytes);
  try {
    add_region(name, std::move(cfg), checkpoint);
  } catch (const std::exception& e) {
    // Passed its checksum but the codec rejected it: config or format drift.
    // Nothing was inserted (the pipeline constructor threw), so surface as
    // data rather than leaving a half-restored region behind.
    return util::Status(util::StatusCode::kDataLoss,
                        "region " + name + ": checkpoint restore failed: " + e.what());
  }
  RegionState& st = state_of(name);
  st.health = meta.health;
  st.status = meta.status;
  st.records_ingested = meta.records_applied;
  st.records_dropped = meta.records_dropped;
  st.malformed = meta.malformed;
  st.comment_lines = meta.comment_lines;
  ckpt_anchor_[name] = meta.records_applied;
  return std::uint64_t{meta.records_applied};
}

RegionState& FleetMonitor::state_of(const std::string& name) const {
  const auto it = health_.find(name);
  if (it == health_.end()) throw std::invalid_argument("FleetMonitor: unknown region " + name);
  return it->second;
}

const RegionState& FleetMonitor::region_health(const std::string& name) const {
  return state_of(name);
}

void FleetMonitor::quarantine(const std::string& name, util::Status status,
                              std::exception_ptr error) const {
  RegionState& st = state_of(name);
  if (st.health == RegionHealth::kQuarantined) return;  // keep the first cause
  st.health = RegionHealth::kQuarantined;
  st.status = std::move(status);
  st.error = std::move(error);
}

void FleetMonitor::degrade(const std::string& name, util::Status status) const {
  RegionState& st = state_of(name);
  if (st.health != RegionHealth::kHealthy) return;  // monotonic, keep first cause
  st.health = RegionHealth::kDegraded;
  st.status = std::move(status);
}

void FleetMonitor::absorb_shard_faults() const {
  for (const auto& [name, shard] : shards_) {
    Shard& sh = *shard;
    std::exception_ptr err;
    std::size_t dropped = 0;
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      err = sh.error;
      dropped = sh.dropped;
      sh.dropped = 0;
    }
    RegionState& st = state_of(name);
    if (dropped > 0) {
      // Parked drops were accepted (counted ingested) before they were
      // discarded: move them over, so ingested + dropped == offered.
      st.records_ingested -= dropped;
      st.records_dropped += dropped;
      m_dropped_->add(dropped);
    }
    if (err && st.health != RegionHealth::kQuarantined) {
      quarantine(name,
                 util::Status(util::StatusCode::kInternal,
                              "region " + name + ": pipeline failed: " + describe(err)),
                 err);
    }
  }
}

FleetMonitor::Shard& FleetMonitor::shard_of(const std::string& region) const {
  return *shards_.find(region)->second;
}

void FleetMonitor::add_record(const std::string& region, const SensorRecord& rec) {
  add_records(region, std::span<const SensorRecord>(&rec, 1));
}

void FleetMonitor::add_records(const std::string& region, std::span<const SensorRecord> recs) {
  if (recs.empty()) return;
  RegionState& st = state_of(region);  // throws on unknown region
  if (st.health == RegionHealth::kQuarantined) {
    st.records_dropped += recs.size();
    m_dropped_->add(recs.size());
    return;
  }
  Shard& sh = shard_of(region);
  st.records_ingested += recs.size();
  if (cfg_.threads == 1) {
    // The shard drained inline: one fused pass over the caller's own span,
    // no copy and no handoff.
    if (!sh.apply(recs)) absorb_shard_faults();
  } else {
    // Append columns to the producer batch. A record of a different width
    // closes the batch first, so the pipeline sees the same sequence (and
    // raises the same dimension-mismatch errors) as at threads = 1.
    for (std::size_t done = sh.producer.append(recs); done < recs.size();
         done += sh.producer.append(recs.subspan(done))) {
      flush_shard(sh);
    }
    if (sh.producer.size() >= cfg_.batch_records) flush_shard(sh);
  }
  maybe_checkpoint(region, st);
}

void FleetMonitor::add_window(const std::string& region, const ObservationSet& window) {
  RegionState& st = state_of(region);  // throws on unknown region
  const std::size_t weight = window.sensor_count();
  if (st.health == RegionHealth::kQuarantined) {
    st.records_dropped += weight;
    m_dropped_->add(weight);
    return;
  }
  m_windows_->inc();
  Shard& sh = shard_of(region);
  st.records_ingested += weight;
  if (cfg_.threads == 1) {
    if (!sh.apply(window)) absorb_shard_faults();  // in place, no copy
  } else {
    flush_shard(sh, &window);
  }
  maybe_checkpoint(region, st);
}

void FleetMonitor::maybe_checkpoint(const std::string& region, RegionState& st) {
  if (!store_ || cfg_.checkpoint_every_records == 0) return;
  if (st.health == RegionHealth::kQuarantined) return;
  if (st.records_ingested - ckpt_anchor_[region] < cfg_.checkpoint_every_records) return;
  commit_region_checkpoint(region, st);
}

void FleetMonitor::commit_region_checkpoint(const std::string& region, RegionState& st) {
  SENTINEL_FAULT_POINT(util::fault::kCheckpointBegin);
  // Quiesce this region's shard first: the pipeline must be at a record
  // boundary and untouched by workers while it serializes (the single-writer
  // invariant), and a resumed run replays from exactly records_ingested.
  quiesce(shard_of(region));
  if (st.health == RegionHealth::kQuarantined) return;  // suspect state: never persisted
  Committer::Pending p;
  p.region = region;
  p.meta.records_applied = st.records_ingested;
  p.meta.health = st.health;
  p.meta.status = st.status;
  p.meta.records_dropped = st.records_dropped;
  p.meta.malformed = st.malformed;
  p.meta.comment_lines = st.comment_lines;
  const DetectionPipeline& rp = regions_.find(region)->second;
  if (rp.screens() != nullptr) p.meta.escalated_sensors = rp.screen_stats().escalated;
  // Snapshot here, on the producer thread, while the region is quiescent:
  // the committer only ever sees immutable bytes, never the live pipeline.
  std::ostringstream os;
  regions_.find(region)->second.save_checkpoint(os, serialize::Format::kBinary,
                                                CheckpointScope::kResumable);
  p.bytes = os.str();
  // Anchor advances at snapshot time, not commit time: the interval clock
  // restarts even if this commit later fails on disk (the next cadence
  // simply takes a fresh snapshot; the previous epoch still stands).
  ckpt_anchor_[region] = st.records_ingested;
  committer_->enqueue(std::move(p));
}

void FleetMonitor::checkpoint_now() {
  if (!store_) return;
  for (auto& [name, st] : health_) commit_region_checkpoint(name, st);
  committer_->drain();  // on return the store names these snapshots
}

FleetMonitor::IngestSummary FleetMonitor::ingest(const std::string& region, TraceReader& reader,
                                                 std::size_t batch_records,
                                                 std::size_t skip_records) {
  if (batch_records == 0) batch_records = TraceReader::kDefaultBatch;
  RegionState& st = state_of(region);  // throws on unknown region
  IngestSummary sum;
  std::vector<SensorRecord> batch;
  const MalformedCounts before = st.malformed;
  const std::size_t comment_base = st.comment_lines;
  const std::uint64_t block_base = st.backpressure_block_ns;

  // Resume: fast-forward past the prefix the restored checkpoint already
  // covers. The reader's malformed/comment tallies over that prefix are
  // captured here and subtracted at the end -- the restored RegionState
  // already accounts for them -- while the rate check below keeps using the
  // reader's running totals plus `skipped`, so a resumed run condemns a bad
  // feed at exactly the same point an uninterrupted one would.
  std::size_t skipped = 0;
  MalformedCounts skip_malformed;
  std::size_t skip_comments = 0;
  if (skip_records > 0 && st.health != RegionHealth::kQuarantined) {
    try {
      skipped = reader.skip_records(skip_records);
    } catch (...) {
      const auto err = std::current_exception();
      quarantine(region,
                 util::Status(util::StatusCode::kDataLoss,
                              "region " + region + ": reader failed: " + describe(err)),
                 err);
    }
    skip_malformed = reader.malformed();
    skip_comments = reader.comment_lines();
    if (skipped < skip_records && st.health != RegionHealth::kQuarantined) {
      quarantine(region,
                 util::Status(util::StatusCode::kDataLoss,
                              "region " + region + ": trace shorter than its checkpoint: " +
                                  "resume skip wanted " + std::to_string(skip_records) +
                                  " records, trace held " + std::to_string(skipped)),
                 nullptr);
    }
  }
  for (;;) {
    if (st.health == RegionHealth::kQuarantined) break;
    std::size_t n = 0;
    try {
      n = reader.read_batch(batch, batch_records);
    } catch (...) {
      const auto err = std::current_exception();
      quarantine(region,
                 util::Status(util::StatusCode::kDataLoss,
                              "region " + region + ": reader failed: " + describe(err)),
                 err);
      break;
    }
    if (n > 0) {
      // Fold the reader's running tallies in *before* applying the records:
      // a checkpoint committed inside add_records must snapshot malformed /
      // comment accounting consistent with records_ingested, or a resumed
      // run under-counts the skipped prefix.
      st.malformed = before;
      st.malformed += reader.malformed() - skip_malformed;
      st.comment_lines = comment_base + (reader.comment_lines() - skip_comments);
      add_records(region, batch);
      sum.records += n;
      SENTINEL_FAULT_POINT(util::fault::kIngestBatch);
    }

    // Malformed-rate check per batch so a hostile feed is cut off early
    // instead of after millions of lines. Rates only count once the sample
    // is large enough to mean something. Checked even on the final empty
    // batch: a feed whose entire tail (or entirety) is malformed reaches
    // EOF with n == 0 and must still be condemned by rate, not merely
    // flagged as silent at finish().
    const std::size_t mal = reader.malformed().total();
    const std::size_t lines = skipped + sum.records + mal;
    if (mal > 0 && lines >= cfg_.health.min_lines_for_rate) {
      const double ratio = static_cast<double>(mal) / static_cast<double>(lines);
      if (ratio >= cfg_.health.quarantine_malformed_ratio) {
        quarantine(region,
                   util::Status(util::StatusCode::kDataLoss,
                                "region " + region + ": malformed-line rate too high: " +
                                    to_string(reader.malformed()) + " in " +
                                    std::to_string(lines) + " lines"),
                   nullptr);
        break;
      }
      if (ratio >= cfg_.health.degraded_malformed_ratio) {
        degrade(region,
                util::Status(util::StatusCode::kDataLoss,
                             "region " + region + ": elevated malformed-line rate: " +
                                 to_string(reader.malformed()) + " in " +
                                 std::to_string(lines) + " lines"));
      }
    }
    if (n == 0) break;
  }
  // A broken source (truncated binary payload, mid-stream read error) ends
  // the feed with a sticky reader status; the region's learned state only
  // covers an unknown prefix, so it stops voting.
  const util::Status rs = reader.status();
  if (!rs.is_ok() && st.health != RegionHealth::kQuarantined) {
    quarantine(region, util::Status(rs.code(), "region " + region + ": " + rs.message()),
               nullptr);
  }
  st.malformed = before;
  st.malformed += reader.malformed() - skip_malformed;
  st.comment_lines = comment_base + (reader.comment_lines() - skip_comments);
  sum.status = st.status;
  sum.backpressure_block_ns = st.backpressure_block_ns - block_base;
  return sum;
}

FleetMonitor::IngestSummary FleetMonitor::ingest_file(const std::string& region,
                                                      const std::string& path,
                                                      std::size_t expected_dims,
                                                      std::size_t skip_records) {
  state_of(region);  // unknown region is caller misuse: throw before touching the file
  std::unique_ptr<TraceReader> reader;
  try {
    reader = open_trace_reader(path, expected_dims);
  } catch (...) {
    const auto err = std::current_exception();
    quarantine(region,
               util::Status(util::StatusCode::kInvalidArgument,
                            "region " + region + ": cannot open trace: " + describe(err)),
               err);
    IngestSummary sum;
    sum.status = state_of(region).status;
    return sum;
  }
  return ingest(region, *reader, 0, skip_records);
}

/// Hand the producer batch -- then `window`, if given, behind it -- to the
/// shard's FIFO and make sure a drain task is (or will be) running. Called
/// by the producer thread only. A parked worker error makes this a
/// drop-and-fold instead of a handoff.
void FleetMonitor::flush_shard(Shard& sh, const ObservationSet* window) const {
  const std::size_t nbuf = sh.producer.size();
  if (nbuf == 0 && window == nullptr) return;
  std::optional<ObservationSet> copy;
  if (window != nullptr) copy.emplace(*window);  // copied outside the lock
  bool start_drain = false;
  bool failed = false;
  {
    std::unique_lock<std::mutex> lock(sh.mu);
    if (nbuf > 0 && !sh.error) {
      // Backpressure: block while the region's queue is at capacity
      // (records, not batches). A full queue is a documented-healthy state
      // (the producer simply outran the pipeline), counted -- and the block
      // attributed to this region by duration -- so operators can size
      // max_queue_records and a service front end can bill the stall to the
      // tenant that caused it.
      if (sh.queue_records >= cfg_.max_queue_records) {
        m_backpressure_->inc();
        RegionState& st = state_of(sh.name);
        ++st.backpressure_waits;
        const auto t0 = std::chrono::steady_clock::now();
        sh.cv.wait(lock, [&] { return sh.queue_records < cfg_.max_queue_records || sh.error; });
        const auto blocked = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        st.backpressure_block_ns += blocked;
        m_backpressure_ns_->add(blocked);
      }
    }
    if (sh.error) {
      sh.dropped += nbuf + (copy ? weight_of(*copy) : 0);
      failed = true;
    } else {
      if (nbuf > 0) {
        // Whole-batch handoff: the batch moves into the FIFO and a recycled
        // one (if any) takes its place -- no per-record copies, and no
        // allocation once the shard's batches are circulating.
        sh.queue.emplace_back(std::move(sh.producer));
        if (!sh.free_batches.empty()) {
          sh.producer = std::move(sh.free_batches.back());
          sh.free_batches.pop_back();
        }
        sh.queue_records += nbuf;
        m_queue_depth_->record(sh.queue_records);
      }
      if (copy) sh.queue.emplace_back(std::move(*copy));
      if (!sh.draining) {
        sh.draining = true;
        start_drain = true;
      }
    }
  }
  if (nbuf > 0) {
    m_handoffs_->inc();
    if (!failed) m_enqueued_->add(nbuf);
    sh.producer.clear();
  }
  if (start_drain) {
    pool_->post([this, &sh] { drain_shard(sh); });
  }
  if (failed) absorb_shard_faults();
}

void FleetMonitor::drain_shard(Shard& sh) const {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(sh.mu);
      if (sh.queue.empty()) {
        sh.draining = false;
        sh.cv.notify_all();
        return;
      }
      sh.work.swap(sh.queue);  // the queue takes the (empty) spare's capacity
      sh.queue_records = 0;
    }
    sh.cv.notify_all();  // queue emptied; unblock backpressured producers
    // Arrival order, so the record sequence (hence the report) is identical
    // to the threads = 1 path's. After a failure apply() only counts drops;
    // the counters cover exactly the items that were applied.
    bool any_applied = false;
    for (auto& item : sh.work) {
      const bool applied = std::visit([&sh](const auto& w) { return sh.apply(w); }, item);
      any_applied = any_applied || applied;
      if (auto* batch = std::get_if<RecordBatch>(&item)) {
        if (applied) m_drained_->add(batch->size());
        batch->clear();
        std::lock_guard<std::mutex> lock(sh.mu);
        sh.free_batches.push_back(std::move(*batch));
      }
    }
    sh.work.clear();  // frees window copies outside the lock
    if (!any_applied) continue;
    m_drain_batches_->inc();
    SENTINEL_FAULT_POINT(util::fault::kDrainBatch);
  }
}

void FleetMonitor::wait_shard(Shard& sh) const {
  std::unique_lock<std::mutex> lock(sh.mu);
  sh.cv.wait(lock, [&] { return !sh.draining && sh.queue.empty(); });
}

void FleetMonitor::quiesce(Shard& sh) const {
  flush_shard(sh);
  wait_shard(sh);
  absorb_shard_faults();
}

void FleetMonitor::drain() const {
  // Quiesce every shard, then fold worker faults into the health records.
  // Even when one region is poisoned, the caller must be able to inspect
  // the healthy regions after drain() returns -- no worker still running,
  // no exception escaping.
  for (const auto& [name, shard] : shards_) flush_shard(*shard);
  for (const auto& [name, shard] : shards_) wait_shard(*shard);
  absorb_shard_faults();
}

template <class Job, class Apply>
void FleetMonitor::for_each_region(Job job, Apply apply) const {
  using Result = std::invoke_result_t<Job&, const std::string&, DetectionPipeline&>;
  std::vector<std::pair<const std::string*, std::future<Result>>> jobs;
  jobs.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) {
    if (state_of(name).health == RegionHealth::kQuarantined) continue;
    DetectionPipeline& pipeline = *shard->pipeline;
    jobs.emplace_back(&name, pool_->submit([&job, &name, &pipeline] {
      return job(name, pipeline);
    }));
  }
  // Join everything first (no job may outlive a throwing one), then apply
  // outcomes in region-name order so the results are deterministic.
  for (auto& [name, fut] : jobs) fut.wait();
  for (auto& [name, fut] : jobs) apply(*name, fut.get());
}

void FleetMonitor::finished(const std::string& name, std::exception_ptr err) {
  if (err) {
    quarantine(name,
               util::Status(util::StatusCode::kInternal,
                            "region " + name + ": finish failed: " + describe(err)),
               err);
  }
  const RegionState& st = state_of(name);
  if (cfg_.health.flag_silent_regions && st.health == RegionHealth::kHealthy &&
      st.records_ingested == 0) {
    degrade(name, util::Status(util::StatusCode::kUnavailable,
                               "region " + name + ": no records ingested"));
  }
}

void FleetMonitor::finish() {
  drain();
  // Flush partial windows for live regions only; a quarantined pipeline's
  // state is suspect and is left untouched so healthy-region results match
  // a fleet that never contained it.
  for_each_region([](const std::string&, DetectionPipeline& p) { return finish_pipeline(p); },
                  [this](const std::string& name, std::exception_ptr err) {
                    finished(name, std::move(err));
                  });
}

FleetMonitor::FleetSnapshot FleetMonitor::report_snapshot() {
  // diagnose() drains, then reads each quiescent pipeline through const
  // accessors only -- no window closes, no model is finalized -- so the
  // fleet keeps ingesting afterwards as if the snapshot never happened.
  FleetSnapshot snap;
  snap.epoch = ++snapshot_epoch_;
  snap.report = diagnose();
  m_snapshots_->inc();
  return snap;
}

void FleetMonitor::finish_region(const std::string& name) {
  const RegionState& st = state_of(name);  // throws on unknown region
  Shard& sh = shard_of(name);
  quiesce(sh);
  finished(name, st.health == RegionHealth::kQuarantined ? nullptr : finish_pipeline(*sh.pipeline));
}

std::size_t FleetMonitor::queue_depth(const std::string& region) const {
  state_of(region);  // throws on unknown region
  Shard& sh = shard_of(region);
  const std::size_t buffered = sh.producer.size();  // producer-thread-only
  std::lock_guard<std::mutex> lock(sh.mu);
  return sh.queue_records + buffered;
}

DetectionPipeline& FleetMonitor::region(const std::string& name) {
  const auto it = regions_.find(name);
  if (it == regions_.end()) throw std::invalid_argument("FleetMonitor: unknown region " + name);
  return it->second;
}

const DetectionPipeline& FleetMonitor::region(const std::string& name) const {
  const auto it = regions_.find(name);
  if (it == regions_.end()) throw std::invalid_argument("FleetMonitor: unknown region " + name);
  return it->second;
}

std::vector<std::string> FleetMonitor::region_names() const {
  std::vector<std::string> out;
  out.reserve(regions_.size());
  for (const auto& [name, pipeline] : regions_) out.push_back(name);
  return out;
}

FleetReport FleetMonitor::diagnose() const {
  drain();
  FleetReport fleet;
  fleet.health = health_;
  // Quarantined regions are out: they neither report nor vote, so the
  // remaining entries are identical to a fleet that never held them. Each
  // job reads one quiescent pipeline through const accessors only.
  struct RegionDiag {
    DiagnosisReport report;
    hmm::MarkovChain model;
    std::optional<screen::ScreenStats> screen;  // screening regions only
  };
  std::map<std::string, hmm::MarkovChain> models;  // pruned M_C per live region
  for_each_region(
      [](const std::string&, const DetectionPipeline& p) {
        RegionDiag rd{p.diagnose(), p.correct_model(), std::nullopt};
        if (p.screens() != nullptr) rd.screen = p.screen_stats();
        return rd;
      },
      [&](const std::string& name, RegionDiag rd) {
        fleet.regions.emplace(name, std::move(rd.report));
        models.emplace(name, std::move(rd.model));
        if (rd.screen) fleet.screens.emplace(name, *rd.screen);
      });
  for (const auto& [name, report] : fleet.regions) {
    if (verdict_rank(report.network.verdict) > verdict_rank(fleet.overall)) {
      fleet.overall = report.network.verdict;
    }
    for (const auto& [id, d] : report.sensors) {
      if (verdict_rank(d.verdict) > verdict_rank(fleet.overall)) fleet.overall = d.verdict;
    }
  }

  // Cross-region structural check: a region is an outlier when it disagrees
  // with more than half of the other live regions. One job per region; each
  // job compares its region's model against every other (the O(regions^2)
  // part).
  if (models.size() < 3) return fleet;
  for_each_region(
      [&](const std::string& name, const DetectionPipeline& p) {
        std::size_t disagreements = 0, others = 0;
        for (const auto& [other_name, other_model] : models) {
          if (other_name == name) continue;
          ++others;
          if (!models_structurally_similar(models.at(name), p.centroid_lookup(), other_model,
                                           region(other_name).centroid_lookup(),
                                           cfg_.state_match_tol)) {
            ++disagreements;
          }
        }
        return others > 0 && 2 * disagreements > others;
      },
      [&](const std::string& name, bool outlier) {
        if (outlier) fleet.structural_outliers.push_back(name);
      });
  return fleet;
}

}  // namespace sentinel::core
