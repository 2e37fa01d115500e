// Resident fleet service: a localhost TCP listener that keeps one
// FleetMonitor alive across connections -- the run-forever refactor of the
// batch entry points (see docs/SERVICE.md for the protocol and tenant
// model).
//
// Threading model (docs/CONCURRENCY.md#service): one thread -- the one in
// run(), or start()'s background thread -- owns the fleet. It polls the
// listen socket, a wake pipe and every connection, and handles each
// complete frame in place, so the fleet's single-producer contract holds
// with no lock: per-region record order is each connection's send order,
// and any interleaving of tenants yields the same per-region report bytes
// as ingest_file of the same records (test-enforced). Replies leave through
// non-blocking sends; a connection with unsent reply bytes is polled for
// writability only, so a peer that stops reading stalls itself alone, at
// the cost of one socket buffer. Incremental checkpoints every
// checkpoint_interval_seconds ride on the poll timeout.
//
// Shutdown (request_stop(), a kShutdown frame, or a signal handler calling
// request_stop(), which is async-signal-safe) leaves the loop, closes every
// connection, drains all shards, and commits a final checkpoint -- so a
// restart with ServerConfig::resume continues bit-identically (chaos-tested,
// SIGKILL included).

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "service/frame.h"
#include "trace/record.h"

namespace sentinel::service {

struct ServerConfig {
  /// Port to bind on 127.0.0.1; 0 = ephemeral (read the choice via port()).
  std::uint16_t port = 0;
  /// The resident fleet (threads, queue bounds, checkpoint_dir, cadence).
  core::FleetConfig fleet;
  /// Per-tenant region configuration: every region a HELLO binds is created
  /// from this one config, so all tenants run the same detection parameters
  /// (initial states included -- which is what makes a served region's
  /// report comparable against a batch run of the same trace).
  core::PipelineConfig region;
  /// Restore regions from fleet.checkpoint_dir's last committed epoch at
  /// HELLO time (serve --resume). The HELLO ack tells the client how many
  /// records the restored state already covers.
  bool resume = false;
  /// Commit incremental checkpoints this often, idle or not (0 = record
  /// cadence only via FleetConfig::checkpoint_every_records).
  double checkpoint_interval_seconds = 0.0;
  /// Upper bound on records per kRecords frame (admission sanity check).
  std::size_t max_frame_records = 1u << 16;
};

class Server {
 public:
  /// Binds and listens; throws std::runtime_error when the socket cannot be
  /// set up (port in use, no loopback).
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral choice when cfg.port was 0).
  std::uint16_t port() const { return port_; }

  /// The poll loop; blocks until a shutdown is requested, then closes the
  /// connections, drains the fleet, and commits the final checkpoint.
  void run();

  /// run() on a background thread (tests, benches, the in-process chaos
  /// child). Pair with stop().
  void start();

  /// Request shutdown and, when start() was used, join the background
  /// thread. Safe to call more than once.
  void stop();

  /// Async-signal-safe shutdown request: sets the stop flag and pokes the
  /// poll loop's wake pipe. The loop does the actual teardown.
  void request_stop();

  bool stopped() const { return stopped_.load(); }

  /// The resident fleet -- test/bench access; the loop thread owns it, so
  /// external callers must not touch it while the server runs.
  core::FleetMonitor& fleet() { return fleet_; }

 private:
  /// One client connection: plain state, touched only by the loop thread.
  struct Conn {
    int fd = -1;
    FrameDecoder in;
    std::vector<unsigned char> out;  // encoded replies; out[0, sent) are on the wire
    std::size_t sent = 0;
    std::string region;  // bound by HELLO; empty until then
    std::size_t dims = 0;  // fixed at HELLO
    std::uint64_t expected_seq = 0;
    bool health_reported = false;
    bool closing = false;  // protocol violation: drop once `out` is sent
  };

  void accept_connections();
  /// Act on a connection poll found ready; false once it must be dropped.
  bool serve(Conn& c);
  /// Handle buffered frames until one leaves a reply unsent (or none is left).
  bool handle_frames(Conn& c);
  /// Non-blocking send of `c.out`; false when the peer is gone.
  bool send_pending(Conn& c);
  void handle_frame(Conn& c, const FrameView& f);
  void handle_hello(Conn& c, const FrameView& f);
  void handle_records(Conn& c, const FrameView& f);
  void handle_report(Conn& c, const FrameView& f);
  void handle_metrics(Conn& c);
  void handle_health(Conn& c);

  ServerConfig cfg_;
  core::FleetMonitor fleet_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_r_ = -1;  // poll-loop wake pipe (request_stop writes wake_w_)
  int wake_w_ = -1;

  std::vector<Conn> conns_;
  /// RECORDS frames decode into this one buffer (recycled: its records keep
  /// their attribute storage) before fleet_.add_records.
  std::vector<SensorRecord> batch_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};

  std::thread run_thread_;  // only when start() was used
};

}  // namespace sentinel::service
