#include "service/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/report.h"
#include "trace/binary_trace.h"
#include "trace/trace_reader.h"
#include "util/metrics.h"

namespace sentinel::service {

namespace {

using Code = util::StatusCode;

/// Queue a kAck / kEvent reply on a connection's output.
void ack(std::vector<unsigned char>& out, Code code, std::uint64_t value = 0,
         std::string_view message = {}) {
  append_ack(out, FrameType::kAck, code, value, message);
}

void event(std::vector<unsigned char>& out, Code code, std::uint64_t value,
           std::string_view message) {
  append_ack(out, FrameType::kEvent, code, value, message);
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Per-region fleet state folded into the metrics document, mirroring what
/// the batch CLI injects for --metrics-json so an operator reads the same
/// names either way.
void inject_region_state(util::MetricsSnapshot& snap, const std::string& name,
                         const core::RegionState& st) {
  const std::string prefix = "fleet.region." + name + ".";
  snap.add_counter(prefix + "records_ingested", st.records_ingested);
  snap.add_counter(prefix + "records_dropped", st.records_dropped);
  snap.add_counter(prefix + "malformed_lines", st.malformed.total());
  snap.add_counter(prefix + "backpressure_waits", st.backpressure_waits);
  snap.add_counter(prefix + "backpressure_block_ns", st.backpressure_block_ns);
  snap.add_counter(prefix + "health",
                   static_cast<std::uint64_t>(st.health));
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), fleet_(cfg_.fleet) {
  int pipefd[2];
  // Non-blocking: a signal storm must never block request_stop() on a full pipe.
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("service: pipe() failed: " + std::string(std::strerror(errno)));
  }
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("service: socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    close_fd(listen_fd_);
    close_fd(wake_r_);
    close_fd(wake_w_);
    throw std::runtime_error("service: cannot listen on 127.0.0.1:" +
                             std::to_string(cfg_.port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  stop();
  close_fd(listen_fd_);
  close_fd(wake_r_);
  close_fd(wake_w_);
}

void Server::request_stop() {
  // Async-signal-safe: an atomic store and one write(2) on the wake pipe.
  stop_requested_.store(true);
  const unsigned char b = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_w_, &b, 1);
}

void Server::start() {
  run_thread_ = std::thread([this] { run(); });
}

void Server::stop() {
  request_stop();
  if (run_thread_.joinable()) run_thread_.join();
}

void Server::run() {
  using Clock = std::chrono::steady_clock;
  const bool timer = cfg_.checkpoint_interval_seconds > 0 && !cfg_.fleet.checkpoint_dir.empty();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg_.checkpoint_interval_seconds));
  auto next_checkpoint = Clock::now() + interval;

  std::vector<pollfd> fds;
  while (!stop_requested_.load()) {
    fds.assign({{listen_fd_, POLLIN, 0}, {wake_r_, POLLIN, 0}});
    for (const Conn& c : conns_) {
      // Unsent replies first: a peer that stops reading is not read from.
      fds.push_back({c.fd, static_cast<short>(c.out.empty() ? POLLIN : POLLOUT), 0});
    }
    // The checkpoint timer is the poll timeout, counted to its deadline.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(next_checkpoint - Clock::now());
    const int timeout_ms = timer ? static_cast<int>(std::max<std::int64_t>(left.count(), 0)) : -1;
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;
    if (stop_requested_.load()) break;
    if (timer && Clock::now() >= next_checkpoint) {
      fleet_.checkpoint_now();
      next_checkpoint = Clock::now() + interval;
    }
    if (rc <= 0) continue;

    for (std::size_t i = 0; i < conns_.size() && !stop_requested_.load(); ++i) {
      if (fds[i + 2].revents != 0 && !serve(conns_[i])) close_fd(conns_[i].fd);
    }
    std::erase_if(conns_, [](const Conn& c) { return c.fd < 0; });
    if ((fds[0].revents & POLLIN) != 0) accept_connections();
  }

  // Teardown: with no connection left the fleet has no producer; quiesce it
  // and commit the final checkpoint.
  for (Conn& c : conns_) close_fd(c.fd);
  conns_.clear();
  fleet_.drain();
  // checkpoint_now(), not finish(): the final checkpoint captures mid-window
  // state so a `serve --resume` restart continues the stream bit-identically
  // instead of restarting from a flushed boundary.
  fleet_.checkpoint_now();
  stopped_.store(true);
}

void Server::accept_connections() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN: none left (or a peer gone before accept)
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conns_.emplace_back().fd = fd;
  }
}

bool Server::serve(Conn& c) {
  if (!c.out.empty()) {
    // Polled for POLLOUT only; POLLHUP/POLLERR surface as a failed send.
    if (!send_pending(c)) return false;
    if (!c.out.empty()) return true;
    if (c.closing) return false;
    return handle_frames(c);  // frames that waited behind the reply
  }
  // Here no complete frame is buffered: handle_frames ran dry last time.
  const ssize_t n = ::recv(c.fd, c.in.prepare(kRecvChunk), kRecvChunk, 0);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  if (n == 0) return false;  // EOF; a partial frame dies with its peer
  c.in.commit(static_cast<std::size_t>(n));
  return handle_frames(c);
}

bool Server::handle_frames(Conn& c) {
  FrameView f;
  while (c.out.empty() && !stop_requested_.load()) {
    switch (c.in.next(f)) {
      case FrameDecoder::Next::kNeedMore:
        return true;
      case FrameDecoder::Next::kBadLength:
        return false;  // garbage length prefix: drop the peer
      case FrameDecoder::Next::kFrame:
        handle_frame(c, f);
        if (!send_pending(c)) return false;
        if (c.closing && c.out.empty()) return false;
        break;
    }
  }
  return true;
}

bool Server::send_pending(Conn& c) {
  while (c.sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.sent, c.out.size() - c.sent, MSG_NOSIGNAL);
    if (n > 0) {
      c.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  c.out.clear();
  c.sent = 0;
  return true;
}

void Server::handle_frame(Conn& c, const FrameView& f) {
  switch (f.type) {
    case FrameType::kHello:
      handle_hello(c, f);
      break;
    case FrameType::kRecords:
      if (c.region.empty()) {
        ack(c.out, Code::kFailedPrecondition, 0, "RECORDS before HELLO");
        c.closing = true;
      } else {
        handle_records(c, f);
      }
      break;
    case FrameType::kFlush:
      if (c.region.empty()) {
        ack(c.out, Code::kFailedPrecondition, 0, "FLUSH before HELLO");
      } else {
        ack(c.out, Code::kOk, fleet_.region_health(c.region).records_ingested);
      }
      break;
    case FrameType::kReport:
      handle_report(c, f);
      break;
    case FrameType::kMetrics:
      handle_metrics(c);
      break;
    case FrameType::kHealth:
      handle_health(c);
      break;
    case FrameType::kCheckpoint:
      fleet_.checkpoint_now();
      ack(c.out, Code::kOk);
      break;
    case FrameType::kShutdown:
      ack(c.out, Code::kOk);
      request_stop();
      break;
    default:
      ack(c.out, Code::kInvalidArgument, 0,
          "unknown frame type " + std::to_string(static_cast<unsigned>(f.type)));
      break;
  }
}

void Server::handle_hello(Conn& c, const FrameView& f) {
  if (!c.region.empty()) {
    ack(c.out, Code::kFailedPrecondition, 0, "connection already bound");
    return;
  }
  if (f.payload.size() < 5) {
    ack(c.out, Code::kInvalidArgument, 0, "short HELLO payload");
    return;
  }
  const std::uint32_t hello_dims = get_u32le(f.payload.data());
  std::string name(reinterpret_cast<const char*>(f.payload.data()) + 4, f.payload.size() - 4);
  if (hello_dims == 0 || name.empty()) {
    ack(c.out, Code::kInvalidArgument, 0, "HELLO needs dims > 0 and a region name");
    return;
  }

  std::uint64_t offset = 0;  // "stream your trace from this record"
  const auto names = fleet_.region_names();
  if (std::find(names.begin(), names.end(), name) != names.end()) {
    // Rebinding a live region (a reconnecting tenant): resume from the
    // records the resident pipeline has already accepted.
    offset = fleet_.region_health(name).records_ingested;
  } else if (cfg_.resume) {
    const auto restored = fleet_.add_region_resumed(name, cfg_.region);
    if (!restored.is_ok()) {
      ack(c.out, restored.status().code(), 0, restored.status().message());
      return;
    }
    offset = *restored;
  } else {
    fleet_.add_region(name, cfg_.region);
  }

  c.region = std::move(name);
  c.dims = hello_dims;
  c.expected_seq = 0;
  ack(c.out, Code::kOk, offset);
}

void Server::handle_records(Conn& c, const FrameView& f) {
  if (f.payload.size() < kRecordsHeaderBytes) {
    ack(c.out, Code::kInvalidArgument, 0, "short RECORDS payload");
    c.closing = true;
    return;
  }
  const std::uint64_t seq = get_u64le(f.payload.data());
  const std::uint32_t count = get_u32le(f.payload.data() + 8);
  const std::size_t record_bytes = binary_trace_record_bytes(c.dims);
  if (count == 0 || count > cfg_.max_frame_records ||
      f.payload.size() != kRecordsHeaderBytes + count * record_bytes) {
    ack(c.out, Code::kInvalidArgument, 0,
        "RECORDS count/size mismatch (count " + std::to_string(count) + ", payload " +
            std::to_string(f.payload.size()) + " bytes)");
    c.closing = true;
    return;
  }

  // Admission control, part 1: per-connection ordering. A frame past the
  // expected sequence number (a client that kept streaming after a reject)
  // is bounced with the sequence to rewind to; a duplicate below it is
  // acknowledged as already-applied so retries are idempotent.
  if (seq != c.expected_seq) {
    if (seq < c.expected_seq) return;  // duplicate of an accepted frame
    event(c.out, Code::kFailedPrecondition, c.expected_seq, "out-of-order RECORDS frame");
    return;
  }
  // Admission control, part 2: reject-with-status instead of blocking the
  // loop (and with it every other tenant) when this region's shard is
  // already at its queue bound.
  if (fleet_.queue_depth(c.region) >= fleet_.config().max_queue_records) {
    event(c.out, Code::kResourceExhausted, seq, "region queue full");
    return;
  }

  // Decode in the batches FleetMonitor::ingest cuts from a reader, so the
  // checkpoint cadence and a quarantine's cut-off match a file ingest of the
  // same records, and the buffer stays one batch whatever the frame size.
  const unsigned char* records = f.payload.data() + kRecordsHeaderBytes;
  for (std::size_t done = 0; done < count;) {
    if (fleet_.region_health(c.region).health == core::RegionHealth::kQuarantined) break;
    const std::size_t n = std::min<std::size_t>(count - done, TraceReader::kDefaultBatch);
    if (batch_.size() < n) batch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      decode_binary_record(records + (done + i) * record_bytes, c.dims, batch_[i]);
    }
    fleet_.add_records(c.region, std::span<const SensorRecord>(batch_.data(), n));
    done += n;
  }
  c.expected_seq = seq + 1;
  const util::Status& status = fleet_.region_health(c.region).status;
  if (!status.is_ok() && !c.health_reported) {
    // One unsolicited health event per connection: the tenant's feed
    // degraded or quarantined its region.
    c.health_reported = true;
    event(c.out, status.code(), 0, status.message());
  }
}

void Server::handle_report(Conn& c, const FrameView& f) {
  if (f.payload.size() < 2) {
    ack(c.out, Code::kInvalidArgument, 0, "short REPORT payload");
    return;
  }
  const bool final = f.payload[0] != 0;
  const bool fleet_scope = f.payload[1] != 0;
  if (!fleet_scope && c.region.empty()) {
    ack(c.out, Code::kFailedPrecondition, 0, "region REPORT before HELLO");
    return;
  }

  std::string text;
  if (fleet_scope) {
    if (final) fleet_.finish();
    text = core::to_string(final ? fleet_.diagnose() : fleet_.report_snapshot().report);
  } else {
    if (final) fleet_.finish_region(c.region);
    const core::FleetReport report = final ? fleet_.diagnose() : fleet_.report_snapshot().report;
    const auto it = report.regions.find(c.region);
    if (it == report.regions.end()) {
      // Quarantined regions carry no diagnosis; surface the health status
      // instead of an empty report.
      const util::Status& status = fleet_.region_health(c.region).status;
      ack(c.out, status.code(), 0, status.message());
      return;
    }
    text = core::to_string(it->second);
  }
  append_frame(c.out, FrameType::kText, text);
}

void Server::handle_metrics(Conn& c) {
  fleet_.drain();
  util::MetricsSnapshot snap = util::metrics().snapshot();
  for (const auto& [name, st] : fleet_.health()) inject_region_state(snap, name, st);
  append_frame(c.out, FrameType::kText, snap.to_json());
}

void Server::handle_health(Conn& c) {
  std::string text;
  for (const auto& [name, st] : fleet_.health()) {
    text += "region " + name + ' ' + core::to_string(st.health) +
            " records=" + std::to_string(st.records_ingested);
    if (!st.status.is_ok()) text += ' ' + st.status.message();
    text += '\n';
  }
  if (text.empty()) text = "no regions\n";
  append_frame(c.out, FrameType::kText, text);
}

}  // namespace sentinel::service
