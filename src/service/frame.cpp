#include "service/frame.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace sentinel::service {

namespace {

/// Length prefix plus type byte: the smallest frame on the wire.
constexpr std::size_t kFrameHeaderBytes = 5;

bool write_all(int fd, const unsigned char* buf, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a vanished peer is a Status, not a SIGPIPE.
    const ssize_t n = ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void put_header(unsigned char* header, FrameType type, std::size_t payload_len) {
  put_u32le(header, static_cast<std::uint32_t>(payload_len + 1));
  header[4] = static_cast<unsigned char>(type);
}

}  // namespace

unsigned char* FrameDecoder::prepare(std::size_t n) {
  if (cap_ - tail_ >= n) return buf_.get() + tail_;
  const std::size_t held = tail_ - head_;
  if (held + n <= cap_) {
    std::memmove(buf_.get(), buf_.get() + head_, held);
  } else {
    // Doubling what is held keeps a large frame's growth amortized while
    // tying the allocation to bytes received, not to the claimed length.
    const std::size_t cap = std::max(held + n, 2 * held);
    auto grown = std::make_unique_for_overwrite<unsigned char[]>(cap);
    if (held > 0) std::memcpy(grown.get(), buf_.get() + head_, held);
    buf_ = std::move(grown);
    cap_ = cap;
  }
  head_ = 0;
  tail_ = held;
  return buf_.get() + tail_;
}

void FrameDecoder::feed(std::span<const unsigned char> bytes) {
  if (bytes.empty()) return;
  std::memcpy(prepare(bytes.size()), bytes.data(), bytes.size());
  commit(bytes.size());
}

FrameDecoder::Next FrameDecoder::next(FrameView& f) {
  const std::size_t held = tail_ - head_;
  if (held < 4) return Next::kNeedMore;
  const unsigned char* p = buf_.get() + head_;
  const std::uint32_t len = get_u32le(p);
  if (len == 0 || len > kMaxFrameBytes) return Next::kBadLength;
  if (held < 4 + static_cast<std::size_t>(len)) return Next::kNeedMore;
  f.type = static_cast<FrameType>(p[4]);
  f.payload = std::span<const unsigned char>(p + kFrameHeaderBytes, len - 1);
  head_ += 4 + static_cast<std::size_t>(len);
  if (head_ == tail_) head_ = tail_ = 0;  // the view stays readable until the next write
  return Next::kFrame;
}

std::size_t FrameDecoder::missing() const {
  const std::size_t held = tail_ - head_;
  if (held < 4) return kFrameHeaderBytes - held;
  const std::size_t total = 4 + static_cast<std::size_t>(get_u32le(buf_.get() + head_));
  return total > held ? total - held : 0;
}

util::Status read_frame(int fd, Frame& f) {
  FrameDecoder dec;
  FrameView view;
  for (;;) {
    switch (dec.next(view)) {
      case FrameDecoder::Next::kFrame:
        f.type = view.type;
        f.payload.assign(view.payload.begin(), view.payload.end());
        return util::Status::ok();
      case FrameDecoder::Next::kBadLength:
        return util::Status(util::StatusCode::kInvalidArgument,
                            "service: frame length out of bounds");
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    // Ask for no byte past this frame: the next one belongs to the next call.
    const std::size_t want = std::min(dec.missing(), kRecvChunk);
    const ssize_t n = ::recv(fd, dec.prepare(want), want, 0);
    if (n > 0) {
      dec.commit(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 && dec.buffered() == 0) return util::Status(util::StatusCode::kUnavailable, "");
    return util::Status(util::StatusCode::kDataLoss, dec.buffered() < 4
                                                         ? "service: short frame header"
                                                         : "service: truncated frame");
  }
}

util::Status write_frame(int fd, FrameType type, const unsigned char* payload, std::size_t len) {
  unsigned char header[kFrameHeaderBytes];
  put_header(header, type, len);
  if (!write_all(fd, header, sizeof header) || (len > 0 && !write_all(fd, payload, len))) {
    return util::Status(util::StatusCode::kUnavailable,
                        std::string("service: write failed: ") + std::strerror(errno));
  }
  return util::Status::ok();
}

void append_frame(std::vector<unsigned char>& out, FrameType type,
                  std::span<const unsigned char> payload) {
  unsigned char header[kFrameHeaderBytes];
  put_header(header, type, payload.size());
  out.insert(out.end(), header, header + sizeof header);
  out.insert(out.end(), payload.begin(), payload.end());
}

void append_frame(std::vector<unsigned char>& out, FrameType type, std::string_view payload) {
  append_frame(out, type, {reinterpret_cast<const unsigned char*>(payload.data()), payload.size()});
}

void append_ack(std::vector<unsigned char>& out, FrameType type, util::StatusCode code,
                std::uint64_t value, std::string_view message) {
  unsigned char header[kFrameHeaderBytes + kAckHeaderBytes];
  put_header(header, type, kAckHeaderBytes + message.size());
  header[kFrameHeaderBytes] = static_cast<unsigned char>(code);
  put_u64le(header + kFrameHeaderBytes + 1, value);
  out.insert(out.end(), header, header + sizeof header);
  out.insert(out.end(), message.begin(), message.end());
}

util::Status parse_ack(std::span<const unsigned char> payload, AckBody& body) {
  if (payload.size() < kAckHeaderBytes) {
    return util::Status(util::StatusCode::kDataLoss, "service: short ack payload");
  }
  body.code = static_cast<util::StatusCode>(payload[0]);
  body.value = get_u64le(payload.data() + 1);
  body.message.assign(reinterpret_cast<const char*>(payload.data()) + kAckHeaderBytes,
                      payload.size() - kAckHeaderBytes);
  return util::Status::ok();
}

}  // namespace sentinel::service
