// Resident fleet service (src/service): wire framing and its one decoder,
// the determinism contract (a trace streamed over N concurrent connections
// yields the same per-region report bytes as ingest_file), admission-control
// stream control, isolation from hostile peers, and checkpointed
// shutdown/resume.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fleet.h"
#include "core/pipeline.h"
#include "service/client.h"
#include "service/frame.h"
#include "service/server.h"
#include "sim/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "trace/trace_reader.h"
#include "util/metrics.h"

namespace sentinel {
namespace {

/// The golden 7-day scenario from golden_report_test.cpp: 10 GDI sensors,
/// a stuck-at fault on sensor 6 from day 2, an additive offset on sensor 3
/// from day 4. Generated once per process.
const std::vector<SensorRecord>& golden_trace() {
  static const std::vector<SensorRecord> trace = [] {
    sim::GdiEnvironmentConfig ec;
    ec.duration_seconds = 7.0 * kSecondsPerDay;
    ec.seed = 20260806;
    const sim::GdiEnvironment env(ec);
    sim::GdiDeploymentConfig dc;
    dc.num_sensors = 10;
    dc.seed = 20260806;
    return sim::make_gdi_deployment(env, dc).run(ec.duration_seconds).trace;
  }();
  return trace;
}

core::PipelineConfig golden_config() {
  sim::GdiEnvironmentConfig ec;
  ec.duration_seconds = 7.0 * kSecondsPerDay;
  ec.seed = 20260806;
  const sim::GdiEnvironment env(ec);
  core::PipelineConfig cfg;
  for (double t = 0.0; t < 2.0 * kSecondsPerDay; t += 2.0 * kSecondsPerHour) {
    cfg.initial_states.push_back(env.truth(t));
  }
  cfg.initial_states.resize(6);
  return cfg;
}

/// Path of the golden trace as an SNTRB1 file (written once per process).
/// The pid keeps concurrent test processes (ctest -j) from rewriting the
/// file under each other's readers.
const std::string& golden_trace_path() {
  static const std::string path = [] {
    const std::string p = testing::TempDir() + "service_golden." +
                          std::to_string(::getpid()) + ".snt";
    write_trace_binary_file(p, golden_trace());
    return p;
  }();
  return path;
}

/// Batch baseline: `regions` regions all ingesting the golden trace from
/// disk, collective finish, rendered fleet report.
std::string batch_report(std::size_t regions, std::size_t threads) {
  core::FleetConfig fc;
  fc.threads = threads;
  core::FleetMonitor fleet(fc);
  for (std::size_t i = 0; i < regions; ++i) {
    fleet.add_region("tenant" + std::to_string(i), golden_config());
  }
  for (std::size_t i = 0; i < regions; ++i) {
    const auto sum = fleet.ingest_file("tenant" + std::to_string(i), golden_trace_path());
    EXPECT_TRUE(sum.status.is_ok());
  }
  fleet.finish();
  return core::to_string(fleet.diagnose());
}

/// Served run: `conns` concurrent connections, one per tenant region, all
/// streaming the golden trace at once; then a final fleet-scope report.
std::string served_report(std::size_t conns, std::size_t threads,
                          std::size_t frame_records = 4096) {
  service::ServerConfig sc;
  sc.fleet.threads = threads;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  std::vector<std::thread> tenants;
  std::vector<std::string> errors(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    tenants.emplace_back([&, i] {
      try {
        service::ClientConfig cc;
        cc.port = server.port();
        cc.frame_records = frame_records;
        service::Client client(cc);
        const auto offset = client.hello("tenant" + std::to_string(i), 2);
        if (!offset.is_ok()) {
          errors[i] = offset.status().to_string();
          return;
        }
        const auto reader = open_trace_reader(golden_trace_path());
        const auto sent = client.stream_reader(*reader);
        if (!sent.is_ok()) errors[i] = sent.status().to_string();
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (auto& t : tenants) t.join();
  for (const auto& e : errors) EXPECT_TRUE(e.empty()) << e;

  service::ClientConfig cc;
  cc.port = server.port();
  service::Client control(cc);
  const auto report = control.report(/*finalize=*/true, /*fleet_scope=*/true);
  EXPECT_TRUE(report.is_ok()) << report.status().to_string();
  server.stop();
  return report.is_ok() ? *report : std::string();
}

TEST(ServiceFraming, RecordCodecRoundTripsThroughARecordsFrame) {
  std::vector<SensorRecord> records;
  for (std::uint32_t i = 0; i < 100; ++i) {
    records.push_back(SensorRecord{i, 17.5 * i, AttrVec{1.0 + i, -2.0 * i, 0.25}});
  }
  const std::size_t rb = binary_trace_record_bytes(3);
  std::vector<unsigned char> payload(service::kRecordsHeaderBytes + records.size() * rb);
  service::put_u64le(payload.data(), 42);
  service::put_u32le(payload.data() + 8, static_cast<std::uint32_t>(records.size()));
  for (std::size_t i = 0; i < records.size(); ++i) {
    encode_binary_record(payload.data() + service::kRecordsHeaderBytes + i * rb, records[i]);
  }
  std::vector<unsigned char> wire;
  service::append_frame(wire, service::FrameType::kRecords, payload);

  // The server's path: frame out of the decoder, records decoded in place
  // into a reused batch.
  service::FrameDecoder dec;
  dec.feed(wire);
  service::FrameView f;
  ASSERT_EQ(dec.next(f), service::FrameDecoder::Next::kFrame);
  ASSERT_EQ(f.type, service::FrameType::kRecords);
  EXPECT_EQ(service::get_u64le(f.payload.data()), 42u);
  ASSERT_EQ(service::get_u32le(f.payload.data() + 8), records.size());
  SensorRecord rec;
  for (std::size_t i = 0; i < records.size(); ++i) {
    decode_binary_record(f.payload.data() + service::kRecordsHeaderBytes + i * rb, 3, rec);
    EXPECT_EQ(rec, records[i]) << "record " << i;
  }
  EXPECT_EQ(dec.next(f), service::FrameDecoder::Next::kNeedMore);
}

using FrameList = std::vector<std::pair<service::FrameType, std::vector<unsigned char>>>;

/// Feed `pieces` in order and collect every frame the decoder yields; the
/// last next() must ask for more, never fail.
FrameList decode_pieces(const std::vector<std::span<const unsigned char>>& pieces) {
  service::FrameDecoder dec;
  FrameList out;
  service::FrameView f;
  service::FrameDecoder::Next r = service::FrameDecoder::Next::kNeedMore;
  for (const auto piece : pieces) {
    dec.feed(piece);
    while ((r = dec.next(f)) == service::FrameDecoder::Next::kFrame) {
      out.emplace_back(f.type, std::vector<unsigned char>(f.payload.begin(), f.payload.end()));
    }
    EXPECT_EQ(r, service::FrameDecoder::Next::kNeedMore);
  }
  return out;
}

TEST(ServiceFraming, DecoderYieldsTheSameFramesHoweverTheStreamIsSplit) {
  // Every frame shape of a tenant exchange, both directions: HELLO,
  // RECORDS, FLUSH, REPORT, then an ack, an event and a text reply.
  FrameList want;
  std::vector<unsigned char> hello(4 + 5);
  service::put_u32le(hello.data(), 2);
  std::memcpy(hello.data() + 4, "north", 5);
  want.emplace_back(service::FrameType::kHello, hello);
  const std::size_t rb = binary_trace_record_bytes(2);
  std::vector<unsigned char> records(service::kRecordsHeaderBytes + 3 * rb);
  service::put_u64le(records.data(), 0);
  service::put_u32le(records.data() + 8, 3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    encode_binary_record(records.data() + service::kRecordsHeaderBytes + i * rb,
                         SensorRecord{i, 60.0 * i, AttrVec{20.0 + i, 50.0 - i}});
  }
  want.emplace_back(service::FrameType::kRecords, records);
  want.emplace_back(service::FrameType::kFlush, std::vector<unsigned char>{});
  want.emplace_back(service::FrameType::kReport, std::vector<unsigned char>{1, 0});
  std::vector<unsigned char> replies;
  service::append_ack(replies, service::FrameType::kAck, util::StatusCode::kOk, 3);
  service::append_ack(replies, service::FrameType::kEvent, util::StatusCode::kResourceExhausted,
                      7, "region queue full");
  service::append_frame(replies, service::FrameType::kText, std::string_view("network: ok\n"));

  std::vector<unsigned char> wire;
  for (const auto& [type, payload] : want) service::append_frame(wire, type, payload);
  const std::size_t requests = want.size();
  wire.insert(wire.end(), replies.begin(), replies.end());
  {
    // The reply frames, decoded once, complete the expectation.
    const FrameList tail = decode_pieces({replies});
    ASSERT_EQ(tail.size(), 3u);
    want.insert(want.end(), tail.begin(), tail.end());
    service::AckBody body;
    ASSERT_TRUE(service::parse_ack(tail[1].second, body).is_ok());
    EXPECT_EQ(body.code, util::StatusCode::kResourceExhausted);
    EXPECT_EQ(body.value, 7u);
    EXPECT_EQ(body.message, "region queue full");
  }
  ASSERT_EQ(want.size(), requests + 3);

  const std::span<const unsigned char> all(wire);
  EXPECT_EQ(decode_pieces({all}), want);
  std::vector<std::span<const unsigned char>> bytes;
  for (std::size_t i = 0; i < wire.size(); ++i) bytes.push_back(all.subspan(i, 1));
  EXPECT_EQ(decode_pieces(bytes), want);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    EXPECT_EQ(decode_pieces({all.first(cut), all.subspan(cut)}), want) << "split at " << cut;
  }

  // A truncated stream yields exactly the frames that ended before the cut
  // and then "need more" -- never a partial frame, never a failure.
  std::vector<std::size_t> ends;
  for (std::size_t at = 0; at < wire.size();) {
    at += 4 + service::get_u32le(wire.data() + at);
    ends.push_back(at);
  }
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;
    const FrameList got = decode_pieces({all.first(cut)});
    ASSERT_EQ(got.size(), complete) << "cut at " << cut;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << "cut at " << cut;
  }
}

TEST(ServiceFraming, LyingLengthPrefixGrowsTheBufferOnlyWithBytesReceived) {
  // A header that claims the largest legal frame, then a trickle: the
  // decoder holds what arrived, not what was promised.
  service::FrameDecoder dec;
  unsigned char header[5];
  service::put_u32le(header, static_cast<std::uint32_t>(service::kMaxFrameBytes));
  header[4] = static_cast<unsigned char>(service::FrameType::kRecords);
  const unsigned char some[7] = {1, 2, 3, 4, 5, 6, 7};
  // The server's read pattern: one recv chunk of room per read.
  std::memcpy(dec.prepare(service::kRecvChunk), header, sizeof header);
  dec.commit(sizeof header);
  std::memcpy(dec.prepare(service::kRecvChunk), some, sizeof some);
  dec.commit(sizeof some);
  service::FrameView f;
  EXPECT_EQ(dec.next(f), service::FrameDecoder::Next::kNeedMore);
  const std::size_t fed = sizeof header + sizeof some;
  EXPECT_EQ(dec.buffered(), fed);
  EXPECT_LE(dec.capacity(), fed + service::kRecvChunk);
  EXPECT_EQ(dec.missing(), 4 + service::kMaxFrameBytes - fed);

  // Keep trickling up to 1 MiB: storage stays proportional to it.
  std::vector<unsigned char> chunk(service::kRecvChunk, 0x5a);
  std::size_t total = fed;
  while (total < (1u << 20)) {
    std::memcpy(dec.prepare(chunk.size()), chunk.data(), chunk.size());
    dec.commit(chunk.size());
    total += chunk.size();
    EXPECT_LE(dec.capacity(), 2 * total + service::kRecvChunk);
  }
  EXPECT_EQ(dec.next(f), service::FrameDecoder::Next::kNeedMore);

  // A length of 0 or past the cap is refused as soon as its 4 bytes arrive.
  for (const std::uint64_t len : {std::uint64_t{0}, std::uint64_t{service::kMaxFrameBytes} + 1}) {
    service::FrameDecoder bad;
    unsigned char prefix[4];
    service::put_u32le(prefix, static_cast<std::uint32_t>(len));
    bad.feed(prefix);
    EXPECT_EQ(bad.next(f), service::FrameDecoder::Next::kBadLength) << "length " << len;
  }
}

TEST(ServiceDeterminism, SingleConnectionMatchesIngestFile) {
  const std::string want = batch_report(1, 1);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(served_report(1, 1), want);
}

TEST(ServiceDeterminism, FourConcurrentConnectionsMatchIngestFileAtAnyThreads) {
  const std::string want = batch_report(4, 1);
  ASSERT_FALSE(want.empty());
  // Fleet threading is byte-invisible, so the serial batch baseline is the
  // reference for both a serial and a sharded resident fleet -- whatever
  // order the four tenants' frames interleave in.
  EXPECT_EQ(served_report(4, 1), want);
  EXPECT_EQ(served_report(4, 4), want);
}

TEST(ServiceDeterminism, TinyFramesDoNotChangeTheReport) {
  // 64-record frames force thousands of ingest calls and many flush
  // barriers; the report must not care how the stream was framed.
  const std::string want = batch_report(1, 1);
  EXPECT_EQ(served_report(1, 1, /*frame_records=*/64), want);
}

TEST(ServiceControlPlane, SnapshotReportMetricsAndHealthAnswerMidStream) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  service::ClientConfig cc;
  cc.port = server.port();
  service::Client client(cc);
  ASSERT_TRUE(client.hello("north", 2).is_ok());
  const auto& trace = golden_trace();
  ASSERT_TRUE(client.send({trace.data(), trace.size() / 2}).is_ok());

  // Live snapshot: does not finalize, stream continues afterwards.
  const auto snapshot = client.report(/*finalize=*/false, /*fleet_scope=*/false);
  ASSERT_TRUE(snapshot.is_ok()) << snapshot.status().to_string();
  EXPECT_NE(snapshot->find("network:"), std::string::npos);

  const auto health = client.health_text();
  ASSERT_TRUE(health.is_ok());
  EXPECT_NE(health->find("region north healthy"), std::string::npos) << *health;

  const auto metrics = client.metrics_json();
  ASSERT_TRUE(metrics.is_ok());
  EXPECT_NE(metrics->find("fleet.region.north.records_ingested"), std::string::npos);
  EXPECT_NE(metrics->find("fleet.report_snapshots"), std::string::npos);

  // The rest of the stream still lands and finalizes normally.
  ASSERT_TRUE(client.send({trace.data() + trace.size() / 2, trace.size() - trace.size() / 2})
                  .is_ok());
  const auto final_report = client.report(/*finalize=*/true, /*fleet_scope=*/false);
  ASSERT_TRUE(final_report.is_ok());
  EXPECT_NE(final_report->find("network:"), std::string::npos);
  server.stop();
}

TEST(ServiceAdmission, OutOfOrderFrameIsBouncedWithExpectedSeq) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  // Raw socket: drive the protocol by hand to provoke the reject.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  std::vector<unsigned char> hello(4 + 5);
  service::put_u32le(hello.data(), 2);
  std::memcpy(hello.data() + 4, "manual", 5);
  ASSERT_TRUE(service::write_frame(fd, service::FrameType::kHello, hello.data(), hello.size())
                  .is_ok());
  service::Frame f;
  ASSERT_TRUE(service::read_frame(fd, f).is_ok());
  ASSERT_EQ(f.type, service::FrameType::kAck);

  // Frame with seq 7 while the server expects 0.
  const std::size_t rb = binary_trace_record_bytes(2);
  std::vector<unsigned char> payload(service::kRecordsHeaderBytes + rb);
  service::put_u64le(payload.data(), 7);
  service::put_u32le(payload.data() + 8, 1);
  encode_binary_record(payload.data() + service::kRecordsHeaderBytes,
                       SensorRecord{1, 1.0, AttrVec{20.0, 50.0}});
  ASSERT_TRUE(
      service::write_frame(fd, service::FrameType::kRecords, payload.data(), payload.size())
          .is_ok());

  ASSERT_TRUE(service::read_frame(fd, f).is_ok());
  ASSERT_EQ(f.type, service::FrameType::kEvent);
  service::AckBody body;
  ASSERT_TRUE(service::parse_ack(f.payload, body).is_ok());
  EXPECT_EQ(body.code, util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(body.value, 0u);  // "resend from sequence 0"

  // Resending with the expected seq is accepted (no event, flush acks 1).
  service::put_u64le(payload.data(), 0);
  ASSERT_TRUE(
      service::write_frame(fd, service::FrameType::kRecords, payload.data(), payload.size())
          .is_ok());
  ASSERT_TRUE(service::write_frame(fd, service::FrameType::kFlush, nullptr, 0).is_ok());
  ASSERT_TRUE(service::read_frame(fd, f).is_ok());
  ASSERT_EQ(f.type, service::FrameType::kAck);
  ASSERT_TRUE(service::parse_ack(f.payload, body).is_ok());
  EXPECT_EQ(body.code, util::StatusCode::kOk);
  EXPECT_EQ(body.value, 1u);  // records_ingested

  ::close(fd);
  server.stop();
}

TEST(ServiceAdmission, RecordsBeforeHelloIsRejected) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);

  unsigned char payload[service::kRecordsHeaderBytes] = {};
  ASSERT_TRUE(
      service::write_frame(fd, service::FrameType::kRecords, payload, sizeof payload).is_ok());
  service::Frame f;
  ASSERT_TRUE(service::read_frame(fd, f).is_ok());
  ASSERT_EQ(f.type, service::FrameType::kAck);
  service::AckBody body;
  ASSERT_TRUE(service::parse_ack(f.payload, body).is_ok());
  EXPECT_EQ(body.code, util::StatusCode::kFailedPrecondition);
  ::close(fd);
  server.stop();
}

TEST(ServiceAdmission, ShardFullRejectionsAreRetriedToTheSameReport) {
  // A sharded fleet with a tiny queue bound: frames race the drain worker,
  // so some get bounced with kResourceExhausted and retried by the client.
  // Whether or not any given run provokes a bounce, the report must equal
  // the batch baseline -- the rejection path is byte-invisible.
  const std::string want = batch_report(1, 1);
  service::ServerConfig sc;
  sc.fleet.threads = 2;
  sc.fleet.max_queue_records = 512;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  service::ClientConfig cc;
  cc.port = server.port();
  cc.frame_records = 256;
  service::Client client(cc);
  ASSERT_TRUE(client.hello("tenant0", 2).is_ok());
  const auto reader = open_trace_reader(golden_trace_path());
  const auto sent = client.stream_reader(*reader);
  ASSERT_TRUE(sent.is_ok()) << sent.status().to_string();
  EXPECT_EQ(*sent, golden_trace().size());

  const auto report = client.report(/*finalize=*/true, /*fleet_scope=*/true);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(*report, want);
  RecordProperty("rejected_frames", static_cast<int>(client.rejected_frames()));
  server.stop();
}

TEST(ServiceResume, ShutdownCheckpointThenResumeIsByteIdentical) {
  const std::string want = batch_report(1, 1);
  const std::string dir = testing::TempDir() + "service_resume_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto& trace = golden_trace();
  const std::size_t cut = trace.size() / 2;

  // First server life: stream half the trace, then a clean shutdown commits
  // the final (mid-window) checkpoint.
  {
    service::ServerConfig sc;
    sc.fleet.checkpoint_dir = dir;
    sc.fleet.checkpoint_every_records = 0;  // only the shutdown checkpoint
    sc.region = golden_config();
    service::Server server(std::move(sc));
    server.start();
    service::ClientConfig cc;
    cc.port = server.port();
    service::Client client(cc);
    ASSERT_TRUE(client.hello("tenant0", 2).is_ok());
    ASSERT_TRUE(client.send({trace.data(), cut}).is_ok());
    ASSERT_TRUE(client.flush().is_ok());
    ASSERT_TRUE(client.shutdown_server().is_ok());
    server.stop();
    ASSERT_TRUE(server.stopped());
  }

  // Second life: --resume restores the region; HELLO names the covered
  // offset and the tenant streams the full trace from it. The final report
  // must match a never-interrupted batch run byte for byte.
  {
    service::ServerConfig sc;
    sc.fleet.checkpoint_dir = dir;
    sc.resume = true;
    sc.region = golden_config();
    service::Server server(std::move(sc));
    server.start();
    service::ClientConfig cc;
    cc.port = server.port();
    service::Client client(cc);
    const auto offset = client.hello("tenant0", 2);
    ASSERT_TRUE(offset.is_ok());
    EXPECT_EQ(*offset, cut);
    ASSERT_TRUE(
        client.send({trace.data() + *offset, trace.size() - *offset}).is_ok());
    const auto report = client.report(/*finalize=*/true, /*fleet_scope=*/true);
    ASSERT_TRUE(report.is_ok());
    EXPECT_EQ(*report, want);
    server.stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceLifecycle, ReconnectingTenantResumesFromLiveOffset) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();

  const auto& trace = golden_trace();
  const std::size_t cut = trace.size() / 3;
  service::ClientConfig cc;
  cc.port = server.port();
  {
    service::Client first(cc);
    ASSERT_TRUE(first.hello("tenant0", 2).is_ok());
    ASSERT_TRUE(first.send({trace.data(), cut}).is_ok());
    ASSERT_TRUE(first.flush().is_ok());
  }  // connection drops; the region stays resident

  service::Client second(cc);
  const auto offset = second.hello("tenant0", 2);
  ASSERT_TRUE(offset.is_ok());
  EXPECT_EQ(*offset, cut);  // "stream from here"
  ASSERT_TRUE(second.send({trace.data() + cut, trace.size() - cut}).is_ok());
  const auto report = second.report(/*finalize=*/true, /*fleet_scope=*/true);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(*report, batch_report(1, 1));
  server.stop();
}

TEST(ServiceResume, CheckpointTimerCommitsWhileIdleThenResumeIsByteIdentical) {
  const std::string want = batch_report(1, 1);
  const std::string dir = testing::TempDir() + "service_timer_ckpt." + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto& trace = golden_trace();
  const std::size_t cut = trace.size() / 2;
  util::Counter& commits = util::metrics().counter("fleet.checkpoint_commits");

  {
    service::ServerConfig sc;
    sc.fleet.checkpoint_dir = dir;
    sc.fleet.checkpoint_every_records = 0;  // no record cadence: only the timer commits
    sc.checkpoint_interval_seconds = 0.05;
    sc.region = golden_config();
    service::Server server(std::move(sc));
    server.start();
    service::ClientConfig cc;
    cc.port = server.port();
    service::Client client(cc);
    ASSERT_TRUE(client.hello("tenant0", 2).is_ok());
    ASSERT_TRUE(client.send({trace.data(), cut}).is_ok());
    ASSERT_TRUE(client.flush().is_ok());

    // No traffic from here on: the poll timeout alone must commit.
    const std::uint64_t before = commits.total();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (commits.total() < before + 2 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GE(commits.total(), before + 2) << "idle server committed no timer checkpoints";
    server.stop();
  }

  service::ServerConfig sc;
  sc.fleet.checkpoint_dir = dir;
  sc.resume = true;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();
  service::ClientConfig cc;
  cc.port = server.port();
  service::Client client(cc);
  const auto offset = client.hello("tenant0", 2);
  ASSERT_TRUE(offset.is_ok());
  EXPECT_EQ(*offset, cut);
  ASSERT_TRUE(client.send({trace.data() + *offset, trace.size() - *offset}).is_ok());
  const auto report = client.report(/*finalize=*/true, /*fleet_scope=*/true);
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(*report, want);
  server.stop();
  std::filesystem::remove_all(dir);
}

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

enum class Hostile {
  kSilent,      // connects and sends nothing
  kHalfHeader,  // two bytes of a frame header, then silence
  kNeverReads,  // requests replies in a loop and never reads one
};

/// The golden trace streamed by a well-behaved tenant beside one hostile
/// peer: its final region REPORT must equal batch ingest of the trace, in
/// bounded time, and stop() must return promptly with the peer still
/// connected.
void expect_tenant_unharmed(Hostile kind, std::size_t threads) {
  SCOPED_TRACE("fleet threads " + std::to_string(threads));
  std::string want;
  {
    core::FleetConfig fc;
    fc.threads = threads;
    core::FleetMonitor fleet(fc);
    fleet.add_region("tenant0", golden_config());
    fleet.ingest_file("tenant0", golden_trace_path());
    fleet.finish();
    want = core::to_string(fleet.diagnose().regions.at("tenant0"));
  }

  service::ServerConfig sc;
  sc.fleet.threads = threads;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();
  const int pest = connect_raw(server.port());
  ASSERT_GE(pest, 0);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> pest_sent{0};  // request bytes the peer got onto the wire
  std::thread pester;
  if (kind == Hostile::kHalfHeader) {
    const unsigned char half[2] = {0x10, 0x00};
    ASSERT_EQ(::send(pest, half, sizeof half, MSG_NOSIGNAL), 2);
  } else if (kind == Hostile::kNeverReads) {
    // The peer binds a region with the wrong width, so its first record
    // quarantines it. From then on each round asks for an event (a RECORDS
    // frame far past the expected sequence), a HEALTH text and a region
    // REPORT (answered with the quarantine status), and reads none of them.
    std::vector<unsigned char> hello(4 + 4);
    service::put_u32le(hello.data(), 3);
    std::memcpy(hello.data() + 4, "pest", 4);
    ASSERT_TRUE(
        service::write_frame(pest, service::FrameType::kHello, hello.data(), hello.size()).is_ok());
    service::Frame ack;
    ASSERT_TRUE(service::read_frame(pest, ack).is_ok());
    std::vector<unsigned char> records(service::kRecordsHeaderBytes + binary_trace_record_bytes(3));
    service::put_u32le(records.data() + 8, 1);
    encode_binary_record(records.data() + service::kRecordsHeaderBytes,
                         SensorRecord{1, 1.0, AttrVec{20.0, 50.0, 1.0}});
    ASSERT_TRUE(service::write_frame(pest, service::FrameType::kRecords, records.data(),
                                     records.size())
                    .is_ok());
    std::vector<unsigned char> requests;
    service::put_u64le(records.data(), 1000);
    service::append_frame(requests, service::FrameType::kRecords, records);
    service::append_frame(requests, service::FrameType::kHealth, std::string_view());
    const unsigned char region_snapshot[2] = {0, 0};
    service::append_frame(requests, service::FrameType::kReport, region_snapshot);
    pester = std::thread([&, requests] {
      std::size_t at = 0;
      while (!done.load()) {
        const ssize_t n = ::send(pest, requests.data() + at, requests.size() - at,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          at = (at + static_cast<std::size_t>(n)) % requests.size();
          pest_sent.fetch_add(static_cast<std::uint64_t>(n));
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          return;  // server closed the connection
        }
      }
    });
  }

  if (pester.joinable()) {
    // Start the tenant only once the server has stopped taking the peer's
    // requests (no byte of them moved for 200 ms): every socket buffer
    // between the two is full, and the server holds an unsent reply.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool stalled = false;
    while (!stalled && std::chrono::steady_clock::now() < deadline) {
      const std::uint64_t before = pest_sent.load();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      stalled = before > 0 && pest_sent.load() == before;
    }
    EXPECT_TRUE(stalled) << "the server kept reading a peer that never reads";
  }
  auto good = std::async(std::launch::async, [&]() -> std::string {
    service::ClientConfig cc;
    cc.port = server.port();
    service::Client client(cc);
    if (!client.hello("tenant0", 2).is_ok()) return "hello failed";
    const auto reader = open_trace_reader(golden_trace_path());
    const auto sent = client.stream_reader(*reader);
    if (!sent.is_ok()) return sent.status().to_string();
    const auto report = client.report(/*finalize=*/true, /*fleet_scope=*/false);
    return report.is_ok() ? *report : report.status().to_string();
  });
  const bool in_time = good.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  EXPECT_TRUE(in_time) << "the hostile peer stalled a well-behaved tenant";
  // Unstick a server blocked on the peer so the test can still finish:
  // closing with unread replies resets the connection.
  done.store(true);
  if (pester.joinable()) pester.join();
  if (!in_time) ::close(pest);
  EXPECT_EQ(good.get(), want);

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  if (in_time) ::close(pest);
}

TEST(ServiceHostile, SilentPeerDoesNotStallOtherTenants) {
  for (const std::size_t threads : {1u, 4u}) expect_tenant_unharmed(Hostile::kSilent, threads);
}

TEST(ServiceHostile, HalfFrameHeaderDoesNotStallOtherTenants) {
  for (const std::size_t threads : {1u, 4u}) expect_tenant_unharmed(Hostile::kHalfHeader, threads);
}

TEST(ServiceHostile, PeerThatNeverReadsStallsOnlyItself) {
  for (const std::size_t threads : {1u, 4u}) expect_tenant_unharmed(Hostile::kNeverReads, threads);
}

TEST(ServiceHostile, OversizedLengthPrefixDropsThePeer) {
  service::ServerConfig sc;
  sc.region = golden_config();
  service::Server server(std::move(sc));
  server.start();
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  unsigned char header[5];
  service::put_u32le(header, static_cast<std::uint32_t>(service::kMaxFrameBytes + 1));
  header[4] = static_cast<unsigned char>(service::FrameType::kRecords);
  ASSERT_EQ(::send(fd, header, sizeof header, MSG_NOSIGNAL), 5);
  // The server closes the connection: the blocking read sees EOF, not a reply.
  unsigned char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace sentinel
