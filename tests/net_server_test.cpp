// net::Server end to end over real sockets: every RPC kind, typed denials
// and errors, deterministic overload shedding (queue pause seam), the
// per-tenant in-flight cap, slow-loris and hostile-byte handling, and the
// drain-on-shutdown contract (admitted jobs finish, responses flush, the WAL
// stays consistent).  The concurrent test runs under TSan in CI and pins the
// worker-pool path.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"

namespace gdp::net {
namespace {

using gdp::common::Rng;
using gdp::serve::DisclosureService;
using gdp::serve::TenantProfile;

gdp::graph::BipartiteGraph TestGraph(std::uint64_t seed = 3) {
  Rng rng(seed);
  gdp::graph::DblpLikeParams p;
  p.num_left = 200;
  p.num_right = 300;
  p.num_edges = 1200;
  return GenerateDblpLike(p, rng);
}

gdp::core::SessionSpec SmallSpec() {
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = 4;
  spec.hierarchy.arity = 4;
  return spec;
}

void Configure(DisclosureService& svc) {
  svc.catalog().Register(
      "dblp", gdp::serve::Dataset{TestGraph(), SmallSpec(), 7, {}, {}});
  svc.broker().Register("alice", TenantProfile{50.0, 0.2, 0});
  svc.broker().Register("bob", TenantProfile{50.0, 0.2, 2});
  svc.broker().Register(
      "capped", TenantProfile{50.0, 0.2, 0,
                              gdp::dp::AccountingPolicy::kSequential, 1});
  svc.broker().Register("poor", TenantProfile{0.2, 0.2, 0});
}

std::unique_ptr<DisclosureService> MakeService() {
  auto svc = std::make_unique<DisclosureService>(4);
  Configure(*svc);
  return svc;
}

wire::ServeRequest ServeReq(const std::string& tenant, double eps = 0.3,
                            const std::string& dataset = "dblp") {
  wire::ServeRequest req;
  req.tenant = tenant;
  req.dataset = dataset;
  req.budget.epsilon_g = eps;
  return req;
}

// ---------- raw socket helpers (for bytes no well-behaved client sends) ----

int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0)
      << std::strerror(errno);
  return fd;
}

void RawSend(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }
}

// Read whole frames off the socket; nullopt = the server closed first.
std::optional<std::string> RawRecvFrame(int fd, std::string& buffer) {
  char chunk[16 * 1024];
  for (;;) {
    std::optional<std::string> payload = wire::TryDeframe(buffer);
    if (payload.has_value()) {
      return payload;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return std::nullopt;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Magic() { return std::string(wire::kMagic, wire::kMagicSize); }

// ---------- happy paths ----------

TEST(NetServerTest, ServesAllRpcKindsOverOneConnection) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  ASSERT_NE(server.port(), 0);
  Client client(server.port());

  const auto serve = client.Serve(ServeReq("alice"));
  ASSERT_TRUE(serve.ok());
  EXPECT_TRUE(serve.value.granted);
  EXPECT_EQ(serve.value.level, 4);  // tier 0 = coarsest view
  EXPECT_FALSE(serve.value.view.noisy_group_counts.empty());

  wire::SweepRequest sweep;
  sweep.tenant = "alice";
  sweep.dataset = "dblp";
  for (double eps : {0.2, 0.3}) {
    wire::WireBudget budget;
    budget.epsilon_g = eps;
    sweep.budgets.push_back(budget);
  }
  const auto swept = client.Sweep(sweep);
  ASSERT_TRUE(swept.ok());
  ASSERT_EQ(swept.value.outcomes.size(), 2u);
  EXPECT_TRUE(swept.value.outcomes[0].granted);
  EXPECT_TRUE(swept.value.outcomes[1].granted);

  wire::DrilldownRequest drill;
  drill.tenant = "bob";  // tier 2: entitled to L2 on a depth-4 hierarchy
  drill.dataset = "dblp";
  drill.budget.epsilon_g = 0.3;
  drill.side = 0;
  drill.node = 5;
  const auto drilled = client.Drilldown(drill);
  ASSERT_TRUE(drilled.ok());
  EXPECT_TRUE(drilled.value.outcome.granted);
  ASSERT_EQ(drilled.value.chain.size(), 3u);  // L4 -> L3 -> L2, never finer
  EXPECT_EQ(drilled.value.chain.front().level, 4);
  EXPECT_EQ(drilled.value.chain.back().level, 2);

  wire::AnswerRequest answer;
  answer.tenant = "alice";
  answer.dataset = "dblp";
  answer.budget.epsilon_g = 0.3;
  answer.queries.resize(2);  // association count, degree histogram
  answer.queries[1].kind = gdp::core::QuerySpec::Kind::kDegreeHistogram;
  answer.queries[1].side = gdp::graph::Side::kRight;
  const auto answered = client.Answer(answer);
  ASSERT_TRUE(answered.ok());
  EXPECT_TRUE(answered.value.outcome.granted);
  ASSERT_EQ(answered.value.results.size(), 2u);
  EXPECT_EQ(answered.value.results[0].query_name, "association_count");

  // requests_completed increments AFTER the response is written, so a
  // client that just read reply N may observe N-1 completions briefly.
  while (server.requests_completed() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value.catalog_datasets, 1u);
  EXPECT_EQ(stats.value.broker_tenants, 4u);
  EXPECT_EQ(stats.value.connections_open, 1u);
  EXPECT_EQ(stats.value.requests_enqueued, 4u);
  EXPECT_EQ(stats.value.requests_completed, 4u);
  EXPECT_EQ(stats.value.shed_queue_full, 0u);
  EXPECT_EQ(stats.value.protocol_errors, 0u);
}

TEST(NetServerTest, TypedDenialAndErrorResponses) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  Client client(server.port());

  // A denial is a GRANTED=false serve response, not an error: the ledger
  // refused, the protocol worked.
  const auto denied = client.Serve(ServeReq("poor", 5.0));
  ASSERT_TRUE(denied.ok());
  EXPECT_FALSE(denied.value.granted);
  EXPECT_FALSE(denied.value.denial_reason.empty());

  const auto unknown_tenant = client.Serve(ServeReq("mallory"));
  EXPECT_EQ(unknown_tenant.status, ReplyStatus::kError);
  EXPECT_EQ(unknown_tenant.error_code, wire::ErrorCode::kNotFound);

  const auto unknown_dataset = client.Serve(ServeReq("alice", 0.3, "imdb"));
  EXPECT_EQ(unknown_dataset.status, ReplyStatus::kError);
  EXPECT_EQ(unknown_dataset.error_code, wire::ErrorCode::kNotFound);

  const auto bad_budget = client.Serve(ServeReq("alice", -1.0));
  EXPECT_EQ(bad_budget.status, ReplyStatus::kError);
  EXPECT_EQ(bad_budget.error_code, wire::ErrorCode::kBadRequest);

  // The connection survives every typed refusal above.
  const auto ok = client.Serve(ServeReq("alice"));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value.granted);
}

// ---------- overload shedding (deterministic via the queue pause seam) ----

TEST(NetServerTest, FullQueueShedsWithTypedOverloaded) {
  auto svc = MakeService();
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 2;
  Server server(*svc, config);
  server.queue().Pause();

  const int raw = RawConnect(server.port());
  std::string pipelined = Magic();
  for (int i = 0; i < 5; ++i) {
    pipelined += wire::Frame(wire::Encode(ServeReq("alice")));
  }
  RawSend(raw, pipelined);

  // 3 of 5 requests exceed the paused queue's capacity; their Overloaded
  // responses arrive before any serve work happens.
  std::string buffer;
  int overloaded = 0;
  for (int i = 0; i < 3; ++i) {
    const auto payload = RawRecvFrame(raw, buffer);
    ASSERT_TRUE(payload.has_value());
    ASSERT_EQ(wire::PeekKind(*payload), wire::MsgKind::kOverloaded);
    EXPECT_NE(wire::DecodeOverloaded(*payload).reason.find("queue"),
              std::string::npos);
    ++overloaded;
  }

  // Stats stay answerable while the queue is saturated (inline on the
  // reader thread).
  RawSend(raw, wire::Frame(wire::EncodeStatsRequest()));
  const auto stats_payload = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(stats_payload.has_value());
  const wire::StatsResponse mid = wire::DecodeStatsResponse(*stats_payload);
  EXPECT_EQ(mid.queue_depth, 2u);
  EXPECT_EQ(mid.shed_queue_full, 3u);

  server.queue().Resume();
  for (int i = 0; i < 2; ++i) {
    const auto payload = RawRecvFrame(raw, buffer);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(wire::PeekKind(*payload), wire::MsgKind::kServeResponse);
    EXPECT_TRUE(wire::DecodeServeResponse(*payload).granted);
  }
  EXPECT_EQ(overloaded, 3);
  EXPECT_EQ(server.GetStats().shed_queue_full, 3u);
  ::close(raw);
}

TEST(NetServerTest, TenantInFlightCapShedsIndependentlyOfQueue) {
  auto svc = MakeService();
  ServerConfig config;
  config.queue_capacity = 16;
  Server server(*svc, config);
  server.queue().Pause();

  const int raw = RawConnect(server.port());
  RawSend(raw, Magic() + wire::Frame(wire::Encode(ServeReq("capped"))) +
                   wire::Frame(wire::Encode(ServeReq("capped"))));

  // max_in_flight=1: the second request is shed even though the queue has
  // plenty of room.
  std::string buffer;
  const auto shed = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(shed.has_value());
  ASSERT_EQ(wire::PeekKind(*shed), wire::MsgKind::kOverloaded);
  EXPECT_NE(wire::DecodeOverloaded(*shed).reason.find("in-flight"),
            std::string::npos);

  server.queue().Resume();
  const auto served = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(wire::PeekKind(*served), wire::MsgKind::kServeResponse);

  const wire::StatsResponse stats = server.GetStats();
  EXPECT_EQ(stats.shed_tenant_inflight, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);

  // The cap frees up once the request completes — but the slot is released
  // AFTER the response is sent, so a client pipelining right behind a reply
  // can still be shed.  That is the wire contract ("retry later"): retry.
  std::optional<std::string> again;
  for (int attempt = 0; attempt < 200; ++attempt) {
    RawSend(raw, wire::Frame(wire::Encode(ServeReq("capped"))));
    again = RawRecvFrame(raw, buffer);
    ASSERT_TRUE(again.has_value());
    if (wire::PeekKind(*again) != wire::MsgKind::kOverloaded) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(wire::PeekKind(*again), wire::MsgKind::kServeResponse);
  ::close(raw);
}

// ---------- hostile input over the socket ----------

TEST(NetServerHostileTest, NonProtocolMagicClosesWithoutResponse) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const int raw = RawConnect(server.port());
  RawSend(raw, "GET / HTTP/1.1\r\n\r\n");
  std::string buffer;
  EXPECT_FALSE(RawRecvFrame(raw, buffer).has_value());  // closed, no frame
  ::close(raw);
  EXPECT_GE(server.GetStats().protocol_errors, 1u);
}

TEST(NetServerHostileTest, CorruptCrcGetsTypedErrorThenClose) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const int raw = RawConnect(server.port());
  std::string framed = wire::Frame(wire::Encode(ServeReq("alice")));
  framed.back() ^= 0x01;
  RawSend(raw, Magic() + framed);
  std::string buffer;
  const auto payload = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(payload.has_value());
  ASSERT_EQ(wire::PeekKind(*payload), wire::MsgKind::kError);
  EXPECT_EQ(wire::DecodeError(*payload).code, wire::ErrorCode::kBadRequest);
  EXPECT_FALSE(RawRecvFrame(raw, buffer).has_value());  // then close
  ::close(raw);
}

TEST(NetServerHostileTest, OversizedDeclaredLengthRejectedImmediately) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const int raw = RawConnect(server.port());
  std::string header(wire::kFrameHeaderSize, '\0');
  const std::uint32_t huge = wire::kMaxPayload + 1;
  std::memcpy(header.data(), &huge, sizeof(huge));
  RawSend(raw, Magic() + header);
  std::string buffer;
  const auto payload = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(wire::PeekKind(*payload), wire::MsgKind::kError);
  EXPECT_FALSE(RawRecvFrame(raw, buffer).has_value());
  ::close(raw);
}

TEST(NetServerHostileTest, UnknownKindInValidFrameKeepsConnection) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const int raw = RawConnect(server.port());
  RawSend(raw, Magic() + wire::Frame(std::string(1, '\x63')));
  std::string buffer;
  const auto err = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(wire::PeekKind(*err), wire::MsgKind::kError);

  // Message-level violation: the stream is still framed, so the connection
  // survives and a valid request on it is served.
  RawSend(raw, wire::Frame(wire::Encode(ServeReq("alice"))));
  const auto ok = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(wire::PeekKind(*ok), wire::MsgKind::kServeResponse);
  ::close(raw);
}

TEST(NetServerHostileTest, ResponseKindFromClientGetsTypedError) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const int raw = RawConnect(server.port());
  RawSend(raw, Magic() +
                   wire::Frame(wire::Encode(wire::OverloadedResponse{"ha"})));
  std::string buffer;
  const auto err = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(err.has_value());
  ASSERT_EQ(wire::PeekKind(*err), wire::MsgKind::kError);
  EXPECT_EQ(wire::DecodeError(*err).code, wire::ErrorCode::kBadRequest);
  ::close(raw);
}

TEST(NetServerHostileTest, TruncatedBodyInValidFrameGetsTypedError) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const int raw = RawConnect(server.port());
  std::string payload = wire::Encode(ServeReq("alice"));
  payload.resize(payload.size() - 4);  // CRC-valid frame, truncated body
  RawSend(raw, Magic() + wire::Frame(payload));
  std::string buffer;
  const auto err = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(err.has_value());
  ASSERT_EQ(wire::PeekKind(*err), wire::MsgKind::kError);
  EXPECT_EQ(wire::DecodeError(*err).code, wire::ErrorCode::kBadRequest);
  ::close(raw);
}

TEST(NetServerHostileTest, SlowLorisConnectionIsClosedAfterReadTimeout) {
  auto svc = MakeService();
  ServerConfig config;
  config.read_timeout_ms = 150;
  Server server(*svc, config);
  const int raw = RawConnect(server.port());
  // Magic plus half a frame header, then silence.
  RawSend(raw, Magic() + std::string(4, '\x01'));
  const auto start = std::chrono::steady_clock::now();
  std::string buffer;
  EXPECT_FALSE(RawRecvFrame(raw, buffer).has_value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_GE(server.GetStats().protocol_errors, 1u);
  ::close(raw);
}

TEST(NetServerHostileTest, IdleConnectionBetweenRequestsIsNotOnTheClock) {
  auto svc = MakeService();
  ServerConfig config;
  config.read_timeout_ms = 100;
  Server server(*svc, config);
  Client client(server.port());
  ASSERT_TRUE(client.Serve(ServeReq("alice")).ok());
  // Much longer than the read timeout; only MID-message peers are timed.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(client.Serve(ServeReq("alice")).ok());
}

// ---------- shutdown drain ----------

TEST(NetServerTest, StopDrainsAdmittedJobsAndFlushesResponses) {
  auto svc = MakeService();
  ServerConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  Server server(*svc, config);
  server.queue().Pause();

  const int raw = RawConnect(server.port());
  RawSend(raw, Magic() + wire::Frame(wire::Encode(ServeReq("alice"))) +
                   wire::Frame(wire::Encode(ServeReq("bob"))));
  while (server.GetStats().requests_enqueued < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Stop() with the queue still paused: the drain must run both jobs and
  // flush both responses before the fd closes.
  std::thread stopper([&server] { server.Stop(); });
  std::string buffer;
  std::vector<std::optional<std::string>> payloads;
  payloads.reserve(2);
  for (int i = 0; i < 2; ++i) {
    payloads.push_back(RawRecvFrame(raw, buffer));
  }
  const bool closed_after = !RawRecvFrame(raw, buffer).has_value();
  stopper.join();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(payloads[i].has_value()) << "response " << i
                                         << " lost in Stop()";
    EXPECT_EQ(wire::PeekKind(*payloads[i]), wire::MsgKind::kServeResponse);
    EXPECT_TRUE(wire::DecodeServeResponse(*payloads[i]).granted);
  }
  EXPECT_TRUE(closed_after);
  EXPECT_EQ(server.requests_completed(), 2u);
  ::close(raw);
}

TEST(NetServerTest, StopIsIdempotentAndNewConnectionsAreRefused) {
  auto svc = MakeService();
  auto server = std::make_unique<Server>(*svc, ServerConfig{});
  const std::uint16_t port = server->port();
  {
    Client client(port);
    ASSERT_TRUE(client.Serve(ServeReq("alice")).ok());
  }
  server->Stop();
  server->Stop();
  EXPECT_THROW(Client{port}, gdp::common::IoError);
  server.reset();  // the destructor's Stop() is also a no-op
}

// Every charge a draining server admitted is in the WAL; recovery restores
// the tenants without a sequence gap (the serving half of the durability
// contract).
TEST(NetServerTest, DrainKeepsWalConsistent) {
  const std::string wal_path = ::testing::TempDir() + "/net_server_drain.wal";
  ::unlink(wal_path.c_str());
  std::uint64_t appends = 0;
  {
    auto svc = DisclosureService::Open(Configure, wal_path, 4);
    Server server(*svc, ServerConfig{});
    Client client(server.port());
    for (int i = 0; i < 3; ++i) {
      const auto reply = client.Serve(ServeReq("alice"));
      ASSERT_TRUE(reply.ok());
      EXPECT_TRUE(reply.value.granted);
    }
    server.Stop();
    appends = svc->durability_stats().wal_appends;
    EXPECT_GE(appends, 3u);
  }
  auto recovered = DisclosureService::Open(Configure, wal_path, 4);
  const gdp::serve::RecoveryReport& report = recovered->recovery();
  EXPECT_EQ(report.records_replayed, appends);
  EXPECT_EQ(report.tenants_restored, 1u);
  EXPECT_FALSE(report.sequence_gap);
  ::unlink(wal_path.c_str());
}

// A histogram whose bins could not fit one reply frame is refused at
// decode, before admission: bad-request, and the tenant's ledger, the
// dataset odometer and the WAL stay as they were.
TEST(NetServerHostileTest, OversizedHistogramIsRefusedBeforeAnyCharge) {
  const std::string wal_path =
      ::testing::TempDir() + "/net_server_histogram.wal";
  ::unlink(wal_path.c_str());
  auto svc = DisclosureService::Open(Configure, wal_path, 4);
  Server server(*svc, ServerConfig{});
  Client client(server.port());
  ASSERT_TRUE(client.Serve(ServeReq("alice")).value.granted);
  const std::size_t charges_before =
      svc->Ledger("alice", "dblp").charges().size();
  const auto odometer_before = svc->odometer().All();
  const std::uint64_t appends_before = svc->durability_stats().wal_appends;
  const auto wal_bytes_before = std::filesystem::file_size(wal_path);

  wire::AnswerRequest answer;
  answer.tenant = "alice";
  answer.dataset = "dblp";
  answer.queries.resize(1);
  answer.queries[0].kind = gdp::core::QuerySpec::Kind::kDegreeHistogram;
  answer.queries[0].max_degree = 0xFFFFFFFFu;
  const int raw = RawConnect(server.port());
  RawSend(raw, Magic() + wire::Frame(wire::Encode(answer)));
  std::string buffer;
  const auto err = RawRecvFrame(raw, buffer);
  ASSERT_TRUE(err.has_value());
  ASSERT_EQ(wire::PeekKind(*err), wire::MsgKind::kError);
  EXPECT_EQ(wire::DecodeError(*err).code, wire::ErrorCode::kBadRequest);
  ::close(raw);

  EXPECT_EQ(svc->Ledger("alice", "dblp").charges().size(), charges_before);
  const auto odometer_after = svc->odometer().All();
  ASSERT_EQ(odometer_after.size(), odometer_before.size());
  for (std::size_t i = 0; i < odometer_after.size(); ++i) {
    EXPECT_EQ(odometer_after[i].charges, odometer_before[i].charges);
    EXPECT_EQ(odometer_after[i].epsilon_spent, odometer_before[i].epsilon_spent);
  }
  EXPECT_EQ(svc->durability_stats().wal_appends, appends_before);
  EXPECT_EQ(std::filesystem::file_size(wal_path), wal_bytes_before);
  server.Stop();
  ::unlink(wal_path.c_str());
}

// A tier-6 tenant's 400-point Sweep at level 0 of a 10k-edge, depth-6
// dataset would need a ~34 MB reply, past the 32 MiB frame.  It is refused
// bad-request before any point is charged: the tenant's ledger, the dataset
// odometer and the WAL stay as they were.
TEST(NetServerHostileTest, OversizedSweepIsRefusedBeforeAnyCharge) {
  const std::string wal_path = ::testing::TempDir() + "/net_server_sweep.wal";
  ::unlink(wal_path.c_str());
  auto svc = DisclosureService::Open(
      [](DisclosureService& s) {
        Rng rng(7);
        gdp::graph::DblpLikeParams p;
        p.num_edges = 10000;
        p.num_left = 10000 / 5 + 16;
        p.num_right = 10000 / 3 + 16;
        gdp::core::SessionSpec spec;
        spec.hierarchy.depth = 6;
        s.catalog().Register(
            "wide", gdp::serve::Dataset{GenerateDblpLike(p, rng), spec, 7,
                                        {}, {}});
        s.broker().Register("top", TenantProfile{1e4, 0.4, 6});
      },
      wal_path, 4);
  Server server(*svc, ServerConfig{});
  Client client(server.port());
  const auto first = client.Serve(ServeReq("top", 0.3, "wide"));
  ASSERT_TRUE(first.ok()) << first.message;
  ASSERT_TRUE(first.value.granted) << first.value.denial_reason;
  ASSERT_EQ(first.value.level, 0);
  const std::size_t groups = first.value.view.noisy_group_counts.size();
  ASSERT_GT(gdp::serve::SweepReplyBytes(400, groups),
            gdp::serve::kMaxReplyBytes);
  const std::size_t charges_before =
      svc->Ledger("top", "wide").charges().size();
  const auto odometer_before = svc->odometer().All();
  const std::uint64_t appends_before = svc->durability_stats().wal_appends;
  const auto wal_bytes_before = std::filesystem::file_size(wal_path);

  wire::SweepRequest sweep;
  sweep.tenant = "top";
  sweep.dataset = "wide";
  sweep.budgets.assign(400, ServeReq("top").budget);
  const auto refused = client.Sweep(sweep);
  EXPECT_EQ(refused.status, ReplyStatus::kError);
  EXPECT_EQ(refused.error_code, wire::ErrorCode::kBadRequest)
      << refused.message;

  EXPECT_EQ(svc->Ledger("top", "wide").charges().size(), charges_before);
  const auto odometer_after = svc->odometer().All();
  ASSERT_EQ(odometer_after.size(), odometer_before.size());
  for (std::size_t i = 0; i < odometer_after.size(); ++i) {
    EXPECT_EQ(odometer_after[i].charges, odometer_before[i].charges);
    EXPECT_EQ(odometer_after[i].epsilon_spent,
              odometer_before[i].epsilon_spent);
  }
  EXPECT_EQ(svc->durability_stats().wal_appends, appends_before);
  EXPECT_EQ(std::filesystem::file_size(wal_path), wal_bytes_before);
  // The connection survives the refusal.
  EXPECT_TRUE(client.Serve(ServeReq("top", 0.3, "wide")).value.granted);
  server.Stop();
  ::unlink(wal_path.c_str());
}

// ---------- concurrency (the TSan target) ----------

TEST(NetServerConcurrentTest, ManyClientsManyWorkersNoLostRequests) {
  auto svc = std::make_unique<DisclosureService>(4);
  svc->catalog().Register(
      "dblp", gdp::serve::Dataset{TestGraph(), SmallSpec(), 7, {}, {}});
  constexpr int kThreads = 8;
  constexpr int kRequestsEach = 5;
  for (int t = 0; t < kThreads; ++t) {
    svc->broker().Register("tenant" + std::to_string(t),
                           TenantProfile{100.0, 0.2, t % 5});
  }
  ServerConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  Server server(*svc, config);

  std::vector<std::thread> threads;
  std::vector<int> granted(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &granted, t] {
      Client client(server.port());
      const std::string tenant = "tenant" + std::to_string(t);
      for (int i = 0; i < kRequestsEach; ++i) {
        const auto reply = client.Serve(ServeReq(tenant, 0.25));
        ASSERT_TRUE(reply.ok()) << reply.message;
        ASSERT_TRUE(reply.value.granted) << reply.value.denial_reason;
        granted[t] += 1;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(granted[t], kRequestsEach);
  }
  // Counters increment AFTER the response hits the socket, so joined clients
  // can race ahead of the last worker's bookkeeping — poll them level.
  constexpr auto kTotal = static_cast<std::uint64_t>(kThreads * kRequestsEach);
  wire::StatsResponse stats = server.GetStats();
  for (int spin = 0; spin < 2000 && (stats.requests_completed < kTotal ||
                                     stats.requests_enqueued < kTotal);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server.GetStats();
  }
  EXPECT_EQ(stats.requests_completed, kTotal);
  EXPECT_EQ(stats.requests_enqueued, stats.requests_completed);
  EXPECT_EQ(stats.shed_queue_full, 0u);
  EXPECT_EQ(stats.shed_tenant_inflight, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.connections_accepted,
            static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace gdp::net
