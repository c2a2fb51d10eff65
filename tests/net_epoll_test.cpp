// The epoll-specific serving contracts net_server_test does not pin:
//   - connection scalability: >= 1024 mostly-idle connections held open on
//     O(1) I/O threads, surviving a short slow-loris timeout,
//   - partial writes: a response hitting EAGAIN mid-frame is finished via
//     EPOLLOUT re-arming, never lost and never blocking a worker,
//   - per-connection noise streams: seed-deterministic for a fixed accept
//     order, byte-identical across server instances, and ZERO global RNG
//     mutex acquisitions on the hot path (the contention seam),
//   - Stop() racing a connect flood: the accept gate closes first, no
//     registration can leak past the drain,
//   - client EINTR: interrupting signals never surface spurious IoErrors.
// The concurrent per-connection test is a TSan target in CI.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
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

std::unique_ptr<DisclosureService> MakeService() {
  auto svc = std::make_unique<DisclosureService>(4);
  svc->catalog().Register(
      "dblp", gdp::serve::Dataset{TestGraph(), SmallSpec(), 7, {}, {}});
  svc->broker().Register("alice", TenantProfile{100.0, 0.2, 0});
  svc->broker().Register("bob", TenantProfile{100.0, 0.2, 0});
  return svc;
}

wire::ServeRequest ServeReq(const std::string& tenant, double eps = 0.3) {
  wire::ServeRequest req;
  req.tenant = tenant;
  req.dataset = "dblp";
  req.budget.epsilon_g = eps;
  return req;
}

std::string Magic() { return std::string(wire::kMagic, wire::kMagicSize); }

int RawConnect(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    // Before connect: the window is negotiated at handshake time.
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
              0);
  }
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

std::optional<std::string> RawRecvFrame(int fd, std::string& buffer) {
  char chunk[64 * 1024];
  for (;;) {
    std::optional<std::string> payload = wire::TryDeframe(buffer);
    if (payload.has_value()) {
      return payload;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return std::nullopt;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return std::nullopt;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// The process's live thread count, from /proc/self/status.  The scalability
// contract is that this does NOT grow with connections.
int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoi(line.substr(8));
    }
  }
  return -1;
}

// ---------- connection scalability ----------

TEST(NetEpollScaleTest, Holds1024IdleConnectionsOnO1IoThreads) {
  auto svc = MakeService();
  ServerConfig config;
  config.read_timeout_ms = 200;  // short: idle conns must NOT be on it
  Server server(*svc, config);
  ASSERT_EQ(Server::io_threads(), 1u);

  constexpr int kConns = 1024;
  const int threads_before = ThreadCount();
  ASSERT_GT(threads_before, 0);

  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    const int fd = RawConnect(server.port());
    ASSERT_GE(fd, 0);
    // Delivering the magic takes each connection OFF the slow-loris clock:
    // idle-between-requests is free, only mid-message silence is timed.
    RawSend(fd, Magic());
    fds.push_back(fd);
  }

  // Crossing 1024 connections must not have spawned a single thread — the
  // per-connection-reader design this replaces would have spawned 1024.
  EXPECT_EQ(ThreadCount(), threads_before);

  // Sit out more than the read timeout: nobody owes bytes, nobody dies.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  wire::StatsResponse stats = server.GetStats();
  EXPECT_EQ(stats.connections_open, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(stats.io_threads, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  // The table is live, not just open: first, middle, and last connections
  // all serve (and the response proves the 1024-way epoll interest set
  // routes to the right fd).
  for (const int idx : {0, kConns / 2, kConns - 1}) {
    RawSend(fds[static_cast<std::size_t>(idx)],
            wire::Frame(wire::Encode(ServeReq("alice", 0.05))));
    std::string buffer;
    const auto payload =
        RawRecvFrame(fds[static_cast<std::size_t>(idx)], buffer);
    ASSERT_TRUE(payload.has_value()) << "connection " << idx << " dead";
    EXPECT_EQ(wire::PeekKind(*payload), wire::MsgKind::kServeResponse);
  }

  // A half-sent frame still dies on the clock even at this scale (the sweep
  // scans 1024 connections and closes exactly the guilty one).
  RawSend(fds[3], std::string(4, '\x01'));
  std::string buffer;
  EXPECT_FALSE(RawRecvFrame(fds[3], buffer).has_value());
  EXPECT_GE(server.GetStats().protocol_errors, 1u);

  for (const int fd : fds) {
    ::close(fd);
  }
}

// ---------- partial writes ----------

TEST(NetEpollTest, PartialWriteIsFlushedViaEpolloutRearming) {
  auto svc = MakeService();
  ServerConfig config;
  config.num_workers = 2;
  // Generous: the deliberately unread responses below must not trip the
  // slow-loris clock (the peer owes us nothing while we stall reading).
  config.read_timeout_ms = 30000;
  Server server(*svc, config);

  // A capped receive window plus deliberately-unread multi-MB responses
  // forces the server's sends into EAGAIN mid-frame: each response is far
  // larger than the kernel can buffer on both sides of the loopback pair.
  const int raw = RawConnect(server.port(), /*rcvbuf=*/64 * 1024);
  wire::AnswerRequest answer;
  answer.tenant = "alice";
  answer.dataset = "dblp";
  answer.budget.epsilon_g = 0.05;
  // Six degree histograms with a huge cap: 200002 noisy doubles per query,
  // ~9.6 MB per response (frame cap is 32 MB; send buffers top out at a few
  // MiB).
  answer.queries.resize(6);
  for (gdp::core::QuerySpec& q : answer.queries) {
    q.kind = gdp::core::QuerySpec::Kind::kDegreeHistogram;
    q.max_degree = 200000;
  }
  constexpr int kRequests = 2;
  std::string pipelined = Magic();
  for (int i = 0; i < kRequests; ++i) {
    pipelined += wire::Frame(wire::Encode(answer));
  }
  RawSend(raw, pipelined);

  // Let every job complete while we read NOTHING: workers must park the
  // bytes and move on, not block inside send().
  while (server.requests_completed() < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server.GetStats().partial_writes, 1u);

  // Now drain: every parked byte arrives intact and in order.
  std::string buffer;
  for (int i = 0; i < kRequests; ++i) {
    const auto payload = RawRecvFrame(raw, buffer);
    ASSERT_TRUE(payload.has_value()) << "response " << i << " lost";
    ASSERT_EQ(wire::PeekKind(*payload), wire::MsgKind::kAnswerResponse);
    const wire::AnswerResponse got = wire::DecodeAnswerResponse(*payload);
    ASSERT_EQ(got.results.size(), 6u);
    EXPECT_EQ(got.results[0].noisy.size(), 200002u);
  }
  ::close(raw);
}

// ---------- per-connection noise streams ----------

// Runs the same request script against a fresh server and returns the raw
// response payloads, per connection, in order.
std::vector<std::vector<std::string>> RunPerConnScript(std::uint64_t seed) {
  auto svc = MakeService();
  ServerConfig config;
  config.seed = seed;
  config.noise_streams = NoiseStreamMode::kPerConnection;
  Server server(*svc, config);

  std::vector<std::vector<std::string>> out(2);
  // Accept order is the stream key, so pin it: finish a round trip on the
  // first connection before opening the second.
  const int fd0 = RawConnect(server.port());
  RawSend(fd0, Magic());
  std::string buf0;
  const char* tenants[2] = {"alice", "bob"};
  RawSend(fd0, wire::Frame(wire::Encode(ServeReq(tenants[0]))));
  out[0].push_back(*RawRecvFrame(fd0, buf0));

  const int fd1 = RawConnect(server.port());
  RawSend(fd1, Magic());
  std::string buf1;
  RawSend(fd1, wire::Frame(wire::Encode(ServeReq(tenants[1]))));
  out[1].push_back(*RawRecvFrame(fd1, buf1));

  // Second request on each: draws continue each connection's own stream.
  RawSend(fd0, wire::Frame(wire::Encode(ServeReq(tenants[0]))));
  out[0].push_back(*RawRecvFrame(fd0, buf0));
  RawSend(fd1, wire::Frame(wire::Encode(ServeReq(tenants[1]))));
  out[1].push_back(*RawRecvFrame(fd1, buf1));

  EXPECT_EQ(server.rng_mutex_acquisitions(), 0u)
      << "per-connection mode took the global RNG mutex";
  const wire::StatsResponse stats = server.GetStats();
  EXPECT_EQ(stats.noise_streams, 1);
  EXPECT_EQ(stats.rng_mutex_acquisitions, 0u);
  ::close(fd0);
  ::close(fd1);
  return out;
}

TEST(NetNoiseStreamTest, PerConnectionModeIsSeedDeterministicPerAcceptOrder) {
  const auto first = RunPerConnScript(99);
  const auto second = RunPerConnScript(99);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t c = 0; c < first.size(); ++c) {
    ASSERT_EQ(first[c].size(), second[c].size());
    for (std::size_t i = 0; i < first[c].size(); ++i) {
      // Byte-identical across server instances: the stream is a pure
      // function of (seed, accept order, per-connection request order).
      EXPECT_EQ(first[c][i], second[c][i])
          << "conn " << c << " request " << i << " not reproducible";
    }
  }
  // Different connections draw decorrelated noise from the same seed.
  EXPECT_NE(first[0][0], first[1][0]);
  // And a different seed moves every draw.
  const auto other = RunPerConnScript(100);
  EXPECT_NE(first[0][0], other[0][0]);
}

TEST(NetNoiseStreamTest, SharedModeStillSerializesOnTheGlobalStream) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});  // default: kShared
  Client client(server.port());
  ASSERT_TRUE(client.Serve(ServeReq("alice")).ok());
  // The seam the per-connection assertions lean on actually counts.
  EXPECT_GE(server.rng_mutex_acquisitions(), 1u);
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value.noise_streams, 0);
  EXPECT_GE(stats.value.rng_mutex_acquisitions, 1u);
}

// ---------- concurrency in per-connection mode (the TSan target) ----------

TEST(NetEpollConcurrentTest, PerConnectionServeUnderConcurrencyIsLockFree) {
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
  config.noise_streams = NoiseStreamMode::kPerConnection;
  Server server(*svc, config);

  std::vector<std::thread> threads;
  std::vector<int> granted(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &granted, t] {
      Client client(server.port());
      wire::ServeRequest req;
      req.tenant = "tenant" + std::to_string(t);
      req.dataset = "dblp";
      req.budget.epsilon_g = 0.25;
      for (int i = 0; i < kRequestsEach; ++i) {
        const auto reply = client.Serve(req);
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
  // The whole point of the mode: zero hot-path acquisitions of the global
  // RNG mutex, even with 8 connections and 4 workers racing.
  EXPECT_EQ(server.rng_mutex_acquisitions(), 0u);
  constexpr auto kTotal = static_cast<std::uint64_t>(kThreads * kRequestsEach);
  wire::StatsResponse stats = server.GetStats();
  for (int spin = 0; spin < 2000 && stats.requests_completed < kTotal;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server.GetStats();
  }
  EXPECT_EQ(stats.requests_completed, kTotal);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---------- Stop() vs connect flood ----------

TEST(NetEpollTest, StopToleratesConnectFloodWithoutLateRegistrations) {
  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const std::uint16_t port = server.port();

  std::atomic<bool> stop_flooding{false};
  std::vector<std::thread> flooders;
  flooders.reserve(4);
  for (int t = 0; t < 4; ++t) {
    flooders.emplace_back([port, &stop_flooding] {
      while (!stop_flooding.load(std::memory_order_relaxed)) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
          continue;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        // Failure is the point once the gate closes; any outcome but a
        // server crash/hang is correct.
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          const std::string magic = Magic();
          (void)::send(fd, magic.data(), magic.size(), MSG_NOSIGNAL);
        }
        ::close(fd);
      }
    });
  }
  // Let the flood establish, then stop mid-flood: the accept gate must
  // close before the drain, so no connection can register against a
  // tearing-down table.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  stop_flooding.store(true, std::memory_order_relaxed);
  for (std::thread& t : flooders) {
    t.join();
  }
  // The table fully unwound: every accepted connection was also closed.
  EXPECT_EQ(server.GetStats().connections_open, 0u);
  // And the listener is really gone.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_NE(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ::close(fd);
}

// ---------- EINTR ----------

void NoopHandler(int) {}

// An interval timer peppering the CLIENT thread with non-SA_RESTART signals:
// every connect/send/recv in the round trips below may return EINTR, and
// none of it may surface as a spurious IoError.  SIGALRM is blocked on the
// main thread BEFORE the server exists, so every server thread inherits the
// block and only the client thread takes the interrupts.
TEST(NetEintrTest, ClientRoundTripsSurviveInterruptingSignals) {
  sigset_t alarm_set;
  sigemptyset(&alarm_set);
  sigaddset(&alarm_set, SIGALRM);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &alarm_set, nullptr), 0);

  auto svc = MakeService();
  Server server(*svc, ServerConfig{});
  const std::uint16_t port = server.port();

  struct sigaction sa{};
  sa.sa_handler = NoopHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls must see EINTR
  struct sigaction old_sa{};
  ASSERT_EQ(sigaction(SIGALRM, &sa, &old_sa), 0);

  itimerval timer{};
  timer.it_interval.tv_usec = 2000;  // every 2 ms
  timer.it_value.tv_usec = 2000;
  ASSERT_EQ(setitimer(ITIMER_REAL, &timer, nullptr), 0);

  std::atomic<int> completed{0};
  std::string failure;
  std::thread client_thread([&] {
    // The one thread that takes SIGALRM.
    sigset_t unblock;
    sigemptyset(&unblock);
    sigaddset(&unblock, SIGALRM);
    pthread_sigmask(SIG_UNBLOCK, &unblock, nullptr);
    try {
      for (int i = 0; i < 25; ++i) {
        Client client(port);  // a fresh connect() under fire each time
        const auto reply = client.Serve(ServeReq("alice", 0.05));
        if (!reply.ok() || !reply.value.granted) {
          failure = "round trip " + std::to_string(i) +
                    " failed: " + reply.message;
          return;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception& e) {
      failure = e.what();
    }
  });
  client_thread.join();

  itimerval disarm{};
  setitimer(ITIMER_REAL, &disarm, nullptr);
  sigaction(SIGALRM, &old_sa, nullptr);
  pthread_sigmask(SIG_UNBLOCK, &alarm_set, nullptr);

  EXPECT_EQ(failure, "");
  EXPECT_EQ(completed.load(), 25);
}

}  // namespace
}  // namespace gdp::net
