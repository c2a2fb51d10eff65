// Shared load generator for the GDPNET02 serving front end: spin up a
// Server over a DisclosureService with K datasets (K <= the registry
// capacity, so artifacts stay cached) and N tenants, open one connection
// per tenant, fire requests concurrently, and report QPS + latency
// percentiles + typed-refusal counts.  Used by BM_NetServeLoad in
// bench_scalability.cpp (the recorded trajectory datapoint) and by the
// standalone bench_serve_net tool (interactive load-gen runs).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"

namespace gdp::net::loadgen {

struct LoadGenConfig {
  int num_tenants{100};
  int num_datasets{4};         // <= registry_capacity: artifacts stay cached
  int requests_per_tenant{5};
  std::size_t num_workers{4};
  std::size_t queue_capacity{256};
  std::size_t registry_capacity{4};
  std::int64_t edges_per_dataset{10'000};
  int hierarchy_depth{6};
  std::uint64_t seed{42};
};

struct LoadGenResult {
  std::uint64_t requests{0};
  std::uint64_t granted{0};
  std::uint64_t denied{0};
  std::uint64_t overloaded{0};  // typed sheds — expected under pressure
  std::uint64_t errors{0};      // typed Error replies — expected zero
  double elapsed_s{0.0};
  double qps{0.0};
  double p50_us{0.0};
  double p95_us{0.0};
  double p99_us{0.0};
};

inline double PercentileUs(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) {
    return 0.0;
  }
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

inline gdp::graph::BipartiteGraph LoadGenGraph(std::int64_t edges,
                                               std::uint64_t seed) {
  gdp::common::Rng rng(seed);
  gdp::graph::DblpLikeParams p;
  p.num_edges = static_cast<gdp::graph::EdgeCount>(edges);
  p.num_left = static_cast<gdp::graph::NodeIndex>(edges / 5 + 16);
  p.num_right = static_cast<gdp::graph::NodeIndex>(edges / 3 + 16);
  return GenerateDblpLike(p, rng);
}

// One full fleet run.  Every reply must be a typed response — a transport
// error or protocol violation throws out of here (the zero-crash contract
// is the caller's assertion).
inline LoadGenResult RunServeLoad(const LoadGenConfig& cfg) {
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = cfg.hierarchy_depth;
  spec.hierarchy.validate_hierarchy = false;

  gdp::serve::DisclosureService service(cfg.registry_capacity);
  std::vector<std::string> datasets;
  for (int d = 0; d < cfg.num_datasets; ++d) {
    const std::string name = "ds" + std::to_string(d);
    service.catalog().Register(
        name,
        gdp::serve::Dataset{
            LoadGenGraph(cfg.edges_per_dataset, cfg.seed + 100 + d), spec,
            cfg.seed + d, {}, {}});
    datasets.push_back(name);
  }
  gdp::serve::TenantProfile profile;
  profile.epsilon_cap = 1e6;
  profile.delta_cap = 0.5;
  for (int t = 0; t < cfg.num_tenants; ++t) {
    profile.privilege = t % (cfg.hierarchy_depth + 1);
    service.broker().Register("tenant" + std::to_string(t), profile);
  }
  service.broker().Register("warm", gdp::serve::TenantProfile{1e6, 0.5, 0});

  ServerConfig server_cfg;
  server_cfg.num_workers = cfg.num_workers;
  server_cfg.queue_capacity = cfg.queue_capacity;
  server_cfg.seed = cfg.seed;
  Server server(service, server_cfg);

  // Pre-warm: compile every artifact outside the timed window so the run
  // measures steady-state serving, not Phase-1 specialization.
  {
    Client warm(server.port());
    for (const std::string& ds : datasets) {
      wire::ServeRequest req;
      req.tenant = "warm";
      req.dataset = ds;
      (void)warm.Serve(req);
    }
  }

  std::atomic<std::uint64_t> granted{0};
  std::atomic<std::uint64_t> denied{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> errors{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(cfg.num_tenants) *
                       static_cast<std::size_t>(cfg.requests_per_tenant));

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> tenants;
  tenants.reserve(static_cast<std::size_t>(cfg.num_tenants));
  for (int t = 0; t < cfg.num_tenants; ++t) {
    tenants.emplace_back([&, t] {
      Client client(server.port());
      std::vector<double> local_us;
      local_us.reserve(static_cast<std::size_t>(cfg.requests_per_tenant));
      wire::ServeRequest req;
      req.tenant = "tenant" + std::to_string(t);
      for (int i = 0; i < cfg.requests_per_tenant; ++i) {
        req.dataset = datasets[static_cast<std::size_t>((t + i) %
                                                        cfg.num_datasets)];
        const auto t0 = std::chrono::steady_clock::now();
        const auto reply = client.Serve(req);
        const auto t1 = std::chrono::steady_clock::now();
        local_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        switch (reply.status) {
          case ReplyStatus::kOk:
            (reply.value.granted ? granted : denied)
                .fetch_add(1, std::memory_order_relaxed);
            break;
          case ReplyStatus::kOverloaded:
            overloaded.fetch_add(1, std::memory_order_relaxed);
            break;
          case ReplyStatus::kError:
            errors.fetch_add(1, std::memory_order_relaxed);
            break;
        }
      }
      const std::lock_guard<std::mutex> lock(latency_mutex);
      latencies_us.insert(latencies_us.end(), local_us.begin(),
                          local_us.end());
    });
  }
  for (std::thread& t : tenants) {
    t.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  LoadGenResult result;
  result.requests = static_cast<std::uint64_t>(latencies_us.size());
  result.granted = granted.load();
  result.denied = denied.load();
  result.overloaded = overloaded.load();
  result.errors = errors.load();
  result.elapsed_s = elapsed_s;
  result.qps = elapsed_s > 0.0
                   ? static_cast<double>(result.requests) / elapsed_s
                   : 0.0;
  result.p50_us = PercentileUs(latencies_us, 0.50);
  result.p95_us = PercentileUs(latencies_us, 0.95);
  result.p99_us = PercentileUs(latencies_us, 0.99);
  return result;
}

// ---------------------------------------------------------------------------
// Connection-scaling run: hold `connections` mostly-idle connections open on
// the epoll loop while a small active set serves for a fixed wall-clock
// `duration_ms`.  This is the datapoint the thread-per-connection design
// could not produce: N idle sockets cost N reader threads there, but cost
// one epoll interest entry here.  QPS/latency of the active set measure the
// interference of the idle mass on the hot path.

struct ConnScaleConfig {
  int connections{128};   // mostly-idle open connections held for the run
  int duration_ms{300};   // active-request window (wall clock)
  int active_tenants{8};  // tenants firing requests during the window
  std::size_t num_workers{4};
  std::size_t queue_capacity{256};
  std::int64_t edges{10'000};
  int hierarchy_depth{6};
  std::uint64_t seed{42};
};

struct ConnScaleResult {
  std::uint64_t connections_open{0};  // server-side view at steady state
  std::uint64_t io_threads{0};
  std::uint64_t requests{0};
  std::uint64_t errors{0};
  double elapsed_s{0.0};
  double qps{0.0};
  double p50_us{0.0};
  double p99_us{0.0};
};

// An idle GDPNET02 connection: connected, magic delivered (so it is off the
// slow-loris clock), then silent.  Returns the fd; -1 on failure.
inline int OpenIdleConn(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  std::size_t sent = 0;
  while (sent < wire::kMagicSize) {
    const ssize_t n = ::send(fd, wire::kMagic + sent, wire::kMagicSize - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      ::close(fd);
      return -1;
    }
    sent += static_cast<std::size_t>(n);
  }
  return fd;
}

inline ConnScaleResult RunConnScale(const ConnScaleConfig& cfg) {
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = cfg.hierarchy_depth;
  spec.hierarchy.validate_hierarchy = false;

  gdp::serve::DisclosureService service(2);
  service.catalog().Register(
      "ds0", gdp::serve::Dataset{LoadGenGraph(cfg.edges, cfg.seed + 100),
                                 spec, cfg.seed, {}, {}});
  gdp::serve::TenantProfile profile;
  profile.epsilon_cap = 1e6;
  profile.delta_cap = 0.5;
  for (int t = 0; t < cfg.active_tenants; ++t) {
    profile.privilege = t % (cfg.hierarchy_depth + 1);
    service.broker().Register("tenant" + std::to_string(t), profile);
  }

  ServerConfig server_cfg;
  server_cfg.num_workers = cfg.num_workers;
  server_cfg.queue_capacity = cfg.queue_capacity;
  server_cfg.seed = cfg.seed;
  Server server(service, server_cfg);

  // Pre-warm the artifact outside the timed window.
  {
    Client warm(server.port());
    wire::ServeRequest req;
    req.tenant = "tenant0";
    req.dataset = "ds0";
    (void)warm.Serve(req);
  }

  // The idle mass.  A failed open here is a result, not an exception — it
  // shows up as connections_open below the target.
  std::vector<int> idle_fds;
  idle_fds.reserve(static_cast<std::size_t>(cfg.connections));
  for (int i = 0; i < cfg.connections; ++i) {
    const int fd = OpenIdleConn(server.port());
    if (fd >= 0) {
      idle_fds.push_back(fd);
    }
  }

  std::atomic<std::uint64_t> errors{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_us;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(cfg.duration_ms);
  std::vector<std::thread> actives;
  actives.reserve(static_cast<std::size_t>(cfg.active_tenants));
  for (int t = 0; t < cfg.active_tenants; ++t) {
    actives.emplace_back([&, t] {
      Client client(server.port());
      std::vector<double> local_us;
      wire::ServeRequest req;
      req.tenant = "tenant" + std::to_string(t);
      req.dataset = "ds0";
      while (std::chrono::steady_clock::now() < deadline) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto reply = client.Serve(req);
        const auto t1 = std::chrono::steady_clock::now();
        local_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (reply.status == ReplyStatus::kError) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const std::lock_guard<std::mutex> lock(latency_mutex);
      latencies_us.insert(latencies_us.end(), local_us.begin(),
                          local_us.end());
    });
  }
  for (std::thread& t : actives) {
    t.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Sample the server's view while the idle mass is still attached.
  const wire::StatsResponse stats = server.GetStats();
  for (const int fd : idle_fds) {
    ::close(fd);
  }
  server.Stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  ConnScaleResult result;
  result.connections_open = stats.connections_open;
  result.io_threads = stats.io_threads;
  result.requests = static_cast<std::uint64_t>(latencies_us.size());
  result.errors = errors.load();
  result.elapsed_s = elapsed_s;
  result.qps = elapsed_s > 0.0
                   ? static_cast<double>(result.requests) / elapsed_s
                   : 0.0;
  result.p50_us = PercentileUs(latencies_us, 0.50);
  result.p99_us = PercentileUs(latencies_us, 0.99);
  return result;
}

}  // namespace gdp::net::loadgen
