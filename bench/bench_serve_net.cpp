// Standalone GDPNET02 load generator: spins up a socket server over a
// multi-dataset DisclosureService and hammers it with one connection per
// tenant, printing QPS, latency percentiles, and typed-refusal counts.
//
// This is the interactive / scripted twin of BM_NetServeLoad (which records
// the same run shape into BENCH_scalability.json via google-benchmark); it
// links only the gdp library so it builds even without google-benchmark.
//
// usage: bench_serve_net [--tenants N] [--datasets K] [--requests R]
//                        [--workers W] [--queue-depth D] [--edges E]
//                        [--seed S]
//        bench_serve_net --connections C [--duration MS] [--tenants N]
//                        [--workers W] [--queue-depth D] [--edges E]
//                        [--seed S]
//
// With --connections the tool runs the connection-scaling shape instead:
// C mostly-idle connections held open on the epoll loop while N active
// tenants serve for MS milliseconds of wall clock (default 300).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net_loadgen.hpp"

namespace {

long long ArgValue(int argc, char** argv, const char* flag, long long fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return std::atoll(argv[i + 1]);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const long long connections = ArgValue(argc, argv, "--connections", 0);
  if (connections > 0) {
    gdp::net::loadgen::ConnScaleConfig cfg;
    cfg.connections = static_cast<int>(connections);
    cfg.duration_ms =
        static_cast<int>(ArgValue(argc, argv, "--duration", 300));
    cfg.active_tenants =
        static_cast<int>(ArgValue(argc, argv, "--tenants", 8));
    cfg.num_workers =
        static_cast<std::size_t>(ArgValue(argc, argv, "--workers", 4));
    cfg.queue_capacity =
        static_cast<std::size_t>(ArgValue(argc, argv, "--queue-depth", 256));
    cfg.edges = ArgValue(argc, argv, "--edges", 10'000);
    cfg.seed = static_cast<std::uint64_t>(ArgValue(argc, argv, "--seed", 42));
    if (cfg.duration_ms < 1 || cfg.active_tenants < 1) {
      std::fprintf(stderr,
                   "bench_serve_net: --duration/--tenants must be >= 1\n");
      return 2;
    }

    std::printf(
        "conn-scale: %d mostly-idle connections, %d active tenants for "
        "%d ms, %zu workers, queue depth %zu\n",
        cfg.connections, cfg.active_tenants, cfg.duration_ms, cfg.num_workers,
        cfg.queue_capacity);
    const gdp::net::loadgen::ConnScaleResult r =
        gdp::net::loadgen::RunConnScale(cfg);
    std::printf("conns_open %llu\n",
                static_cast<unsigned long long>(r.connections_open));
    std::printf("io_threads %llu\n",
                static_cast<unsigned long long>(r.io_threads));
    std::printf("requests   %llu\n",
                static_cast<unsigned long long>(r.requests));
    std::printf("errors     %llu\n", static_cast<unsigned long long>(r.errors));
    std::printf("elapsed    %.3f s\n", r.elapsed_s);
    std::printf("qps        %.1f\n", r.qps);
    std::printf("p50        %.1f us\n", r.p50_us);
    std::printf("p99        %.1f us\n", r.p99_us);
    // The scaling contract: the idle mass actually stayed attached, on O(1)
    // I/O threads, and the active set saw no typed errors.
    if (r.connections_open <
            static_cast<std::uint64_t>(cfg.connections) ||
        r.errors != 0) {
      std::fprintf(stderr,
                   "bench_serve_net: idle connections dropped or typed "
                   "errors present\n");
      return 1;
    }
    return 0;
  }

  gdp::net::loadgen::LoadGenConfig cfg;
  cfg.num_tenants = static_cast<int>(ArgValue(argc, argv, "--tenants", 128));
  cfg.num_datasets = static_cast<int>(ArgValue(argc, argv, "--datasets", 4));
  cfg.requests_per_tenant =
      static_cast<int>(ArgValue(argc, argv, "--requests", 5));
  cfg.num_workers =
      static_cast<std::size_t>(ArgValue(argc, argv, "--workers", 4));
  cfg.queue_capacity =
      static_cast<std::size_t>(ArgValue(argc, argv, "--queue-depth", 256));
  cfg.edges_per_dataset = ArgValue(argc, argv, "--edges", 10'000);
  cfg.seed = static_cast<std::uint64_t>(ArgValue(argc, argv, "--seed", 42));
  if (cfg.num_tenants < 1 || cfg.num_datasets < 1 ||
      cfg.requests_per_tenant < 1) {
    std::fprintf(stderr,
                 "bench_serve_net: --tenants/--datasets/--requests must be "
                 ">= 1\n");
    return 2;
  }

  std::printf(
      "load: %d tenants x %d requests over %d datasets "
      "(%lld edges each), %zu workers, queue depth %zu\n",
      cfg.num_tenants, cfg.requests_per_tenant, cfg.num_datasets,
      static_cast<long long>(cfg.edges_per_dataset), cfg.num_workers,
      cfg.queue_capacity);

  const gdp::net::loadgen::LoadGenResult r =
      gdp::net::loadgen::RunServeLoad(cfg);

  std::printf("requests   %llu\n", static_cast<unsigned long long>(r.requests));
  std::printf("granted    %llu\n", static_cast<unsigned long long>(r.granted));
  std::printf("denied     %llu\n", static_cast<unsigned long long>(r.denied));
  std::printf("overloaded %llu\n",
              static_cast<unsigned long long>(r.overloaded));
  std::printf("errors     %llu\n", static_cast<unsigned long long>(r.errors));
  std::printf("elapsed    %.3f s\n", r.elapsed_s);
  std::printf("qps        %.1f\n", r.qps);
  std::printf("p50        %.1f us\n", r.p50_us);
  std::printf("p95        %.1f us\n", r.p95_us);
  std::printf("p99        %.1f us\n", r.p99_us);
  // The zero-crash overload contract: every request got SOME typed reply.
  const std::uint64_t accounted =
      r.granted + r.denied + r.overloaded + r.errors;
  if (accounted != r.requests || r.errors != 0) {
    std::fprintf(stderr,
                 "bench_serve_net: %llu replies unaccounted or typed errors "
                 "present\n",
                 static_cast<unsigned long long>(r.requests - accounted));
    return 1;
  }
  return 0;
}
