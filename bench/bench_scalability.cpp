// Scalability A4 (google-benchmark): wall time of each pipeline stage as the
// graph grows, confirming the paper's "effective, scalable" claim.
// Generation, Phase-1 specialization, sensitivity computation, and Phase-2
// release are timed separately across graph sizes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.hpp"

#include "common/rng.hpp"
#include "graph/io.hpp"
#include "serve/session_registry.hpp"
#include "storage/snapshot.hpp"
#include "core/pipeline.hpp"
#include "core/release_plan.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"
#include "net_loadgen.hpp"
#include "serve/service.hpp"

namespace {

using namespace gdp;

// Opt-in large mode (GDP_LARGE=1, the nightly job / run_benches.sh --large):
// registers the 10M/100M-edge argument points that are far too slow for the
// CI bench-smoke run.
bool LargeMode() {
  const char* v = std::getenv("GDP_LARGE");
  return v != nullptr && std::string(v) == "1";
}

graph::BipartiteGraph MakeGraph(std::int64_t edges) {
  common::Rng rng(static_cast<std::uint64_t>(edges));
  graph::DblpLikeParams p;
  p.num_edges = static_cast<graph::EdgeCount>(edges);
  p.num_left = static_cast<graph::NodeIndex>(edges / 5 + 16);
  p.num_right = static_cast<graph::NodeIndex>(edges / 3 + 16);
  // From 1M edges up, sample with replacement: the dedup hash set costs
  // multiple GB and an hour of rehashing at 100M edges, and parallel edges
  // are legitimate association data anyway.  (No sub-1M registration
  // crosses this line, so the long-recorded small points are unchanged.)
  p.allow_parallel_edges = edges >= 1'000'000;
  return GenerateDblpLike(p, rng);
}

void BM_GenerateGraph(benchmark::State& state) {
  for (auto _ : state) {
    auto g = MakeGraph(state.range(0));
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateGraph)->Arg(10'000)->Arg(100'000)->Arg(640'000)
    ->Unit(benchmark::kMillisecond);

void BM_SpecializeHierarchy(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  hier::SpecializationConfig cfg;
  cfg.depth = 9;
  cfg.arity = 4;
  cfg.epsilon_per_level = 0.0125;
  cfg.validate_hierarchy = false;
  const hier::Specializer spec(cfg);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    common::Rng rng(++seed);
    auto built = spec.BuildHierarchy(g, rng);
    benchmark::DoNotOptimize(built.num_em_draws);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpecializeHierarchy)->Arg(10'000)->Arg(100'000)->Arg(640'000)
    ->Unit(benchmark::kMillisecond);

void BM_LevelSensitivities(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  hier::SpecializationConfig cfg;
  cfg.depth = 9;
  cfg.validate_hierarchy = false;
  const hier::Specializer spec(cfg);
  common::Rng rng(3);
  const auto built = spec.BuildHierarchy(g, rng);
  for (auto _ : state) {
    auto sens = built.hierarchy.LevelSensitivities(g);
    benchmark::DoNotOptimize(sens.back());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LevelSensitivities)->Arg(10'000)->Arg(100'000)->Arg(640'000)
    ->Unit(benchmark::kMillisecond);

// One full release from the plan, with the plan's node scan and rollup
// inside the loop: the end-to-end cost of a release from a graph.  The
// artifact adopts its hierarchy by value, so it is built once, outside the
// loop; each iteration builds the plan again from that hierarchy and draws
// one release from the artifact, whose plan is bit-identical.
void BM_ReleaseAll_Planned(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  hier::SpecializationConfig cfg;
  cfg.depth = 9;
  cfg.validate_hierarchy = false;
  const hier::Specializer spec(cfg);
  common::Rng rng(5);
  const auto built = spec.BuildHierarchy(g, rng);
  const auto artifact = bench::ArtifactFor(g, built.hierarchy);
  for (auto _ : state) {
    auto plan = core::ReleasePlan::Build(g, artifact->hierarchy());
    benchmark::DoNotOptimize(plan.num_levels());
    auto release = artifact->Release(bench::Phase2Budget(0.999), rng);
    benchmark::DoNotOptimize(release.num_levels());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReleaseAll_Planned)->Arg(10'000)->Arg(100'000)->Arg(640'000)
    ->Unit(benchmark::kMillisecond);

void BM_BuildReleasePlan(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  hier::SpecializationConfig cfg;
  cfg.depth = 9;
  cfg.validate_hierarchy = false;
  const hier::Specializer spec(cfg);
  common::Rng rng(5);
  const auto built = spec.BuildHierarchy(g, rng);
  for (auto _ : state) {
    auto plan = core::ReleasePlan::Build(g, built.hierarchy);
    benchmark::DoNotOptimize(plan.num_levels());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildReleasePlan)->Apply([](benchmark::internal::Benchmark* b) {
  b->Arg(10'000)->Arg(100'000)->Arg(640'000)->Unit(benchmark::kMillisecond);
  if (LargeMode()) {
    b->Arg(10'000'000)->Arg(100'000'000);
  }
});

// Thread sweep of CompiledDisclosure::Release (depth 9): the artifact's
// plan and pool are prebuilt, so this isolates the noise stage — per-level
// streams plus the chunked within-level draw (one RNG substream per
// 8192-group chunk) — and its multicore scaling.  Output is identical at
// every thread count; 1 thread draws on the calling thread, with no pool.
// Arg pair = {edges, ExecSpec::num_threads}.
void BM_ParallelReleaseAll(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  hier::SpecializationConfig cfg;
  cfg.depth = 9;
  cfg.validate_hierarchy = false;
  const hier::Specializer spec(cfg);
  common::Rng rng(5);
  const auto built = spec.BuildHierarchy(g, rng);
  core::ExecSpec exec;
  exec.num_threads = static_cast<int>(state.range(1));
  const auto artifact = bench::ArtifactFor(g, built.hierarchy, exec);
  for (auto _ : state) {
    auto release = artifact->Release(bench::Phase2Budget(0.999), rng);
    benchmark::DoNotOptimize(release.num_levels());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelReleaseAll)
    ->Args({10'000, 2})  // small point: CI smoke + small-graph trajectory
    ->Args({640'000, 0})  // 0 = hardware concurrency (the --threads 0 config)
    ->Args({640'000, 1})
    ->Args({640'000, 2})
    ->Args({640'000, 4})
    ->Args({640'000, 8})
    ->Unit(benchmark::kMillisecond);

// The full compile at scale: Phase-1 EM specialization + the release
// plan's one node scan and rollup, both on the calling thread, i.e. exactly
// what `pack --compile` and a registry MISS pay.  Records wall time AND the
// compile's own peak memory as the `peak_rss_mb` counter: one more compile,
// run in a forked child after the timed loop, reports its high-water mark
// above the resident set it started from (the graph and whatever earlier
// benchmarks left resident), so the bounded-memory claim of the 100M-edge
// acceptance flow is a number in BENCH_scalability.json, not prose.
void BM_CompileAtScale(benchmark::State& state) {
  const std::int64_t edges = state.range(0);
  const auto g = MakeGraph(edges);
  core::SessionSpec spec;
  spec.hierarchy.depth = 9;
  spec.hierarchy.validate_hierarchy = false;
  std::uint64_t seed = 11;
  for (auto _ : state) {
    common::Rng rng(++seed);
    auto compiled = core::CompiledDisclosure::Compile(g, spec, rng);
    benchmark::DoNotOptimize(compiled->plan().num_levels());
  }
  const std::uint64_t peak = gdp::bench::ForkedPeakAboveEntryBytes([&] {
    common::Rng rng(seed);
    auto compiled = core::CompiledDisclosure::Compile(g, spec, rng);
    benchmark::DoNotOptimize(compiled->plan().num_levels());
  });
  state.counters["peak_rss_mb"] =
      static_cast<double>(peak) / (1024.0 * 1024.0);
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_CompileAtScale)->Apply([](benchmark::internal::Benchmark* b) {
  // The 100k point always runs (CI smoke pins the counter's presence via
  // check_bench_json.py --require); the 10M/100M points are nightly-only.
  // No fixed iteration count: it would apply to every row, and a compile
  // at 10M edges already outlasts the minimum time in one iteration.
  b->Arg(100'000)->Unit(benchmark::kMillisecond);
  if (LargeMode()) {
    b->Arg(10'000'000)->Arg(100'000'000);
  }
});

// The ε-sweep pair: identical work product (one release per ε point),
// different amortization.  RebuildPerEpsilon is the pre-session pattern —
// every point pays Phase-1 specialization AND the plan's node scan again.
// SessionSweep opens one DisclosureSession (Phase 1 + plan once) and serves
// every point from the cached plan; the sweep's marginal cost is noise
// drawing alone.  Both run end-to-end inside the timing loop.
const std::vector<double>& SweepEpsilons() {
  static const std::vector<double> eps{0.3, 0.5, 0.7, 0.999};
  return eps;
}

void BM_RebuildPerEpsilon(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  core::SessionSpec spec;
  spec.hierarchy.depth = 9;
  spec.hierarchy.validate_hierarchy = false;
  std::uint64_t seed = 300;
  for (auto _ : state) {
    common::Rng rng(++seed);
    for (const double eps : SweepEpsilons()) {
      spec.budget.epsilon_g = eps;
      auto result = core::RunDisclosure(g, spec, rng);
      benchmark::DoNotOptimize(result.release.num_levels());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(SweepEpsilons().size()));
}
BENCHMARK(BM_RebuildPerEpsilon)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_SessionSweep(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  core::SessionSpec spec;
  spec.hierarchy.depth = 9;
  spec.hierarchy.validate_hierarchy = false;
  std::vector<core::BudgetSpec> budgets;
  for (const double eps : SweepEpsilons()) {
    core::BudgetSpec b = spec.budget;
    b.epsilon_g = eps;
    budgets.push_back(b);
  }
  std::uint64_t seed = 300;
  for (auto _ : state) {
    common::Rng rng(++seed);
    auto session = core::DisclosureSession::Open(g, spec, rng);
    auto releases = session.Sweep(budgets, rng);
    benchmark::DoNotOptimize(releases.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(SweepEpsilons().size()));
}
BENCHMARK(BM_SessionSweep)->Arg(10'000)->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_RegistryHitVsCompile(benchmark::State& state) {
  // The serving layer's core amortization: a registry HIT (range(1) == 1)
  // attaches a tenant and releases from the cached CompiledDisclosure; a
  // MISS (range(1) == 0, fresh registry each iteration) pays the Phase-1 EM
  // build and the plan's node scan first.  The gap is what every tenant
  // after the first saves.
  const auto g = MakeGraph(state.range(0));
  core::SessionSpec spec;
  spec.hierarchy.depth = 9;
  spec.hierarchy.validate_hierarchy = false;
  const bool hit = state.range(1) == 1;
  serve::SessionRegistry warm(1);
  if (hit) {
    benchmark::DoNotOptimize(warm.GetOrCompile("ds", g, spec, 7));
  }
  std::uint64_t seed = 500;
  for (auto _ : state) {
    common::Rng rng(++seed);
    if (hit) {
      auto compiled = warm.GetOrCompile("ds", g, spec, 7);
      auto session = core::DisclosureSession::Attach(std::move(compiled));
      benchmark::DoNotOptimize(session.Release(rng).num_levels());
    } else {
      serve::SessionRegistry cold(1);
      auto compiled = cold.GetOrCompile("ds", g, spec, 7);
      auto session = core::DisclosureSession::Attach(std::move(compiled));
      benchmark::DoNotOptimize(session.Release(rng).num_levels());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RegistryHitVsCompile)
    ->Args({10'000, 0})->Args({10'000, 1})
    ->Args({100'000, 0})->Args({100'000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_MultiTenantServe(benchmark::State& state) {
  // N-tenant throughput through the full service path (broker lookup,
  // registry hit, per-tenant ledger, policy view): one dataset, range(1)
  // tenants spread over the privilege tiers, one request per tenant per
  // iteration.
  const std::int64_t num_tenants = state.range(1);
  serve::DisclosureService service(4);
  core::SessionSpec publication;
  publication.hierarchy.depth = 9;
  publication.hierarchy.validate_hierarchy = false;
  service.catalog().Register(
      "ds", serve::Dataset{MakeGraph(state.range(0)), publication, 7, {}, {}});
  for (std::int64_t t = 0; t < num_tenants; ++t) {
    serve::TenantProfile profile;
    profile.privilege = static_cast<int>(t % 9);
    service.broker().Register("tenant" + std::to_string(t), profile);
  }
  const core::BudgetSpec budget;
  common::Rng rng(900);
  for (auto _ : state) {
    for (std::int64_t t = 0; t < num_tenants; ++t) {
      auto result =
          service.Serve("tenant" + std::to_string(t), "ds", budget, rng);
      benchmark::DoNotOptimize(result.granted);
    }
  }
  state.SetItemsProcessed(state.iterations() * num_tenants);
}
BENCHMARK(BM_MultiTenantServe)
    ->Args({10'000, 1})->Args({10'000, 8})->Args({10'000, 64})
    ->Args({100'000, 8})
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndDisclosure(benchmark::State& state) {
  const auto g = MakeGraph(state.range(0));
  core::SessionSpec spec;
  spec.hierarchy.depth = 9;
  spec.exec.include_group_counts = false;
  spec.hierarchy.validate_hierarchy = false;
  std::uint64_t seed = 100;
  for (auto _ : state) {
    common::Rng rng(++seed);
    auto result = core::RunDisclosure(g, spec, rng);
    benchmark::DoNotOptimize(result.release.num_levels());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EndToEndDisclosure)->Arg(10'000)->Arg(100'000)->Arg(640'000)
    ->Unit(benchmark::kMillisecond);

std::string BenchTempPath(const char* stem, std::int64_t edges,
                          const char* ext) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + std::to_string(edges) + ext))
      .string();
}

// The tentpole claim: restarting from a GDPSNAP01 snapshot (mmap + CRC
// verification, zero-copy column adoption) vs re-parsing the text edge list
// and rebuilding both CSR sides.  arg1 selects the path (0 = text,
// 1 = snapshot); at 1M edges the snapshot load must be >= 10x faster.
void BM_SnapshotLoadVsTextBuild(benchmark::State& state) {
  const std::int64_t edges = state.range(0);
  const bool from_snapshot = state.range(1) != 0;
  const auto g = MakeGraph(edges);
  const std::string text_path = BenchTempPath("gdp_bench_load_", edges, ".tsv");
  const std::string snap_path =
      BenchTempPath("gdp_bench_load_", edges, ".gdps");
  graph::WriteEdgeListFile(g, text_path);
  storage::SnapshotContents contents;
  contents.graph = &g;
  storage::WriteSnapshotFile(snap_path, contents);
  for (auto _ : state) {
    if (from_snapshot) {
      auto snap = storage::Snapshot::Load(snap_path);
      benchmark::DoNotOptimize(snap->graph().num_edges());
    } else {
      auto loaded = graph::ReadEdgeListFile(text_path);
      benchmark::DoNotOptimize(loaded.num_edges());
    }
  }
  state.SetItemsProcessed(state.iterations() * edges);
  std::remove(text_path.c_str());
  std::remove(snap_path.c_str());
}
BENCHMARK(BM_SnapshotLoadVsTextBuild)
    ->Apply([](benchmark::internal::Benchmark* b) {
      b->Args({10'000, 0})
          ->Args({10'000, 1})
          ->Args({1'000'000, 0})
          ->Args({1'000'000, 1})
          ->Unit(benchmark::kMillisecond);
      // No fixed iteration count: it would apply to every row, and a load
      // at 10M edges already outlasts the minimum time in one iteration.
      if (LargeMode()) {
        b->Args({10'000'000, 0})
            ->Args({10'000'000, 1})
            ->Args({100'000'000, 1});
      }
    });

// Cold start of a whole serving process from a packed-and-compiled
// snapshot: lazy catalog materialization, fingerprint-matched plan
// adoption (no Phase-1 EM, no node scan), first request served.
void BM_PackedServeColdStart(benchmark::State& state) {
  const std::int64_t edges = state.range(0);
  const auto g = MakeGraph(edges);
  core::SessionSpec spec;
  spec.hierarchy.validate_hierarchy = false;
  const std::uint64_t seed = 42;
  common::Rng compile_rng(seed);
  const auto compiled = core::CompiledDisclosure::Compile(g, spec, compile_rng);
  storage::SnapshotContents contents;
  contents.graph = &g;
  contents.hierarchy = &compiled->hierarchy();
  contents.plan = &compiled->plan();
  contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
  contents.fingerprint = serve::SessionRegistry::Fingerprint(spec, seed);
  const std::string snap_path =
      BenchTempPath("gdp_bench_cold_", edges, ".gdps");
  storage::WriteSnapshotFile(snap_path, contents);
  serve::TenantProfile profile;
  profile.epsilon_cap = 1e6;
  profile.delta_cap = 0.5;
  profile.privilege = 1;
  for (auto _ : state) {
    serve::DisclosureService svc(4);
    svc.catalog().RegisterSnapshot("ds", snap_path, spec, seed);
    svc.broker().Register("tenant", profile);
    common::Rng rng(7);
    auto result = svc.Serve("tenant", "ds", spec.budget, rng);
    benchmark::DoNotOptimize(result.view.noisy_total);
  }
  state.SetItemsProcessed(state.iterations() * edges);
  std::remove(snap_path.c_str());
}
BENCHMARK(BM_PackedServeColdStart)
    ->Arg(10'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

// The network serving front end under concurrent tenant load: N tenants,
// one connection each, 4 datasets sharing a 4-slot registry (every artifact
// stays cached — the shared-immutable-artifact serving model).  Counters
// record throughput and client-observed latency percentiles; `shed` and
// `typed_errors` pin the overload contract (refusals are typed, never
// crashes — at this queue depth both should be zero).
void BM_NetServeLoad(benchmark::State& state) {
  net::loadgen::LoadGenConfig cfg;
  cfg.num_tenants = static_cast<int>(state.range(0));
  net::loadgen::LoadGenResult r;
  for (auto _ : state) {
    r = net::loadgen::RunServeLoad(cfg);
  }
  if (r.errors != 0) {
    state.SkipWithError("typed Error replies under load");
  }
  state.counters["qps"] = r.qps;
  state.counters["p50_us"] = r.p50_us;
  state.counters["p95_us"] = r.p95_us;
  state.counters["p99_us"] = r.p99_us;
  state.counters["shed"] = static_cast<double>(r.overloaded);
  state.counters["typed_errors"] = static_cast<double>(r.errors);
  state.SetItemsProcessed(static_cast<std::int64_t>(r.requests) *
                          state.iterations());
}
BENCHMARK(BM_NetServeLoad)
    ->Arg(32)    // CI smoke
    ->Arg(128)   // the recorded >=100-concurrent-tenant datapoint
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Connection scaling on the epoll loop: hold N mostly-idle connections open
// while a small active set serves.  The thread-per-connection design this
// replaced spent one OS thread per idle socket; here the whole idle mass is
// epoll interest entries on ONE I/O thread (`io_threads` pins that), and
// `qps`/`p99_us` of the active set measure its interference with the hot
// path.  `conns_open` below the arg means the run is invalid (fd limit hit
// or idle connections dropped) — raise `ulimit -n` past the largest arg.
void BM_NetConnScale(benchmark::State& state) {
  net::loadgen::ConnScaleConfig cfg;
  cfg.connections = static_cast<int>(state.range(0));
  net::loadgen::ConnScaleResult r;
  for (auto _ : state) {
    r = net::loadgen::RunConnScale(cfg);
  }
  if (r.connections_open < static_cast<std::uint64_t>(cfg.connections)) {
    state.SkipWithError("idle connections dropped (check ulimit -n)");
  }
  if (r.errors != 0) {
    state.SkipWithError("typed Error replies under connection load");
  }
  state.counters["conns_open"] = static_cast<double>(r.connections_open);
  state.counters["io_threads"] = static_cast<double>(r.io_threads);
  state.counters["qps"] = r.qps;
  state.counters["p50_us"] = r.p50_us;
  state.counters["p99_us"] = r.p99_us;
  state.SetItemsProcessed(static_cast<std::int64_t>(r.requests) *
                          state.iterations());
}
BENCHMARK(BM_NetConnScale)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1024)  // the O(1)-threads-at-1024-connections datapoint
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
