// SessionRegistry: compile once, serve every tenant.
//
// The registry caches CompiledDisclosure artifacts keyed by
// (dataset, graph shape, fingerprint) where the fingerprint canonically
// encodes every spec input the compiled bits depend on: hierarchy shape,
// opening budget, the exec contract (grain is part of the output; the
// thread count is not), and the compile seed.  The graph's
// node/edge counts are folded into the key as a cheap identity proxy, so a
// dataset name rebound to a different graph misses instead of serving stale
// statistics.  Two tenants asking for the same
// dataset under the same publication spec share ONE artifact — one Phase-1
// EM build and one GroupDegreeSums node scan total, however many tenants
// arrive (compiled_disclosure_test pins the scan count).
//
// Capacity is bounded; the least-recently-used artifact is evicted when a
// compile would exceed it.  Eviction only drops the registry's reference:
// tenants holding the artifact via shared_ptr keep serving from it, and the
// memory is reclaimed when the last handle drops.  A later request for the
// evicted key recompiles — deterministically, because the compile seed is
// part of the key — so eviction is invisible except in latency and in the
// hit/miss/evict stats.
//
// Thread-safe.  The compile itself runs under the registry lock: this
// serialises cold compiles, but guarantees a key is compiled exactly once
// even when N tenants miss simultaneously — the right trade at
// catalog-of-datasets scale, where hits dominate and duplicate Phase-1
// builds would waste far more than the queueing.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled_disclosure.hpp"
#include "graph/bipartite_graph.hpp"
#include "storage/snapshot.hpp"

namespace gdp::serve {

class SessionRegistry {
 public:
  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t evictions{0};
    // Misses served by adopting a snapshot-embedded plan instead of
    // compiling (subset of misses).
    std::uint64_t snapshot_adoptions{0};
  };

  // Throws std::invalid_argument when capacity == 0.
  explicit SessionRegistry(std::size_t capacity);

  // The canonical identity of a compiled artifact: every spec field that
  // changes the compiled bits or the released values, plus the compile
  // seed.  Caps are EXCLUDED — they are per-tenant grants, not part of the
  // artifact — and so is the thread count, which changes wall time only.
  [[nodiscard]] static std::string Fingerprint(
      const gdp::core::SessionSpec& spec, std::uint64_t compile_seed);

  // Return the cached artifact for (dataset, Fingerprint(spec, seed)), or
  // compile it from `graph` with a fresh Rng(compile_seed) on miss (evicting
  // the LRU entry if at capacity).  `graph` must outlive the artifact; it is
  // only read on miss.
  //
  // When `snapshot` is non-null and embeds a plan whose stored fingerprint
  // EQUALS Fingerprint(spec, compile_seed), a miss adopts the snapshot's
  // hierarchy + plan (CompiledDisclosure::FromPrecompiled — no EM build, no
  // node scan) instead of compiling.  The fingerprint discipline is what
  // makes this sound: the stored fingerprint canonically encodes the spec +
  // seed the plan was compiled under, so a snapshot packed under ANY other
  // publication silently falls back to a fresh compile — never to wrong
  // statistics.  Adoption is bit-identical to the compile it replaces
  // (pinned by snapshot_serve_test); `snapshot` must outlive the artifact
  // whenever its graph is the `graph` passed here (the usual catalog
  // arrangement — Dataset keeps the snapshot handle alive).
  [[nodiscard]] std::shared_ptr<const gdp::core::CompiledDisclosure>
  GetOrCompile(const std::string& dataset,
               const gdp::graph::BipartiteGraph& graph,
               const gdp::core::SessionSpec& spec, std::uint64_t compile_seed,
               const gdp::storage::Snapshot* snapshot = nullptr);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  // Cache keys ("dataset|fingerprint"), most recently used first (tests pin
  // the eviction order through this).
  [[nodiscard]] std::vector<std::string> KeysMostRecentFirst() const;

 private:
  using Entry =
      std::pair<std::string,
                std::shared_ptr<const gdp::core::CompiledDisclosure>>;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace gdp::serve
