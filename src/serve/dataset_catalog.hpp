// DatasetCatalog: named, published datasets.
//
// The paper's deployment (Fig. 1) publishes ONE dataset to MANY users at
// different privilege tiers.  The catalog is the service's source of truth
// for what is published: a graph, the publication spec every tenant of that
// dataset shares (hierarchy shape, exec policy, opening budget), the
// deterministic compile seed, and optionally an explicit privilege→level
// access mapping.
//
// Two registration paths:
//
//   * Register(name, Dataset) — eager: the caller already holds the graph
//     (built from a text edge list or synthesized) and the entry is ready
//     immediately.
//   * RegisterSnapshot(name, path, ...) — lazy: only the path is recorded;
//     the GDPSNAP01 file is mmap'd, CRC-verified, and turned into a Dataset
//     on the FIRST Get of that name.  A catalog of a thousand packed
//     datasets costs nothing at startup for the ones nobody touches; a
//     corrupt file surfaces as SnapshotFormatError from the first Get (and
//     the entry stays retryable — a later Get after the file is repaired
//     loads normally).
//
// Entries are registered once and never removed (a published dataset cannot
// be unpublished out from under live compiled artifacts, which hold raw
// references to the graph), so Get's reference stays valid for the catalog's
// lifetime.  Thread-safe: Register/Get/Contains may race freely; concurrent
// first-Gets of one snapshot entry materialize it exactly once (a per-entry
// load mutex), and a materialized entry's Get is one acquire load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/compiled_disclosure.hpp"
#include "graph/bipartite_graph.hpp"
#include "storage/snapshot.hpp"

namespace gdp::serve {

struct Dataset {
  gdp::graph::BipartiteGraph graph;
  // The spec all tenants of this dataset share.  Its epsilon_cap/delta_cap
  // are only the default grant for tenants without a broker profile.
  gdp::core::SessionSpec publication;
  // Seed of the Rng that drives the Phase-1 EM build on compile (and
  // recompile after eviction): the artifact is a deterministic function of
  // (graph, publication, compile_seed).
  std::uint64_t compile_seed{42};
  // Explicit AccessPolicy mapping (tier → level).  Empty selects
  // AccessPolicy::Uniform over the compiled hierarchy's levels: the lowest
  // tier gets the coarsest view, the highest tier level 0.
  std::vector<int> access_levels;
  // Set for snapshot-backed entries: the mmap'd GDPSNAP01 the graph's
  // columns borrow from.  Holding it here keeps the mapping alive for as
  // long as the Dataset (and any artifact compiled from its graph) can be
  // reached, and hands SessionRegistry the embedded plan to adopt.
  std::shared_ptr<const gdp::storage::Snapshot> snapshot;
};

class DatasetCatalog {
 public:
  // Throws gdp::common::StateError when `name` is already registered.
  void Register(std::string name, Dataset dataset);

  // Record a GDPSNAP01 file for lazy loading: nothing is read here; the
  // first Get(name) mmaps + validates the file and builds the Dataset (its
  // graph borrowing the mapping zero-copy).  Throws StateError when `name`
  // is already registered.  The publication/seed pair is the identity the
  // snapshot's embedded plan (if any) is matched against at compile time —
  // a mismatch is not an error here, it just means the registry falls back
  // to a fresh compile.
  void RegisterSnapshot(std::string name, std::string snapshot_path,
                        gdp::core::SessionSpec publication,
                        std::uint64_t compile_seed = 42,
                        std::vector<int> access_levels = {});

  // Throws gdp::common::NotFoundError for an unknown name.  For a snapshot
  // entry the first call materializes it (IoError/SnapshotFormatError on a
  // missing/corrupt file; the entry stays registered and a later Get
  // retries).  The reference stays valid for the catalog's lifetime.
  [[nodiscard]] const Dataset& Get(const std::string& name) const;

  [[nodiscard]] bool Contains(const std::string& name) const;
  // True once the entry's Dataset exists in memory — immediately for eager
  // entries, after the first successful Get for snapshot entries.  Pins the
  // "untouched datasets cost nothing" contract in tests.  Throws
  // NotFoundError for an unknown name.
  [[nodiscard]] bool Materialized(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  struct Entry {
    // Empty for eager entries; the file to load for snapshot entries.
    std::string snapshot_path;
    gdp::core::SessionSpec publication;
    std::uint64_t compile_seed{42};
    std::vector<int> access_levels;
    // Serializes snapshot loads of this entry.  A load that throws
    // publishes nothing, so a later Get retries — the semantics a transient
    // I/O failure wants.
    mutable std::mutex load_mutex;
    // Owns the Dataset once it exists; written once (at Register, or under
    // load_mutex), then never again.
    mutable std::unique_ptr<const Dataset> dataset;
    // dataset.get(), published with release order once the Dataset is
    // complete: a Get that reads it non-null needs no lock.
    mutable std::atomic<const Dataset*> published{nullptr};
  };

  // Find the entry or throw NotFoundError; the pointer stays valid forever
  // (entries are never removed and unique_ptr keeps addresses stable).
  [[nodiscard]] const Entry& Find(const std::string& name) const;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Entry>> datasets_;
};

}  // namespace gdp::serve
