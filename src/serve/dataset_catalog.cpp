#include "serve/dataset_catalog.hpp"

#include <utility>

#include "common/error.hpp"

namespace gdp::serve {

void DatasetCatalog::Register(std::string name, Dataset dataset) {
  auto entry = std::make_unique<Entry>();
  entry->publication = dataset.publication;
  entry->compile_seed = dataset.compile_seed;
  entry->access_levels = dataset.access_levels;
  entry->dataset = std::make_unique<const Dataset>(std::move(dataset));
  entry->published.store(entry->dataset.get(), std::memory_order_release);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      datasets_.try_emplace(std::move(name), std::move(entry));
  if (!inserted) {
    throw gdp::common::StateError("DatasetCatalog: dataset '" + it->first +
                                  "' is already registered");
  }
}

void DatasetCatalog::RegisterSnapshot(std::string name,
                                      std::string snapshot_path,
                                      gdp::core::SessionSpec publication,
                                      std::uint64_t compile_seed,
                                      std::vector<int> access_levels) {
  auto entry = std::make_unique<Entry>();
  entry->snapshot_path = std::move(snapshot_path);
  entry->publication = std::move(publication);
  entry->compile_seed = compile_seed;
  entry->access_levels = std::move(access_levels);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      datasets_.try_emplace(std::move(name), std::move(entry));
  if (!inserted) {
    throw gdp::common::StateError("DatasetCatalog: dataset '" + it->first +
                                  "' is already registered");
  }
}

const DatasetCatalog::Entry& DatasetCatalog::Find(
    const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    throw gdp::common::NotFoundError("DatasetCatalog: unknown dataset '" +
                                     name + "'");
  }
  return *it->second;
}

const Dataset& DatasetCatalog::Get(const std::string& name) const {
  const Entry& entry = Find(name);
  if (const Dataset* ds = entry.published.load(std::memory_order_acquire)) {
    return *ds;
  }
  // Materialization runs OUTSIDE the catalog mutex: mmap'ing and verifying
  // one multi-GB snapshot must not stall Gets of every other dataset.  The
  // entry's own load mutex still makes concurrent first-Gets of THIS entry
  // load once: the losers find the winner's Dataset published.
  const std::lock_guard<std::mutex> lock(entry.load_mutex);
  if (const Dataset* ds = entry.published.load(std::memory_order_acquire)) {
    return *ds;
  }
  auto snapshot = gdp::storage::Snapshot::Load(entry.snapshot_path);
  // The graph copy is cheap: its columns are borrowed views that alias (and
  // keep alive) the snapshot's mapping.
  entry.dataset = std::make_unique<const Dataset>(
      Dataset{snapshot->graph(), entry.publication, entry.compile_seed,
              entry.access_levels, std::move(snapshot)});
  entry.published.store(entry.dataset.get(), std::memory_order_release);
  return *entry.dataset;
}

bool DatasetCatalog::Contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return datasets_.find(name) != datasets_.end();
}

bool DatasetCatalog::Materialized(const std::string& name) const {
  return Find(name).published.load(std::memory_order_acquire) != nullptr;
}

std::size_t DatasetCatalog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return datasets_.size();
}

std::vector<std::string> DatasetCatalog::Names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) {
    names.push_back(name);
  }
  return names;
}

}  // namespace gdp::serve
