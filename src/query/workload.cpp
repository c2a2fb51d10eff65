#include "query/workload.hpp"

#include <span>
#include <stdexcept>

#include "core/metrics.hpp"

namespace gdp::query {

Workload& Workload::Add(std::unique_ptr<Query> query) {
  if (!query) {
    throw std::invalid_argument("Workload::Add: null query");
  }
  queries_.push_back(std::move(query));
  return *this;
}

std::vector<QueryRunResult> Workload::Run(const BipartiteGraph& graph,
                                          const Partition& level,
                                          gdp::core::NoiseKind noise,
                                          double epsilon, double delta,
                                          gdp::common::Rng& rng) const {
  std::vector<QueryRunResult> results;
  results.reserve(queries_.size());
  for (const auto& q : queries_) {
    QueryRunResult r;
    r.query_name = q->Name();
    r.truth = q->Evaluate(graph);
    r.sensitivity = q->GroupSensitivity(graph, level);
    if (r.sensitivity == 0.0) {
      r.noisy = r.truth;
    } else {
      const auto mechanism =
          gdp::core::MakeMechanism(noise, epsilon, delta, r.sensitivity);
      r.noise_stddev = mechanism->NoiseStddev();
      r.noisy = r.truth;
      mechanism->AddNoise(std::span<double>(r.noisy), rng);
    }
    r.mean_rer = gdp::core::MeanRelativeErrorRate(r.noisy, r.truth);
    r.mae = gdp::core::MeanAbsoluteError(r.noisy, r.truth);
    r.rmse = gdp::core::RootMeanSquareError(r.noisy, r.truth);
    results.push_back(std::move(r));
  }
  return results;
}

gdp::dp::BudgetCharge Workload::RunCost(double epsilon, double delta) const {
  const auto k = static_cast<double>(queries_.size());
  return gdp::dp::BudgetCharge{
      k * epsilon, k * delta,
      std::to_string(queries_.size()) + " queries, sequential"};
}

}  // namespace gdp::query
