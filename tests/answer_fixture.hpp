// Graphs, compiled artifacts and query lists shared by the
// CompiledDisclosure::Answer tests (query_test, workload_test) and the
// Answer wire tests (net_wire_test).
#pragma once

#include <cstddef>
#include <memory>

#include "common/rng.hpp"
#include "core/compiled_disclosure.hpp"
#include "graph/generators.hpp"

namespace gdp::core::answer_fixture {

// Left degrees 2, 3, 1; right degrees 1, 2, 1, 2.
inline graph::BipartiteGraph SmallGraph() {
  return graph::BipartiteGraph(
      3, 4, {{0, 0}, {0, 1}, {1, 1}, {1, 2}, {1, 3}, {2, 3}});
}

inline graph::BipartiteGraph RandomGraph() {
  common::Rng rng(5);
  return graph::GenerateUniformRandom(100, 80, 600, rng);
}

inline std::shared_ptr<const CompiledDisclosure> CompileSmall(
    const graph::BipartiteGraph& g, int depth = 1, int num_threads = 1,
    std::size_t grain = 8192) {
  SessionSpec spec;
  spec.hierarchy.depth = depth;
  spec.hierarchy.arity = 2;
  spec.exec.num_threads = num_threads;
  spec.exec.noise_chunk_grain = grain;
  common::Rng rng(11);
  return CompiledDisclosure::Compile(g, spec, rng);
}

inline QuerySpec Histogram(graph::Side side, std::size_t max_degree) {
  QuerySpec q;
  q.kind = QuerySpec::Kind::kDegreeHistogram;
  q.side = side;
  q.max_degree = max_degree;
  return q;
}

inline QuerySpec Of(QuerySpec::Kind kind) {
  QuerySpec q;
  q.kind = kind;
  return q;
}

inline const BudgetSpec kBudget{0.9, 1e-5, 0.1, NoiseKind::kGaussian};

}  // namespace gdp::core::answer_fixture
