// The fixed Phase-1 builds whose artifacts tests/data/golden_hierarchy.tsv
// pins bit for bit, shared by specialization_test and the program that wrote
// the file.  One tab-separated line per configuration:
//
//   graph depth arity quality max_cut_candidates epsilon_per_level seed
//   num_em_draws epsilon_spent_bits next_rng_output level_crcs
//
// where level_crcs is one CRC-32 per level, level 0 first, over the level's
// labels (left side, then right) and its group infos (side byte, size,
// parent), every integer little-endian.  The configurations cover depth 1,
// 2, 6 and 9, arity 2, 4 and 8, every SplitQuality and max_cut_candidates 1,
// 7 and 63 over three graphs: a DBLP-like 10k-edge graph, a skewed-degree
// graph, and a graph with fewer nodes than the deeper hierarchies can split.
// The file was written by the member-vector build that preceded the
// node-range one, and no test rewrites it: changing a configuration or a
// graph here means regenerating it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "hier/specialization.hpp"

namespace gdp::hier::hierarchy_fixture {

struct GoldenConfig {
  const char* graph;  // "dblp", "skewed" or "tiny"
  int depth;
  int arity;
  SplitQuality quality;
  int max_cut_candidates;
  double epsilon_per_level;
  std::uint64_t seed;
};

inline gdp::graph::BipartiteGraph GoldenGraph(std::string_view name) {
  using gdp::graph::DblpLikeParams;
  if (name == "dblp") {
    DblpLikeParams p;
    p.num_left = 2000;
    p.num_right = 3000;
    p.num_edges = 10000;
    gdp::common::Rng rng(7);
    return gdp::graph::GenerateDblpLike(p, rng);
  }
  if (name == "skewed") {
    // Rank exponents above 1: a handful of nodes hold a large share of the
    // edges, so edge-balanced cuts land far from the node midpoint.
    DblpLikeParams p;
    p.num_left = 3000;
    p.num_right = 1200;
    p.num_edges = 10000;
    p.left_zipf_exponent = 1.1;
    p.right_zipf_exponent = 0.9;
    p.allow_parallel_edges = true;
    gdp::common::Rng rng(11);
    return gdp::graph::GenerateDblpLike(p, rng);
  }
  if (name == "tiny") {
    // 5 + 7 nodes: a depth-6, arity-4 hierarchy runs out of cuts early.
    return gdp::graph::BipartiteGraph(
        5, 7,
        {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 4}, {3, 5}, {4, 6},
         {4, 0}, {2, 6}});
  }
  throw std::invalid_argument("GoldenGraph: unknown graph");
}

inline const std::vector<GoldenConfig>& GoldenConfigs() {
  using Q = SplitQuality;
  static const std::vector<GoldenConfig> kConfigs = {
      {"dblp", 9, 4, Q::kEdgeBalance, 63, 0.05, 1},
      {"dblp", 6, 4, Q::kEdgeBalance, 63, 0.05, 2},
      {"dblp", 6, 2, Q::kEdgeBalance, 7, 0.05, 3},
      {"dblp", 6, 8, Q::kEdgeBalance, 63, 2.0, 4},
      {"dblp", 2, 4, Q::kEdgeBalance, 63, 0.05, 5},
      {"dblp", 1, 4, Q::kEdgeBalance, 63, 0.05, 6},
      {"dblp", 9, 2, Q::kNodeBalance, 63, 0.05, 7},
      {"dblp", 6, 4, Q::kRandom, 63, 0.05, 8},
      {"dblp", 9, 8, Q::kEdgeBalance, 1, 0.05, 9},
      {"dblp", 6, 4, Q::kNodeBalance, 7, 1.0, 10},
      {"skewed", 9, 4, Q::kEdgeBalance, 63, 0.05, 11},
      {"skewed", 6, 4, Q::kEdgeBalance, 7, 2.0, 12},
      {"skewed", 6, 8, Q::kEdgeBalance, 1, 0.05, 13},
      {"skewed", 2, 2, Q::kEdgeBalance, 63, 0.5, 14},
      {"skewed", 9, 2, Q::kEdgeBalance, 7, 0.05, 15},
      {"skewed", 6, 4, Q::kNodeBalance, 63, 0.05, 16},
      {"skewed", 6, 2, Q::kRandom, 7, 0.05, 17},
      {"skewed", 1, 8, Q::kEdgeBalance, 63, 0.05, 18},
      {"skewed", 9, 8, Q::kRandom, 1, 0.05, 19},
      {"tiny", 9, 4, Q::kEdgeBalance, 63, 0.05, 20},
      {"tiny", 6, 2, Q::kEdgeBalance, 1, 0.05, 21},
      {"tiny", 6, 8, Q::kNodeBalance, 7, 0.05, 22},
      {"tiny", 2, 4, Q::kRandom, 63, 0.05, 23},
      {"tiny", 1, 2, Q::kEdgeBalance, 7, 0.05, 24},
      {"tiny", 9, 8, Q::kEdgeBalance, 7, 3.0, 25},
      {"tiny", 6, 4, Q::kEdgeBalance, 63, 0.05, 26},
  };
  return kConfigs;
}

inline void PutLe32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

// CRC-32 of one level: labels (left, then right), then group infos.
inline std::uint32_t LevelCrc(const Partition& level) {
  std::string bytes;
  for (const Side side : {Side::kLeft, Side::kRight}) {
    for (const GroupId id : level.labels(side)) {
      PutLe32(bytes, id);
    }
  }
  for (const GroupInfo& info : level.groups()) {
    bytes.push_back(info.side == Side::kLeft ? '\0' : '\1');
    PutLe32(bytes, info.size);
    PutLe32(bytes, info.parent);
  }
  return gdp::common::Crc32(bytes);
}

// Phase 1 of `config` over `graph` (GoldenGraph(config.graph)), drawing
// from `rng`, which starts at Rng(config.seed).
inline SpecializationResult BuildGolden(const GoldenConfig& config,
                                        const gdp::graph::BipartiteGraph& graph,
                                        gdp::common::Rng& rng) {
  SpecializationConfig cfg;
  cfg.depth = config.depth;
  cfg.arity = config.arity;
  cfg.quality = config.quality;
  cfg.max_cut_candidates = config.max_cut_candidates;
  cfg.epsilon_per_level = config.epsilon_per_level;
  return Specializer(cfg).BuildHierarchy(graph, rng);
}

// The golden line of `config` built over `graph` (GoldenGraph(config.graph)).
inline std::string GoldenLine(const GoldenConfig& config,
                              const gdp::graph::BipartiteGraph& graph) {
  gdp::common::Rng rng(config.seed);
  const SpecializationResult built = BuildGolden(config, graph, rng);
  char head[256];
  std::snprintf(head, sizeof head,
                "%s\t%d\t%d\t%s\t%d\t%g\t%llu\t%zu\t%016llx\t%016llx\t",
                config.graph, config.depth, config.arity,
                SplitQualityName(config.quality), config.max_cut_candidates,
                config.epsilon_per_level,
                static_cast<unsigned long long>(config.seed),
                built.num_em_draws,
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(built.epsilon_spent)),
                static_cast<unsigned long long>(rng()));
  std::string line = head;
  for (int level = 0; level < built.hierarchy.num_levels(); ++level) {
    char crc[16];
    std::snprintf(crc, sizeof crc, "%s%08x", level == 0 ? "" : ",",
                  static_cast<unsigned>(LevelCrc(built.hierarchy.level(level))));
    line += crc;
  }
  return line;
}

}  // namespace gdp::hier::hierarchy_fixture
