#include "hier/specialization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dp/exponential.hpp"

namespace gdp::hier {

const char* SplitQualityName(SplitQuality q) noexcept {
  switch (q) {
    case SplitQuality::kEdgeBalance:
      return "edge_balance";
    case SplitQuality::kNodeBalance:
      return "node_balance";
    case SplitQuality::kRandom:
      return "random";
  }
  return "?";
}

std::vector<std::size_t> CutCandidates(std::size_t group_size, int max_candidates) {
  if (max_candidates < 1) {
    throw std::invalid_argument("CutCandidates: max_candidates must be >= 1");
  }
  std::vector<std::size_t> cuts;
  if (group_size < 2) {
    return cuts;
  }
  const std::size_t all = group_size - 1;  // positions 1..group_size-1
  const auto want = static_cast<std::size_t>(max_candidates);
  if (all <= want) {
    cuts.reserve(all);
    for (std::size_t c = 1; c < group_size; ++c) {
      cuts.push_back(c);
    }
    return cuts;
  }
  cuts.reserve(want);
  // Evenly spaced interior positions; endpoints 0 and group_size excluded.
  for (std::size_t i = 1; i <= want; ++i) {
    const auto c = static_cast<std::size_t>(
        static_cast<double>(i) * static_cast<double>(group_size) /
        static_cast<double>(want + 1));
    cuts.push_back(std::clamp<std::size_t>(c, 1, group_size - 1));
  }
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  return cuts;
}

std::vector<double> CutUtilities(std::span<const EdgeCount> ordered_degrees,
                                 std::span<const std::size_t> cut_positions,
                                 SplitQuality quality) {
  const std::size_t n = ordered_degrees.size();
  std::vector<double> utilities;
  utilities.reserve(cut_positions.size());
  // Prefix sums for the edge-balance score.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + static_cast<double>(ordered_degrees[i]);
  }
  const double total = prefix[n];
  for (const std::size_t c : cut_positions) {
    if (c == 0 || c >= n) {
      throw std::invalid_argument("CutUtilities: cut position out of range");
    }
    switch (quality) {
      case SplitQuality::kEdgeBalance:
        utilities.push_back(-std::fabs(prefix[c] - (total - prefix[c])));
        break;
      case SplitQuality::kNodeBalance:
        utilities.push_back(-std::fabs(static_cast<double>(c) -
                                       static_cast<double>(n - c)));
        break;
      case SplitQuality::kRandom:
        utilities.push_back(0.0);
        break;
    }
  }
  return utilities;
}

Specializer::Specializer(SpecializationConfig config) : config_(config) {
  if (config_.depth < 1) {
    throw std::invalid_argument("Specializer: depth must be >= 1");
  }
  if (config_.arity < 2 || (config_.arity & (config_.arity - 1)) != 0) {
    throw std::invalid_argument("Specializer: arity must be a power of two >= 2");
  }
  if (!(config_.epsilon_per_level > 0.0)) {
    throw std::invalid_argument("Specializer: epsilon_per_level must be > 0");
  }
  if (!(config_.utility_sensitivity > 0.0)) {
    throw std::invalid_argument("Specializer: utility_sensitivity must be > 0");
  }
  if (config_.max_cut_candidates < 1) {
    throw std::invalid_argument("Specializer: max_cut_candidates must be >= 1");
  }
}

namespace {

// Working representation of one group during the build.
struct WorkGroup {
  Side side;
  GroupId parent;  // id in the previous (coarser) level
  std::vector<NodeIndex> nodes;  // ascending node-index order
};

}  // namespace

SpecializationResult Specializer::BuildHierarchy(
    const BipartiteGraph& graph, gdp::common::Rng& rng,
    gdp::common::ThreadPool* pool) const {
  using gdp::common::ForEachChunk;
  if (graph.num_left() == 0 || graph.num_right() == 0) {
    throw std::invalid_argument("Specializer: graph must have nodes on both sides");
  }
  // Level 0 assigns one group id per node with kNoParent reserved as the
  // sentinel; reject before any allocation sized from the oversized count.
  if (graph.total_nodes() >= static_cast<std::uint64_t>(kNoParent)) {
    throw gdp::common::CapacityError(
        "Specializer: graph has " + std::to_string(graph.total_nodes()) +
        " nodes; singleton group ids must fit the 32-bit GroupId range "
        "(kNoParent reserved)");
  }
  const std::vector<EdgeCount> left_degrees = graph.Degrees(Side::kLeft);
  const std::vector<EdgeCount> right_degrees = graph.Degrees(Side::kRight);

  const int binary_rounds_per_level =
      static_cast<int>(std::lround(std::log2(config_.arity)));
  const double eps_per_binary_round =
      config_.epsilon_per_level / static_cast<double>(binary_rounds_per_level);
  const gdp::dp::ExponentialMechanism em(
      gdp::dp::Epsilon(eps_per_binary_round),
      gdp::dp::L1Sensitivity(config_.utility_sensitivity));

  // Chunk width of per-node stages (degree gathers, label writes): within-
  // group index ranges are disjoint element reads/writes, so chunking cannot
  // perturb any output.
  constexpr std::size_t kNodeGrain = 1 << 16;
  // Chunk width of a round's per-group stages.  Without a pool the round is
  // one chunk, with one scratch buffer.  With a pool, a round of at least
  // two groups a worker runs about eight chunks a worker; a round with fewer
  // groups stays one chunk, and its giant groups chunk their per-node stages
  // by kNodeGrain instead.
  const auto group_grain = [pool](std::size_t num_groups) {
    const std::size_t workers =
        pool == nullptr ? 0 : static_cast<std::size_t>(pool->size());
    if (workers == 0 || num_groups < 2 * workers) {
      return std::max<std::size_t>(1, num_groups);
    }
    return std::max<std::size_t>(1, num_groups / (8 * workers));
  };

  std::size_t em_draws = 0;

  // Cut candidates and utilities of one group — a pure function of the
  // group's (public) node order and degrees, safe to evaluate in parallel
  // across groups.  utilities stays empty when the group is too small.
  struct SplitPrep {
    std::vector<std::size_t> cuts;
    std::vector<double> utilities;
  };
  const auto prepare_group = [&](const WorkGroup& g, SplitPrep& prep,
                                 std::vector<EdgeCount>& degrees_scratch) {
    prep.cuts = CutCandidates(g.nodes.size(), config_.max_cut_candidates);
    if (prep.cuts.empty()) {
      return;
    }
    const std::vector<EdgeCount>& degs =
        g.side == Side::kLeft ? left_degrees : right_degrees;
    degrees_scratch.resize(g.nodes.size());
    // A giant group chunks its gather by node range; the FP prefix sums
    // inside CutUtilities stay sequential — their summation order is part
    // of the bit-parity contract across pool sizes.
    ForEachChunk(pool, g.nodes.size(), kNodeGrain,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     degrees_scratch[i] = degs[g.nodes[i]];
                   }
                 });
    prep.utilities = CutUtilities(degrees_scratch, prep.cuts, config_.quality);
  };

  // One binary round over `current`, staged so the O(nodes) work shards:
  //   A (chunked, pure)  — per-group cut candidates + degree gathers +
  //                        cut utilities;
  //   B (sequential)     — one EM draw per splittable group, in group
  //                        order: the rng consumption order IS the
  //                        determinism contract, so stage B never leaves
  //                        the calling thread;
  //   C (chunked)        — materialize next-round groups at precomputed
  //                        slots (1 slot unsplit, 2 split).
  // Stage boundaries and slot layout depend only on the groups themselves,
  // never on the pool, so every pool size produces the same hierarchy as
  // the no-pool build, bit for bit.
  const auto binary_round = [&](std::vector<WorkGroup>& current) {
    const std::size_t grain = group_grain(current.size());
    std::vector<SplitPrep> prep(current.size());
    ForEachChunk(pool, current.size(), grain,
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   std::vector<EdgeCount> scratch;
                   for (std::size_t i = begin; i < end; ++i) {
                     prepare_group(current[i], prep[i], scratch);
                   }
                 });

    std::vector<std::size_t> pick(current.size(), 0);
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (!prep[i].cuts.empty()) {
        pick[i] = em.Select(prep[i].utilities, rng);
        ++em_draws;
      }
    }

    std::vector<std::size_t> slot(current.size() + 1, 0);
    for (std::size_t i = 0; i < current.size(); ++i) {
      slot[i + 1] = slot[i] + (prep[i].cuts.empty() ? 1 : 2);
    }
    std::vector<WorkGroup> next(slot.back());
    ForEachChunk(
        pool, current.size(), grain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            WorkGroup& g = current[i];
            if (prep[i].cuts.empty()) {
              next[slot[i]] = std::move(g);
              continue;
            }
            const std::size_t cut = prep[i].cuts[pick[i]];
            WorkGroup second{g.side, g.parent, {}};
            second.nodes.assign(
                g.nodes.begin() + static_cast<std::ptrdiff_t>(cut),
                g.nodes.end());
            g.nodes.resize(cut);
            next[slot[i]] = std::move(g);
            next[slot[i] + 1] = std::move(second);
          }
        });
    current = std::move(next);
  };

  // Top level: one group per side.
  std::vector<WorkGroup> current;
  {
    WorkGroup left{Side::kLeft, kNoParent, {}};
    left.nodes.resize(graph.num_left());
    for (NodeIndex v = 0; v < graph.num_left(); ++v) {
      left.nodes[v] = v;
    }
    WorkGroup right{Side::kRight, kNoParent, {}};
    right.nodes.resize(graph.num_right());
    for (NodeIndex v = 0; v < graph.num_right(); ++v) {
      right.nodes[v] = v;
    }
    current.push_back(std::move(left));
    current.push_back(std::move(right));
  }

  const auto to_partition = [&](const std::vector<WorkGroup>& groups) {
    std::vector<GroupId> left_labels(graph.num_left(), 0);
    std::vector<GroupId> right_labels(graph.num_right(), 0);
    std::vector<GroupInfo> infos;
    infos.reserve(groups.size());
    for (GroupId id = 0; id < groups.size(); ++id) {
      const WorkGroup& g = groups[id];
      infos.push_back(
          GroupInfo{g.side, static_cast<NodeIndex>(g.nodes.size()), g.parent});
    }
    // Label writes are disjoint per group (and per node range within one),
    // so every chunk layout reproduces the sequential fill exactly.
    ForEachChunk(
        pool, groups.size(), group_grain(groups.size()),
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t id = begin; id < end; ++id) {
            const WorkGroup& g = groups[id];
            GroupId* const labels =
                (g.side == Side::kLeft ? left_labels : right_labels).data();
            ForEachChunk(pool, g.nodes.size(), kNodeGrain,
                         [&](std::size_t, std::size_t b, std::size_t e) {
                           for (std::size_t i = b; i < e; ++i) {
                             labels[g.nodes[i]] = static_cast<GroupId>(id);
                           }
                         });
          }
        });
    return Partition(std::move(left_labels), std::move(right_labels),
                     std::move(infos));
  };

  // levels_desc[0] = coarsest; built downward.
  std::vector<Partition> levels_desc;
  levels_desc.push_back(to_partition(current));

  const int transitions = config_.depth - 1;  // level depth -> ... -> level 1
  for (int t = 0; t < transitions; ++t) {
    // Each transition: log2(arity) binary rounds over every group.
    // Record each group's parent = its index in the *previous* level.
    for (GroupId id = 0; id < current.size(); ++id) {
      current[id].parent = id;
    }
    for (int round = 0; round < binary_rounds_per_level; ++round) {
      binary_round(current);
    }
    levels_desc.push_back(to_partition(current));
  }

  // Level 0: singletons, parented to the finest grouped level.  Left nodes
  // take ids [0, num_left), right nodes follow — the same assignment as the
  // sequential single loop, filled per disjoint node range.
  const Partition& finest = levels_desc.back();
  {
    const std::size_t nl = graph.num_left();
    const std::size_t total = static_cast<std::size_t>(graph.total_nodes());
    std::vector<GroupId> left_labels(graph.num_left());
    std::vector<GroupId> right_labels(graph.num_right());
    std::vector<GroupInfo> infos(total);
    ForEachChunk(
        pool, total, kNodeGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t x = begin; x < end; ++x) {
            if (x < nl) {
              const auto v = static_cast<NodeIndex>(x);
              left_labels[v] = static_cast<GroupId>(x);
              infos[x] =
                  GroupInfo{Side::kLeft, 1, finest.GroupOf(Side::kLeft, v)};
            } else {
              const auto v = static_cast<NodeIndex>(x - nl);
              right_labels[v] = static_cast<GroupId>(x);
              infos[x] =
                  GroupInfo{Side::kRight, 1, finest.GroupOf(Side::kRight, v)};
            }
          }
        });
    levels_desc.push_back(Partition(std::move(left_labels),
                                    std::move(right_labels), std::move(infos)));
  }

  // Reorder ascending: level 0 first.
  std::vector<Partition> levels_asc;
  levels_asc.reserve(levels_desc.size());
  for (auto it = levels_desc.rbegin(); it != levels_desc.rend(); ++it) {
    levels_asc.push_back(std::move(*it));
  }

  SpecializationResult result{
      GroupHierarchy(std::move(levels_asc), config_.validate_hierarchy),
      static_cast<double>(transitions) * config_.epsilon_per_level, em_draws};
  return result;
}

}  // namespace gdp::hier
