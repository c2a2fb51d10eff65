// Group-level sensitivity of association-count queries.
//
// Under g-group adjacency at hierarchy level ℓ (Definition 3 of the paper:
// D1 = D2 ∪ G for a level-ℓ group G), removing G removes every association
// incident to a node of G.  A group is side-pure and every association
// touches exactly one node per side, so a group's contribution to the
// association count equals the sum of its members' degrees.  Hence:
//
//   Δℓ  =  max over level-ℓ groups G of  Σ_{v∈G} deg(v)
//
// Specialisations: level 0 (singletons) gives Δ0 = max node degree — the
// classic node-DP sensitivity; the top level gives Δ = |E| (one side-group
// covers every association).
//
// For the per-group count vector released at one level, changing one group G
// changes G's own entry by its full weight AND the entries of groups on the
// opposite side by the number of shared edges; the L2 norm of that change is
// bounded by sqrt(2)·Δℓ (own entry Δℓ, cross entries summing to ≤ Δℓ in L1
// hence ≤ Δℓ in L2).  VectorSensitivity returns that bound.
#pragma once

#include "dp/sensitivity.hpp"
#include "hier/hierarchy.hpp"

namespace gdp::core {

using gdp::graph::BipartiteGraph;
using gdp::graph::EdgeCount;
using gdp::hier::GroupHierarchy;
using gdp::hier::Partition;

// Δ for the scalar association-count query at one level.
[[nodiscard]] EdgeCount CountSensitivity(const BipartiteGraph& graph,
                                         const Partition& level);

// The sqrt(2)·Δ L2 bound of the per-group count vector, from an already
// computed scalar Δ.  Single home of the bound, shared by the per-level path
// and ReleasePlan.  Throws on Δ = 0 (cannot calibrate; release exact zeros).
[[nodiscard]] gdp::dp::L2Sensitivity VectorSensitivityFromScalar(
    EdgeCount scalar);

// L2 sensitivity of the per-group count vector at one level (see header
// comment).  Throws if the level has no edges incident to any group (Δ = 0
// cannot calibrate a mechanism; callers should release the exact zeros).
[[nodiscard]] gdp::dp::L2Sensitivity VectorSensitivity(
    const BipartiteGraph& graph, const Partition& level);

}  // namespace gdp::core
