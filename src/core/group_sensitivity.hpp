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

#include "common/rng.hpp"
#include "dp/privacy_params.hpp"
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

// DP estimate of a degree cap for worst-case sensitivity bounding.
//
// The pipeline's per-level Δ is a *local* sensitivity (computed from the
// realized data).  For a worst-case deployment, estimate a high degree
// quantile under ε-DP (Exponential-Mechanism quantile over both sides'
// degrees), truncate the graph to that cap (graph::TruncateDegreesBothSides),
// and use  Δℓ = (max level-ℓ group size) · cap  as a data-independent bound.
// `headroom` multiplies the estimate so that the cap rarely bites typical
// nodes (default 1.5).  Returns a cap >= 1.
[[nodiscard]] gdp::graph::EdgeCount EstimateDegreeCapDp(
    const BipartiteGraph& graph, gdp::dp::Epsilon eps, double quantile,
    double headroom, gdp::common::Rng& rng);

}  // namespace gdp::core
