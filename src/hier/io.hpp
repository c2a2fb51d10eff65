// GroupHierarchy serialization.
//
// The hierarchy is part of the published artifact (consumers need the group
// structure to interpret per-group counts), so it gets a stable text format:
//
//   gdp-hierarchy v1
//   dims <num_left> <num_right>
//   levels <n>
//   level <i> <num_groups>
//   parents <p_0> ... <p_{num_groups-1}>        (kNoParent as -1)
//   left_labels <g_0> ... <g_{num_left-1}>
//   right_labels <g_0> ... <g_{num_right-1}>
//   ... (next level)
//
// The grammar is common/text_reader.hpp's, with no trailing fields and
// every count bounded (docs/FORMATS.md, "Text formats").  Group sides/sizes
// are reconstructed from the labels; the reader re-runs full Partition +
// refinement validation, so a tampered file cannot produce an inconsistent
// hierarchy.
#pragma once

#include <iosfwd>
#include <string>

#include "hier/hierarchy.hpp"

namespace gdp::hier {

void WriteHierarchy(const GroupHierarchy& hierarchy, std::ostream& out);

// Throws gdp::common::IoError on malformed input; std::invalid_argument if
// the parsed levels do not form a valid hierarchy.
[[nodiscard]] GroupHierarchy ReadHierarchy(std::istream& in);

void WriteHierarchyFile(const GroupHierarchy& hierarchy, const std::string& path);
[[nodiscard]] GroupHierarchy ReadHierarchyFile(const std::string& path);

}  // namespace gdp::hier
