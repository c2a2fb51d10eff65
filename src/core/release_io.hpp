// Serialization of release artifacts.
//
// Text format (TSV, line-oriented, # comments allowed):
//   gdp-release v1
//   levels <n>
//   level <i> <sensitivity> <noise_stddev> <group_noise_stddev>
//         <true_total> <noisy_total> <num_groups>
//   group_counts <i> <true_0> <noisy_0> <true_1> <noisy_1> ...
// (each level line is one line in the file, wrapped above for width).
// A stripped release serialises zeros in the true_* slots, so the same
// format serves both evaluation artifacts and publishable ones.
#pragma once

#include <iosfwd>
#include <string>

#include "core/release.hpp"

namespace gdp::core {

void WriteRelease(const MultiLevelRelease& release, std::ostream& out);

// Throws gdp::common::IoError on malformed input.
[[nodiscard]] MultiLevelRelease ReadRelease(std::istream& in);

void WriteReleaseFile(const MultiLevelRelease& release, const std::string& path);
[[nodiscard]] MultiLevelRelease ReadReleaseFile(const std::string& path);

}  // namespace gdp::core
