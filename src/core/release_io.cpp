#include "core/release_io.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>

#include "common/error.hpp"
#include "common/text_reader.hpp"
#include "hier/hierarchy.hpp"

namespace gdp::core {

using gdp::common::IoError;

void WriteRelease(const MultiLevelRelease& release, std::ostream& out) {
  out << "gdp-release v1\n";
  out << "levels " << release.num_levels() << '\n';
  out << std::setprecision(17);
  for (const LevelRelease& lr : release.levels()) {
    out << "level " << lr.level << ' ' << lr.sensitivity << ' '
        << lr.noise_stddev << ' ' << lr.group_noise_stddev << ' '
        << lr.true_total << ' ' << lr.noisy_total << ' '
        << lr.noisy_group_counts.size() << '\n';
    if (!lr.noisy_group_counts.empty()) {
      out << "group_counts " << lr.level;
      for (std::size_t i = 0; i < lr.noisy_group_counts.size(); ++i) {
        out << ' ' << lr.true_group_counts[i] << ' ' << lr.noisy_group_counts[i];
      }
      out << '\n';
    }
  }
}

MultiLevelRelease ReadRelease(std::istream& in) {
  gdp::common::TextReader reader(in, "release");
  reader.Record("gdp-release");
  reader.Expect("v1");
  reader.End();
  reader.Record("levels");
  const auto num_levels = reader.Number<std::uint32_t>("level count");
  reader.End();
  // One level per hierarchy level, so no more than a hierarchy can hold.
  if (num_levels == 0 || num_levels > gdp::hier::kMaxHierarchyLevels) {
    reader.Fail("level count " + std::to_string(num_levels) + " outside [1, " +
                std::to_string(gdp::hier::kMaxHierarchyLevels) + "]");
  }
  std::vector<LevelRelease> levels;
  levels.reserve(num_levels);
  for (std::uint32_t i = 0; i < num_levels; ++i) {
    reader.Record("level");
    if (reader.Number<std::uint32_t>("level") != i) {
      reader.Fail("expected level " + std::to_string(i));
    }
    LevelRelease lr;
    lr.level = static_cast<int>(i);
    lr.sensitivity = reader.Number<double>("sensitivity");
    lr.noise_stddev = reader.Number<double>("noise_stddev");
    lr.group_noise_stddev = reader.Number<double>("group_noise_stddev");
    lr.true_total = reader.Number<double>("true_total");
    lr.noisy_total = reader.Number<double>("noisy_total");
    const auto declared_groups = reader.Number<std::size_t>("group count");
    reader.End();
    if (declared_groups > 0) {
      reader.Record("group_counts");
      if (reader.Number<std::uint32_t>("level") != i) {
        reader.Fail("expected level " + std::to_string(i));
      }
      // Each (true, noisy) pair is at least " x y", four bytes of the line.
      const std::size_t num_groups =
          reader.Count(declared_groups, 4, "group count pair");
      lr.true_group_counts.resize(num_groups);
      lr.noisy_group_counts.resize(num_groups);
      for (std::size_t g = 0; g < num_groups; ++g) {
        lr.true_group_counts[g] = reader.Number<double>("true count");
        lr.noisy_group_counts[g] = reader.Number<double>("noisy count");
      }
      reader.End();
    }
    levels.push_back(std::move(lr));
  }
  return MultiLevelRelease(std::move(levels));
}

void WriteReleaseFile(const MultiLevelRelease& release, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot open release file for writing: " + path);
  }
  WriteRelease(release, out);
  if (!out) {
    throw IoError("write failure on release file: " + path);
  }
}

MultiLevelRelease ReadReleaseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open release file: " + path);
  }
  return ReadRelease(in);
}

}  // namespace gdp::core
