#include "hier/io.hpp"

#include <cstdint>
#include <fstream>

#include "common/error.hpp"
#include "common/text_reader.hpp"

namespace gdp::hier {

using gdp::common::IoError;

void WriteHierarchy(const GroupHierarchy& hierarchy, std::ostream& out) {
  const Partition& bottom = hierarchy.level(0);
  out << "gdp-hierarchy v1\n";
  out << "dims " << bottom.num_left_nodes() << ' ' << bottom.num_right_nodes()
      << '\n';
  out << "levels " << hierarchy.num_levels() << '\n';
  for (int lvl = 0; lvl < hierarchy.num_levels(); ++lvl) {
    const Partition& p = hierarchy.level(lvl);
    out << "level " << lvl << ' ' << p.num_groups() << '\n';
    out << "parents";
    for (GroupId g = 0; g < p.num_groups(); ++g) {
      const GroupId parent = p.group(g).parent;
      out << ' '
          << (parent == kNoParent ? -1 : static_cast<long long>(parent));
    }
    out << '\n';
    out << "left_labels";
    for (const GroupId g : p.labels(Side::kLeft)) {
      out << ' ' << g;
    }
    out << '\n';
    out << "right_labels";
    for (const GroupId g : p.labels(Side::kRight)) {
      out << ' ' << g;
    }
    out << '\n';
  }
}

GroupHierarchy ReadHierarchy(std::istream& in) {
  gdp::common::TextReader reader(in, "hierarchy");
  reader.Record("gdp-hierarchy");
  reader.Expect("v1");
  reader.End();
  reader.Record("dims");
  const auto num_left = reader.Number<NodeIndex>("num_left");
  const auto num_right = reader.Number<NodeIndex>("num_right");
  reader.End();
  reader.Record("levels");
  const auto num_levels = reader.Number<std::uint32_t>("level count");
  reader.End();
  if (num_levels < 2 || num_levels > kMaxHierarchyLevels) {
    reader.Fail("level count " + std::to_string(num_levels) +
                " outside [2, " + std::to_string(kMaxHierarchyLevels) + "]");
  }
  std::vector<Partition> levels;
  levels.reserve(num_levels);
  for (std::uint32_t lvl = 0; lvl < num_levels; ++lvl) {
    reader.Record("level");
    if (reader.Number<std::uint32_t>("level") != lvl) {
      reader.Fail("expected level " + std::to_string(lvl));
    }
    const auto declared_groups = reader.Number<GroupId>("group count");
    reader.End();
    if (declared_groups == 0) {
      reader.Fail("level " + std::to_string(lvl) + " declares no groups");
    }
    // Every count below is proved against the line carrying its elements
    // (" x" is two bytes) before a vector is sized from it.
    reader.Record("parents");
    std::vector<GroupInfo> infos(reader.Count(declared_groups, 2, "parent"));
    for (GroupInfo& info : infos) {
      const auto parent = reader.Number<std::int64_t>("parent");
      if (parent < -1 || parent >= std::int64_t{kNoParent}) {
        reader.Fail("parent " + std::to_string(parent) + " is not -1 or a group");
      }
      info.parent = parent == -1 ? kNoParent : static_cast<GroupId>(parent);
    }
    reader.End();
    // Group sides and sizes are reconstructed from the labels.
    const auto read_labels = [&](const char* keyword, NodeIndex count,
                                 Side side) {
      reader.Record(keyword);
      std::vector<GroupId> labels(reader.Count(count, 2, keyword));
      for (GroupId& label : labels) {
        label = reader.Number<GroupId>("label");
        if (label >= infos.size()) {
          reader.Fail("label " + std::to_string(label) +
                      " out of range at level " + std::to_string(lvl));
        }
        GroupInfo& info = infos[label];
        if (info.size > 0 && info.side != side) {
          reader.Fail("group " + std::to_string(label) +
                      " spans both sides at level " + std::to_string(lvl));
        }
        info.side = side;
        ++info.size;
      }
      reader.End();
      return labels;
    };
    auto left_labels = read_labels("left_labels", num_left, Side::kLeft);
    auto right_labels = read_labels("right_labels", num_right, Side::kRight);
    for (std::size_t g = 0; g < infos.size(); ++g) {
      if (infos[g].size == 0) {
        reader.Fail("group " + std::to_string(g) + " is empty at level " +
                    std::to_string(lvl));
      }
    }
    levels.emplace_back(std::move(left_labels), std::move(right_labels),
                        std::move(infos));
  }
  return GroupHierarchy(std::move(levels));  // re-validates refinement
}

void WriteHierarchyFile(const GroupHierarchy& hierarchy, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw IoError("cannot open hierarchy file for writing: " + path);
  }
  WriteHierarchy(hierarchy, out);
  if (!out) {
    throw IoError("write failure on hierarchy file: " + path);
  }
}

GroupHierarchy ReadHierarchyFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot open hierarchy file: " + path);
  }
  return ReadHierarchy(in);
}

}  // namespace gdp::hier
