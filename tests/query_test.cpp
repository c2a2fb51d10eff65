// Each query kind as CompiledDisclosure::Answer serves it from the compiled
// plan: its values (the edge count, the plan's group sums, degree bins), the
// Δ it is calibrated to, and a bad histogram shape refused before any charge.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "answer_fixture.hpp"
#include "core/session.hpp"

namespace gdp::core {
namespace {

using gdp::common::Rng;
using gdp::graph::BipartiteGraph;
using gdp::graph::Side;
using namespace answer_fixture;

TEST(AnswerTest, AssociationCountIsTheEdgeCountAtDeltaL) {
  const BipartiteGraph g = SmallGraph();
  const auto compiled = CompileSmall(g);
  const std::vector<QuerySpec> assoc(1);
  const int top = compiled->hierarchy().depth();
  ASSERT_EQ(compiled->hierarchy().level(top).num_groups(), 2u);
  Rng rng(1);
  const auto at_top = compiled->Answer(assoc, top, kBudget, rng);
  ASSERT_EQ(at_top.size(), 1u);
  EXPECT_EQ(at_top[0].query_name, "association_count");
  EXPECT_EQ(at_top[0].truth, std::vector<double>{6.0});
  // The top level's two groups each hold every edge: Δ = |E|.
  EXPECT_DOUBLE_EQ(at_top[0].sensitivity, 6.0);
  // Singletons: Δ = the largest degree.
  EXPECT_DOUBLE_EQ(compiled->Answer(assoc, 0, kBudget, rng)[0].sensitivity,
                   3.0);
}

TEST(AnswerTest, GroupCountsEqualTheIndependentScanAtSqrtTwoDelta) {
  const BipartiteGraph g = RandomGraph();
  const auto compiled = CompileSmall(g, 4);
  const std::vector<QuerySpec> group{Of(QuerySpec::Kind::kGroupCount)};
  for (int level = 0; level < compiled->hierarchy().num_levels(); ++level) {
    const gdp::hier::Partition& partition = compiled->hierarchy().level(level);
    const auto scan = partition.GroupDegreeSums(g);
    Rng rng(2);
    const QueryResult r = compiled->Answer(group, level, kBudget, rng)[0];
    EXPECT_EQ(r.query_name, "group_counts");
    EXPECT_EQ(r.truth, std::vector<double>(scan.begin(), scan.end()))
        << "level " << level;
    EXPECT_NEAR(r.sensitivity,
                std::sqrt(2.0) *
                    static_cast<double>(partition.MaxGroupDegreeSum(g)),
                1e-9)
        << "level " << level;
  }
}

TEST(AnswerTest, HistogramBinsWithAnOverflowBin) {
  const BipartiteGraph g = SmallGraph();
  const auto compiled = CompileSmall(g);
  const std::vector<QuerySpec> hist{Histogram(Side::kLeft, 2)};
  Rng rng(3);
  const QueryResult r = compiled->Answer(hist, 0, kBudget, rng)[0];
  // Left degrees 2, 3, 1: bins [0]=0 [1]=1 [2]=1, overflow (>2) = 1.
  EXPECT_EQ(r.truth, (std::vector<double>{0.0, 1.0, 1.0, 1.0}));
  EXPECT_EQ(r.noisy.size(), r.truth.size());
}

TEST(AnswerTest, HistogramBinsSumToTheSideNodeCount) {
  const BipartiteGraph g = RandomGraph();
  const auto compiled = CompileSmall(g, 3);
  const std::vector<QuerySpec> hist{Histogram(Side::kRight, 10)};
  Rng rng(4);
  const QueryResult r = compiled->Answer(hist, 1, kBudget, rng)[0];
  EXPECT_EQ(r.truth.size(), 12u);
  EXPECT_DOUBLE_EQ(std::accumulate(r.truth.begin(), r.truth.end(), 0.0), 80.0);
}

TEST(AnswerTest, HistogramDeltaIsMaxGroupSizePlusTwiceItsSum) {
  const BipartiteGraph g = SmallGraph();
  const auto compiled = CompileSmall(g);
  const int top = compiled->hierarchy().depth();
  Rng rng(6);
  const std::vector<QuerySpec> hist{Histogram(Side::kLeft, 3)};
  // Top level: the right side's group (4 nodes, 6 edges) is the worst,
  // 4 + 2·6 = 16.
  EXPECT_DOUBLE_EQ(compiled->Answer(hist, top, kBudget, rng)[0].sensitivity,
                   16.0);
  // Singletons: the left node of degree 3 gives 1 + 2·3 = 7.
  EXPECT_DOUBLE_EQ(compiled->Answer(hist, 0, kBudget, rng)[0].sensitivity,
                   7.0);
}

TEST(AnswerTest, BadHistogramShapeIsRefusedBeforeTheCharge) {
  const BipartiteGraph g = SmallGraph();
  DisclosureSession session = DisclosureSession::Attach(CompileSmall(g));
  // max_degree 0, the first max_degree past kMaxHistogramBins bins, one
  // far past it that does not wrap, and one whose max_degree + 2 would wrap.
  for (const std::size_t max_degree :
       {std::size_t{0}, kMaxHistogramBins - 1, std::size_t{1} << 60,
        std::numeric_limits<std::size_t>::max() - 1}) {
    const std::vector<QuerySpec> queries{
        Of(QuerySpec::Kind::kAssociationCount),
        Histogram(Side::kLeft, max_degree)};
    Rng rng(7);
    const Rng before = rng;
    const std::size_t charges = session.ledger().charges().size();
    EXPECT_THROW((void)session.Answer(queries, 0, kBudget, rng),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)session.TryAnswer(queries, 0, kBudget, rng, "", nullptr),
        std::invalid_argument);
    EXPECT_THROW((void)session.compiled()->Answer(queries, 0, kBudget, rng),
                 std::invalid_argument);
    EXPECT_EQ(session.ledger().charges().size(), charges);
    Rng expected = before;
    EXPECT_EQ(rng(), expected());
  }
}

}  // namespace
}  // namespace gdp::core
