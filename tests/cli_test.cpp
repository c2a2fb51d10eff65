#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include "core/release_io.hpp"
#include <fstream>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "common/error.hpp"
#include "mutation_driver.hpp"
#include "serve/audit_wal.hpp"

namespace gdp::cli {
namespace {

// ---------- Args parser ----------

TEST(ArgsTest, ParsesFlagsAndSwitches) {
  const Args args = Args::Parse({"--eps", "0.5", "--consistent", "--depth", "7"},
                                {"eps", "depth"}, {"consistent"});
  EXPECT_EQ(args.GetOr("eps", ""), "0.5");
  EXPECT_DOUBLE_EQ(args.GetDouble("eps", 0.0), 0.5);
  EXPECT_EQ(args.GetInt("depth", 0), 7);
  EXPECT_TRUE(args.HasSwitch("consistent"));
  EXPECT_FALSE(args.HasSwitch("strip-truth"));
}

TEST(ArgsTest, DefaultsApplyWhenAbsent) {
  const Args args = Args::Parse({}, {"eps"});
  EXPECT_FALSE(args.Get("eps").has_value());
  EXPECT_DOUBLE_EQ(args.GetDouble("eps", 0.999), 0.999);
  EXPECT_EQ(args.GetInt("depth", 9), 9);
  EXPECT_EQ(args.GetOr("eps", "fallback"), "fallback");
}

TEST(ArgsTest, RejectsUnknownFlag) {
  EXPECT_THROW((void)Args::Parse({"--bogus", "1"}, {"eps"}),
               std::invalid_argument);
}

TEST(ArgsTest, RejectsMissingValue) {
  EXPECT_THROW((void)Args::Parse({"--eps"}, {"eps"}), std::invalid_argument);
}

TEST(ArgsTest, RejectsBareToken) {
  EXPECT_THROW((void)Args::Parse({"eps", "1"}, {"eps"}), std::invalid_argument);
}

TEST(ArgsTest, RejectsMalformedNumbers) {
  const Args args = Args::Parse({"--eps", "0.5x", "--depth", "7y"},
                                {"eps", "depth"});
  EXPECT_THROW((void)args.GetDouble("eps", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.GetInt("depth", 0), std::invalid_argument);
}

TEST(ArgsTest, NumbersAreWholeDecimalFields) {
  const Args args = Args::Parse(
      {"--a", "+7", "--b", " 7", "--c", "0x10", "--d", "inf", "--e", "nan",
       "--f", "1e-400"},
      {"a", "b", "c", "d", "e", "f"});
  EXPECT_THROW((void)args.GetInt("a", 0), std::invalid_argument);
  EXPECT_THROW((void)args.GetInt("b", 0), std::invalid_argument);
  EXPECT_THROW((void)args.GetInt("c", 0), std::invalid_argument);
  EXPECT_THROW((void)args.GetDouble("d", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.GetDouble("e", 0.0), std::invalid_argument);
  try {
    (void)args.GetDouble("f", 0.0);
    ADD_FAILURE() << "an underflowing double was read";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--f"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

// ---------- tenants.tsv and reqs.tsv under the text mutation driver ----------

using TenantList = std::vector<std::pair<std::string, gdp::serve::TenantProfile>>;

TenantList ParseTenants(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream warnings;
  std::size_t skipped = 0;
  return ReadTenantSpecs(in, gdp::dp::AccountingPolicy::kSequential, warnings,
                         skipped);
}

std::string TenantsText(const TenantList& tenants) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const auto& [id, p] : tenants) {
    out << id << '\t' << p.epsilon_cap << '\t' << p.delta_cap << '\t'
        << p.privilege << '\t' << gdp::dp::AccountingPolicyName(p.accounting)
        << '\t' << p.max_in_flight << '\n';
  }
  return out.str();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameTenants(const TenantList& a, const TenantList& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             SameBits(x.second.epsilon_cap,
                                      y.second.epsilon_cap) &&
                             SameBits(x.second.delta_cap, y.second.delta_cap) &&
                             x.second.privilege == y.second.privilege &&
                             x.second.accounting == y.second.accounting &&
                             x.second.max_in_flight == y.second.max_in_flight;
                    });
}

std::vector<ServeRequest> ParseRequests(const std::string& text) {
  std::istringstream in(text);
  return ReadServeRequests(in);
}

std::string RequestsText(const std::vector<ServeRequest>& requests) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const ServeRequest& r : requests) {
    out << r.tenant << '\t' << r.epsilon_g;
    if (r.delta > 0.0) {
      out << '\t' << r.delta;
    }
    out << '\n';
  }
  return out.str();
}

bool SameRequests(const std::vector<ServeRequest>& a,
                  const std::vector<ServeRequest>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ServeRequest& x, const ServeRequest& y) {
                      return x.tenant == y.tenant &&
                             SameBits(x.epsilon_g, y.epsilon_g) &&
                             SameBits(x.delta, y.delta);
                    });
}

// Runs `random` seeded mutants of `corpus` (after every integer token's
// rewrites) through one parser's text contract.
template <typename Parse, typename Write, typename Equal>
std::size_t RunTextDriver(const mutation_driver::TextCorpus& corpus,
                          std::uint64_t seed, std::size_t random,
                          Parse&& parse, Write&& write, Equal&& equal) {
  return mutation_driver::Run(
      corpus, seed, random, [&](const mutation_driver::Mutant& m) {
        const std::string failure =
            mutation_driver::TextContract(m.bytes, parse, write, equal);
        if (!failure.empty()) {
          ADD_FAILURE() << m.what << ": " << failure;
        }
        return failure.empty();
      });
}

// Every integer token rewritten to 0, 1, its value - 1 and + 1, 2^32 - 1,
// 2^32, 2^64 - 1, 2^64 and -1, then bit flips, splices and truncations.
// Each mutant is refused with IoError or read to tenants that the same
// columns, written back, read to again (a malformed row is skipped, not
// refused, so most mutants read).
TEST(TenantSpecMutationTest, ReadTenantSpecsSurvivesSeededMutants) {
  mutation_driver::TextCorpus corpus;
  corpus.Add(
      "# id eps_cap delta_cap tier [accounting [max_in_flight]]\n"
      "alice 20.0 0.4 0\n"
      "bob 5.0 1e-2 3 rdp\n"
      "carol 1e6 0.5 5 advanced 4\n"
      "mallory 1.0\n");
  corpus.Add("alice\t4.0\t0.01\t2\r\n  # note\r\n\r\nbob\t4.0\t0.01\t1\r\n");
  constexpr std::size_t kRandomMutants = 20'000;
  EXPECT_GE(RunTextDriver(corpus, 0x7e4a, kRandomMutants, ParseTenants,
                          TenantsText, SameTenants),
            kRandomMutants);
}

// The same driver over reqs.tsv, whose one malformed row refuses the file.
TEST(RequestFileMutationTest, ReadServeRequestsSurvivesSeededMutants) {
  mutation_driver::TextCorpus corpus;
  corpus.Add("# id eps_g [delta]\nalice 0.9\nbob 0.4 1e-6\nalice 0.3\n");
  corpus.Add("alice\t0.5\r\n\r\n  # note\r\nbob\t0.4\t0.00001\r\n");
  constexpr std::size_t kRandomMutants = 20'000;
  EXPECT_GE(RunTextDriver(corpus, 0x4e95, kRandomMutants, ParseRequests,
                          RequestsText, SameRequests),
            kRandomMutants);
}

// ---------- command round trip ----------

class CliRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    graph_path_ = dir_ + "/cli_graph.tsv";
    release_path_ = dir_ + "/cli_release.tsv";
    hierarchy_path_ = dir_ + "/cli_hierarchy.tsv";
  }
  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(release_path_.c_str());
    std::remove(hierarchy_path_.c_str());
  }
  std::string dir_;
  std::string graph_path_;
  std::string release_path_;
  std::string hierarchy_path_;
};

TEST_F(CliRoundTripTest, GenerateDiscloseInspectDrilldown) {
  std::ostringstream out;
  // generate
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "500",
                      "--right", "700", "--edges", "3000", "--seed", "7"},
                     out),
            0);
  EXPECT_NE(out.str().find("wrote"), std::string::npos);

  // disclose (with consistency and hierarchy output)
  out.str("");
  ASSERT_EQ(Dispatch({"disclose", "--graph", graph_path_, "--release",
                      release_path_, "--hierarchy", hierarchy_path_, "--depth",
                      "5", "--eps", "0.9", "--consistent"},
                     out),
            0);
  EXPECT_NE(out.str().find("budget ledger"), std::string::npos);
  EXPECT_NE(out.str().find("release written"), std::string::npos);

  // inspect
  out.str("");
  ASSERT_EQ(Dispatch({"inspect", "--release", release_path_}, out), 0);
  EXPECT_NE(out.str().find("L0"), std::string::npos);
  EXPECT_NE(out.str().find("L5"), std::string::npos);

  // drilldown
  out.str("");
  ASSERT_EQ(Dispatch({"drilldown", "--release", release_path_, "--hierarchy",
                      hierarchy_path_, "--side", "left", "--node", "3"},
                     out),
            0);
  EXPECT_NE(out.str().find("group_size"), std::string::npos);
  EXPECT_NE(out.str().find("L5"), std::string::npos);
}

TEST_F(CliRoundTripTest, DiscloseSweepWritesOneReleasePerEpsilon) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "400",
                      "--right", "500", "--edges", "2500", "--seed", "5"},
                     out),
            0);
  out.str("");
  ASSERT_EQ(Dispatch({"disclose", "--graph", graph_path_, "--release",
                      release_path_, "--depth", "4", "--seed", "11", "--sweep",
                      "0.3,0.999"},
                     out),
            0);
  // One artifact per swept ε, readable, with sweep-labelled ledger entries.
  const std::string path_a = release_path_ + ".eps0.3";
  const std::string path_b = release_path_ + ".eps0.999";
  const auto release_a = gdp::core::ReadReleaseFile(path_a);
  const auto release_b = gdp::core::ReadReleaseFile(path_b);
  EXPECT_EQ(release_a.num_levels(), 5);
  EXPECT_EQ(release_b.num_levels(), 5);
  EXPECT_NE(release_a.level(1).noisy_total, release_b.level(1).noisy_total);
  EXPECT_NE(out.str().find("sweep eps=0.3"), std::string::npos);
  EXPECT_NE(out.str().find("sweep eps=0.999"), std::string::npos);
  EXPECT_NE(out.str().find("phase1"), std::string::npos);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(CliDispatchTest, DiscloseRejectsMalformedSweepList) {
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"disclose", "--graph", "g", "--release", "r",
                               "--sweep", "0.3,,0.5"},
                              out),
               std::invalid_argument);
  EXPECT_THROW((void)Dispatch({"disclose", "--graph", "g", "--release", "r",
                               "--sweep", "0.3x"},
                              out),
               std::invalid_argument);
}

TEST_F(CliRoundTripTest, ThreadedDiscloseMatchesAnyThreadCount) {
  // --threads T with a fixed seed and grain: the artifact is identical for
  // every T, 1 (no pool) included — the pool only changes who draws.
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "400",
                      "--right", "400", "--edges", "2500", "--seed", "9"},
                     out),
            0);
  std::string artifacts[3];
  const char* thread_args[] = {"1", "2", "8"};
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Dispatch({"disclose", "--graph", graph_path_, "--release",
                        release_path_, "--depth", "4", "--seed", "11",
                        "--threads", thread_args[i], "--noise-grain", "128"},
                       out),
              0);
    std::ifstream in(release_path_);
    artifacts[i].assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(artifacts[0], artifacts[1]);
  EXPECT_EQ(artifacts[0], artifacts[2]);
  EXPECT_FALSE(artifacts[0].empty());
}

TEST_F(CliRoundTripTest, ServeBatchDriverServesTenantsByTier) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "400",
                      "--right", "500", "--edges", "2500", "--seed", "5"},
                     out),
            0);
  const std::string tenants_path = dir_ + "/cli_tenants.tsv";
  const std::string requests_path = dir_ + "/cli_requests.tsv";
  const std::string results_path = dir_ + "/cli_results.tsv";
  {
    std::ofstream tenants(tenants_path);
    tenants << "# id eps_cap delta_cap tier\n"
            << "alice 10.0 0.4 0\n"
            << "bob 10.0 0.4 4\n"
            << "carol 0.95 0.4 2\n";  // phase1 + one release, then exhausted
    std::ofstream requests(requests_path);
    requests << "# id eps_g [delta]\n"
             << "alice 0.9\n"
             << "bob 0.9 1e-6\n"
             << "carol 0.9\n"
             << "carol 0.9\n";  // second request exceeds carol's grant
  }
  out.str("");
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path, "--requests", requests_path, "--depth",
                      "5", "--seed", "11", "--out", results_path},
                     out),
            0);
  // Tier 0 gets the coarsest level (depth 5 => L5), tier 4 gets L1.
  EXPECT_NE(out.str().find("alice"), std::string::npos);
  EXPECT_NE(out.str().find("L5"), std::string::npos);
  EXPECT_NE(out.str().find("L1"), std::string::npos);
  EXPECT_NE(out.str().find("served 3/4"), std::string::npos);
  EXPECT_NE(out.str().find("denied"), std::string::npos);
  // One dataset, four requests: 1 compile, 2 registry hits (bob's and
  // carol's first touch); carol's second request serves from her attached
  // session without consulting the registry at all.
  EXPECT_NE(out.str().find("2 hits, 1 misses"), std::string::npos);
  // The results file mirrors the table.
  std::ifstream results(results_path);
  const std::string body((std::istreambuf_iterator<char>(results)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("carol"), std::string::npos);
  EXPECT_NE(body.find("denied"), std::string::npos);
  std::remove(tenants_path.c_str());
  std::remove(requests_path.c_str());
  std::remove(results_path.c_str());
}

TEST(CliDispatchTest, ServeRejectsMalformedTenantSpec) {
  const std::string dir = ::testing::TempDir();
  const std::string tenants_path = dir + "/bad_tenants.tsv";
  const std::string requests_path = dir + "/ok_requests.tsv";
  {
    std::ofstream tenants(tenants_path);
    tenants << "alice 10.0\n";  // missing delta_cap + tier
    std::ofstream requests(requests_path);
    requests << "alice 0.9\n";
  }
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"serve", "--graph", "g", "--tenants",
                               tenants_path, "--requests", requests_path},
                              out),
               gdp::common::IoError);
  std::remove(tenants_path.c_str());
  std::remove(requests_path.c_str());
}

TEST(CliDispatchTest, ServeRejectsMalformedRequestDelta) {
  // A typo'd optional delta must error loudly, never silently fall back to
  // the publication default.
  const std::string dir = ::testing::TempDir();
  const std::string tenants_path = dir + "/ok_tenants.tsv";
  const std::string requests_path = dir + "/bad_requests.tsv";
  {
    std::ofstream tenants(tenants_path);
    tenants << "alice 10.0 0.4 0\n";
  }
  std::ostringstream out;
  for (const char* bad_line :
       {"alice 0.9 1e-6x7", "alice 0.9 -1e-6", "alice 0.9 1e-6 extra"}) {
    std::ofstream requests(requests_path);
    requests << bad_line << "\n";
    requests.close();
    EXPECT_THROW((void)Dispatch({"serve", "--graph", "g", "--tenants",
                                 tenants_path, "--requests", requests_path},
                                out),
                 gdp::common::IoError)
        << bad_line;
  }
  std::remove(tenants_path.c_str());
  std::remove(requests_path.c_str());
}

TEST_F(CliRoundTripTest, DiscloseAccountingFlagShowsTightenedAudit) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "400",
                      "--right", "500", "--edges", "2500", "--seed", "5"},
                     out),
            0);
  // An rdp-accounted sweep: the audit report names the policy and prints the
  // tightened cumulative next to the naive totals.
  out.str("");
  ASSERT_EQ(Dispatch({"disclose", "--graph", graph_path_, "--release",
                      release_path_, "--depth", "4", "--seed", "11", "--sweep",
                      "0.9,0.9,0.9", "--accounting", "rdp"},
                     out),
            0);
  EXPECT_NE(out.str().find("accounting=rdp"), std::string::npos);
  EXPECT_NE(out.str().find("rdp-accounted"), std::string::npos);
  // Same seed, sequential accounting: the released values are identical —
  // accounting is bookkeeping, not noise.
  const std::string rdp_point = release_path_ + ".eps0.9";
  std::ifstream rdp_in(rdp_point);
  const std::string rdp_artifact((std::istreambuf_iterator<char>(rdp_in)),
                                 std::istreambuf_iterator<char>());
  out.str("");
  ASSERT_EQ(Dispatch({"disclose", "--graph", graph_path_, "--release",
                      release_path_, "--depth", "4", "--seed", "11", "--sweep",
                      "0.9,0.9,0.9", "--accounting", "sequential"},
                     out),
            0);
  EXPECT_EQ(out.str().find("rdp-accounted"), std::string::npos);
  std::ifstream seq_in(rdp_point);
  const std::string seq_artifact((std::istreambuf_iterator<char>(seq_in)),
                                 std::istreambuf_iterator<char>());
  EXPECT_EQ(rdp_artifact, seq_artifact);
  EXPECT_FALSE(rdp_artifact.empty());
  std::remove(rdp_point.c_str());
}

TEST_F(CliRoundTripTest, ServeAccountingFlagAndPerTenantColumnRoundTrip) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "400",
                      "--right", "500", "--edges", "2500", "--seed", "5"},
                     out),
            0);
  const std::string tenants_path = dir_ + "/cli_acct_tenants.tsv";
  const std::string requests_path = dir_ + "/cli_acct_requests.tsv";
  {
    std::ofstream tenants(tenants_path);
    // seq inherits the --accounting default (sequential); renyi overrides
    // via the optional 5th column.  Caps admit 5 sequential releases.
    tenants << "# id eps_cap delta_cap tier [accounting]\n"
            << "seq 5.0 1e-2 0\n"
            << "renyi 5.0 1e-2 0 rdp\n";
    std::ofstream requests(requests_path);
    for (int i = 0; i < 8; ++i) {
      requests << "seq 0.999\nrenyi 0.999\n";
    }
  }
  out.str("");
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path, "--requests", requests_path, "--depth",
                      "5", "--seed", "11"},
                     out),
            0);
  // The sequential tenant exhausts after 5 of its 8 requests; the rdp
  // tenant is granted all 8 from the same caps: 13/16 served.
  EXPECT_NE(out.str().find("served 13/16"), std::string::npos);
  EXPECT_NE(out.str().find("rdp"), std::string::npos);
  EXPECT_NE(out.str().find("acct_eps"), std::string::npos);
  std::remove(tenants_path.c_str());
  std::remove(requests_path.c_str());
}

TEST(CliDispatchTest, AccountingFlagRejectsUnknownPolicy) {
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"disclose", "--graph", "g", "--release", "r",
                               "--accounting", "renyi"},
                              out),
               std::invalid_argument);
  EXPECT_THROW((void)Dispatch({"serve", "--graph", "g", "--tenants", "t",
                               "--requests", "r", "--accounting", "bogus"},
                              out),
               std::invalid_argument);
}

TEST(CliDispatchTest, ServeRejectsBadTenantAccountingColumn) {
  const std::string dir = ::testing::TempDir();
  const std::string tenants_path = dir + "/bad_acct_tenants.tsv";
  const std::string requests_path = dir + "/ok_acct_requests.tsv";
  {
    std::ofstream tenants(tenants_path);
    tenants << "alice 10.0 0.4 0 renyi\n";  // not a policy name
    std::ofstream requests(requests_path);
    requests << "alice 0.9\n";
  }
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"serve", "--graph", "g", "--tenants",
                               tenants_path, "--requests", requests_path},
                              out),
               gdp::common::IoError);
  std::remove(tenants_path.c_str());
  std::remove(requests_path.c_str());
}

// The error text of a run that must fail on its flags alone.
std::string FlagError(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  try {
    (void)Dispatch(tokens, out);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no error)";
}

std::string DiscloseFlagError(const std::vector<std::string>& flags) {
  std::vector<std::string> tokens{"disclose", "--graph", "g", "--release", "r"};
  tokens.insert(tokens.end(), flags.begin(), flags.end());
  return FlagError(tokens);
}

TEST(CliDispatchTest, DiscloseRejectsIntFlagsOutsideIntRange) {
  // 4294967301 = 2^32 + 5 would narrow to 5 if cast to int unchecked.
  for (const std::string flag : {"--depth", "--arity", "--threads"}) {
    const std::string what = DiscloseFlagError({flag, "4294967301"});
    EXPECT_NE(what.find(flag), std::string::npos) << what;
    EXPECT_NE(what.find("int range"), std::string::npos) << what;
  }
}

// --threads sizes each compiled artifact's release pool: -1 is not the
// documented 0 (hardware concurrency), and 100000 would start that many
// threads.  Both are refused when the flags are parsed, before the graph
// file `g` is read.
TEST(CliDispatchTest, DiscloseRefusesAThreadCountOutsideItsBound) {
  for (const std::string value : {"-1", "100000"}) {
    const std::string what = DiscloseFlagError({"--threads", value});
    EXPECT_NE(what.find("--threads"), std::string::npos) << what;
    EXPECT_NE(what.find("256"), std::string::npos) << what;
  }
}

TEST_F(CliRoundTripTest, PackRefusesADepthPastTheHierarchyBound) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "60",
                      "--right", "80", "--edges", "300"},
                     out),
            0);
  const std::string snapshot_path = dir_ + "/cli_depth_bound.gdps";
  const std::string what =
      FlagError({"pack", "--graph", graph_path_, "--out", snapshot_path,
                 "--compile", "--depth", "256"});
  EXPECT_NE(what.find("depth"), std::string::npos) << what;
  EXPECT_NE(what.find("255"), std::string::npos) << what;
  EXPECT_FALSE(std::ifstream(snapshot_path).good());
  std::remove(snapshot_path.c_str());
}

// serve compiles a dataset on its first request, so the hierarchy flags
// must be checked when they are parsed: otherwise the server starts and
// every request gets the Specializer's error back as a bad request.
TEST_F(CliRoundTripTest, ServeRefusesAHierarchyItCannotBuildAtStartUp) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "60",
                      "--right", "80", "--edges", "300"},
                     out),
            0);
  const std::string tenants_path = dir_ + "/cli_depth_tenants.tsv";
  const std::string requests_path = dir_ + "/cli_depth_requests.tsv";
  {
    std::ofstream tenants(tenants_path);
    tenants << "alice 10.0 0.4 0\n";
    std::ofstream requests(requests_path);
    requests << "alice 0.9\n";
  }
  struct Bad {
    const char* flag;
    const char* value;
    const char* named;  // what the error must name
  };
  for (const Bad& bad : {Bad{"--depth", "256", "255"},
                         Bad{"--depth", "0", "255"},
                         Bad{"--arity", "3", "arity"}}) {
    out.str("");
    try {
      (void)Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path, "--requests", requests_path, bad.flag,
                      bad.value},
                     out);
      ADD_FAILURE() << bad.flag << " " << bad.value << " was served:\n"
                    << out.str();
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(bad.named), std::string::npos) << what;
    }
    EXPECT_EQ(out.str().find("serving"), std::string::npos)
        << bad.flag << " " << bad.value << ": " << out.str();
  }
  std::remove(tenants_path.c_str());
  std::remove(requests_path.c_str());
}

// --workers is the job queue's thread count and --threads the release
// pool's: serve --listen refuses either past the bound before it listens.
TEST_F(CliRoundTripTest, ServeRefusesAThreadCountOutsideItsBoundBeforeListening) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "60",
                      "--right", "80", "--edges", "300"},
                     out),
            0);
  const std::string tenants_path = dir_ + "/cli_workers_tenants.tsv";
  const std::string port_path = dir_ + "/cli_workers_port";
  {
    std::ofstream tenants(tenants_path);
    tenants << "alice 10.0 0.4 0\n";
  }
  for (const char* flag : {"--workers", "--threads"}) {
    out.str("");
    try {
      (void)Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path, "--listen", "0", "--port-file", port_path,
                      flag, "100000"},
                     out);
      ADD_FAILURE() << flag << " 100000 was served:\n" << out.str();
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(flag), std::string::npos) << what;
      EXPECT_NE(what.find("256"), std::string::npos) << what;
    }
    EXPECT_EQ(out.str().find("listening"), std::string::npos)
        << flag << ": " << out.str();
    EXPECT_FALSE(std::ifstream(port_path).good()) << flag;
  }
  std::remove(tenants_path.c_str());
}

TEST_F(CliRoundTripTest, DrilldownRejectsIntFlagsOutsideTheirRange) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "200",
                      "--right", "200", "--edges", "1000"},
                     out),
            0);
  ASSERT_EQ(Dispatch({"disclose", "--graph", graph_path_, "--release",
                      release_path_, "--hierarchy", hierarchy_path_, "--depth",
                      "4"},
                     out),
            0);
  // Unchecked, 4294967299 = 2^32 + 3 would drill down from node 3 and
  // 4294967298 would read as level 2.
  const std::vector<std::pair<std::string, std::string>> bad{
      {"--node", "4294967299"},
      {"--node", "-1"},
      {"--max-level", "4294967298"},
      {"--min-level", "-4294967295"}};
  for (const auto& [flag, value] : bad) {
    const std::string what =
        FlagError({"drilldown", "--release", release_path_, "--hierarchy",
                   hierarchy_path_, "--side", "left", flag, value});
    EXPECT_NE(what.find(flag), std::string::npos) << what;
    EXPECT_NE(what.find("range"), std::string::npos) << what;
  }
  EXPECT_EQ(Dispatch({"drilldown", "--release", release_path_, "--hierarchy",
                      hierarchy_path_, "--side", "left", "--node", "3",
                      "--max-level", "2", "--min-level", "1"},
                     out),
            0);
}

TEST(CliDispatchTest, ClientDrilldownRejectsNodeOutsideItsRangeBeforeDialing) {
  // Nothing listens on port 1: the flag must be refused before the connect.
  for (const std::string node : {"4294967299", "-1"}) {
    const std::string what =
        FlagError({"client", "--connect", "127.0.0.1:1", "--tenant", "t",
                   "--drilldown", "--side", "left", "--node", node});
    EXPECT_NE(what.find("--node"), std::string::npos) << what;
    EXPECT_NE(what.find("range"), std::string::npos) << what;
  }
}

TEST(CliDispatchTest, ClientAnswerIsParsedBeforeDialing) {
  // Nothing listens on port 1: a bad --answer must be refused before the
  // connect, and a MAX the wire's u32 cannot carry must not wrap.
  const auto answer_error = [](const std::string& list) {
    return FlagError({"client", "--connect", "127.0.0.1:1", "--tenant", "t",
                      "--answer", list});
  };
  for (const std::string token :
       {"degree:right:4294967297", "degree:left:0", "degree:left:-1"}) {
    const std::string what = answer_error("assoc," + token);
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
    EXPECT_NE(what.find("[1, 4294967295]"), std::string::npos) << what;
  }
  const std::string what = answer_error("bogus");
  EXPECT_NE(what.find("bad query 'bogus'"), std::string::npos) << what;
}

TEST(CliDispatchTest, ClientAnswerRefusesAFieldPastTheQueryShape) {
  // Nothing listens on port 1: a field after assoc, after group or after
  // degree[:side[:MAX]] is refused before the connect.
  for (const std::string token :
       {"assoc:junk", "group:junk", "degree:left:5:junk", "assoc:"}) {
    const std::string what =
        FlagError({"client", "--connect", "127.0.0.1:1", "--tenant", "t",
                   "--answer", "group," + token});
    EXPECT_NE(what.find("unexpected field"), std::string::npos) << what;
    EXPECT_NE(what.find("'" + token + "'"), std::string::npos) << what;
  }
}

TEST(CliDispatchTest, DiscloseNamesTheFlagOfANonNumericValue) {
  const std::string what = DiscloseFlagError({"--depth", "abc"});
  EXPECT_NE(what.find("--depth"), std::string::npos) << what;
  EXPECT_NE(what.find("abc"), std::string::npos) << what;
}

TEST(CliDispatchTest, DiscloseNamesTheFlagOfAnOutOfRangeNumber) {
  const std::string what = DiscloseFlagError({"--eps", "1e999"});
  EXPECT_NE(what.find("--eps"), std::string::npos) << what;
  EXPECT_NE(what.find("out of range"), std::string::npos) << what;
}

TEST(CliDispatchTest, DiscloseRejectsNonPositiveNoiseGrain) {
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"disclose", "--graph", "g", "--release", "r",
                               "--noise-grain", "0"},
                              out),
               std::invalid_argument);
}

TEST_F(CliRoundTripTest, StripTruthProducesZeroTruthArtifact) {
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "200",
                      "--right", "200", "--edges", "1000"},
                     out),
            0);
  ASSERT_EQ(Dispatch({"disclose", "--graph", graph_path_, "--release",
                      release_path_, "--depth", "4", "--strip-truth"},
                     out),
            0);
  // The artifact must carry no true values: read it back and check fields.
  const auto release = gdp::core::ReadReleaseFile(release_path_);
  for (const auto& lvl : release.levels()) {
    EXPECT_EQ(lvl.true_total, 0.0);
    for (const double t : lvl.true_group_counts) {
      EXPECT_EQ(t, 0.0);
    }
  }
}

// ---------- durable serving: --wal, audit --verify, dataset caps ----------

class CliWalTest : public CliRoundTripTest {
 protected:
  void SetUp() override {
    CliRoundTripTest::SetUp();
    wal_path_ = dir_ + "/cli_audit.wal";
    tenants_path_ = dir_ + "/cli_wal_tenants.tsv";
    requests_path_ = dir_ + "/cli_wal_requests.tsv";
    std::remove(wal_path_.c_str());
    std::ostringstream out;
    ASSERT_EQ(Dispatch({"generate", "--out", graph_path_, "--left", "400",
                        "--right", "500", "--edges", "2500", "--seed", "5"},
                       out),
              0);
  }
  void TearDown() override {
    std::remove(wal_path_.c_str());
    std::remove(tenants_path_.c_str());
    std::remove(requests_path_.c_str());
    CliRoundTripTest::TearDown();
  }
  std::string wal_path_;
  std::string tenants_path_;
  std::string requests_path_;
};

TEST_F(CliWalTest, ServeWalAuditVerifyRoundTripWithRecovery) {
  {
    std::ofstream tenants(tenants_path_);
    tenants << "alice 20.0 0.4 0\n"
            << "bob 20.0 0.4 2\n"
            << "mallory 1.0\n";  // malformed: skipped, NOT fatal
    std::ofstream requests(requests_path_);
    requests << "alice 0.9\n"
             << "bob 0.9\n"
             << "mallory 0.9\n";  // unknown tenant: row served as "unknown"
  }
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--wal", wal_path_},
                     out),
            0);
  // The malformed row and the unknown tenant degrade gracefully.
  EXPECT_NE(out.str().find("tenant spec line 3 skipped"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("1 malformed rows skipped"), std::string::npos);
  EXPECT_NE(out.str().find("unknown"), std::string::npos);
  EXPECT_NE(out.str().find("served 2/3"), std::string::npos);
  // 2 opens + 2 charges hit the log.
  EXPECT_NE(out.str().find("wal: 4 appends"), std::string::npos) << out.str();

  // Offline verification replays the log and recomputes every guarantee.
  out.str("");
  ASSERT_EQ(Dispatch({"audit", "--verify", wal_path_}, out), 0);
  EXPECT_NE(out.str().find("audit OK"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("4 records"), std::string::npos);

  // A second serve run over the SAME wal recovers the tenants and keeps
  // charging on top of the replayed history.
  out.str("");
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--wal", wal_path_},
                     out),
            0);
  EXPECT_NE(out.str().find("replayed 4 records"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("restored 2 tenants"), std::string::npos);
  // And the grown log still verifies end-to-end.
  out.str("");
  ASSERT_EQ(Dispatch({"audit", "--verify", wal_path_}, out), 0);
  EXPECT_NE(out.str().find("audit OK"), std::string::npos) << out.str();
}

TEST_F(CliWalTest, NonPositiveEpsilonRefusesTheRequestFileBeforeAnyCharge) {
  // bob's epsilon_g is one the service would refuse: the file is refused
  // when it is read, naming the row, before alice's charge or bob's open
  // reaches the log.
  {
    std::ofstream tenants(tenants_path_);
    tenants << "alice 4.0 0.01 2\nbob 4.0 0.01 1\n";
    std::ofstream requests(requests_path_);
    requests << "alice 0.5\nbob -0.4\nalice 0.3\n";
  }
  std::ostringstream out;
  try {
    (void)Dispatch({"serve", "--graph", graph_path_, "--tenants",
                    tenants_path_, "--requests", requests_path_, "--depth",
                    "5", "--seed", "7", "--wal", wal_path_},
                   out);
    ADD_FAILURE() << "serve accepted a request file with epsilon_g -0.4";
  } catch (const gdp::common::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  std::ifstream wal(wal_path_, std::ios::binary);
  if (wal) {
    const std::string image((std::istreambuf_iterator<char>(wal)),
                            std::istreambuf_iterator<char>());
    EXPECT_TRUE(gdp::serve::AuditWal::Replay(image).records.empty());
  }
}

TEST_F(CliWalTest, OutOfRangeBudgetRefusesTheRequestFileBeforeAnyCharge) {
  // A delta of 1 or more and an epsilon_g of 1e9 or more are budgets the
  // service refuses: the file is refused when it is read, naming the row,
  // before alice's charge or bob's open reaches the log.
  for (const std::string bad_row : {"bob 0.4 1.5", "bob 1e9"}) {
    std::remove(wal_path_.c_str());
    {
      std::ofstream tenants(tenants_path_);
      tenants << "alice 4.0 0.01 2\nbob 4.0 0.01 1\n";
      std::ofstream requests(requests_path_);
      requests << "alice 0.5\n" << bad_row << "\nalice 0.3\n";
    }
    std::ostringstream out;
    try {
      (void)Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "7", "--wal", wal_path_},
                     out);
      ADD_FAILURE() << "serve accepted the row '" << bad_row << "'";
    } catch (const gdp::common::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
    std::ifstream wal(wal_path_, std::ios::binary);
    if (wal) {
      const std::string image((std::istreambuf_iterator<char>(wal)),
                              std::istreambuf_iterator<char>());
      EXPECT_TRUE(gdp::serve::AuditWal::Replay(image).records.empty())
          << bad_row;
    }
  }
}

TEST_F(CliWalTest, AuditFlagsTornTailUnlessTolerated) {
  {
    std::ofstream tenants(tenants_path_);
    tenants << "alice 20.0 0.4 0\n";
    std::ofstream requests(requests_path_);
    requests << "alice 0.9\nalice 0.9\n";
  }
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--wal", wal_path_},
                     out),
            0);
  // Chop into the last frame: the torn tail a crash mid-append leaves.
  std::string bytes;
  {
    std::ifstream in(wal_path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 5u);
  {
    std::ofstream rewrite(wal_path_, std::ios::binary | std::ios::trunc);
    rewrite.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 5));
  }
  out.str("");
  EXPECT_EQ(Dispatch({"audit", "--verify", wal_path_}, out), 1);
  EXPECT_NE(out.str().find("FAIL"), std::string::npos) << out.str();
  // Tolerating the tail passes: the surviving records all verify.
  out.str("");
  EXPECT_EQ(
      Dispatch({"audit", "--verify", wal_path_, "--tolerate-tail"}, out), 0);
  EXPECT_NE(out.str().find("audit OK"), std::string::npos) << out.str();
}

// Zeros past the last frame (a crash after the file grew, before its data
// landed) are a torn tail too, not an undecodable record.
TEST_F(CliWalTest, AuditFlagsZeroFilledTailUnlessTolerated) {
  {
    std::ofstream tenants(tenants_path_);
    tenants << "alice 20.0 0.4 0\n";
    std::ofstream requests(requests_path_);
    requests << "alice 0.9\n";
  }
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--wal", wal_path_},
                     out),
            0);
  {
    std::ofstream append(wal_path_, std::ios::binary | std::ios::app);
    const std::string zeros(16, '\0');
    append.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  out.str("");
  EXPECT_EQ(Dispatch({"audit", "--verify", wal_path_}, out), 1);
  EXPECT_NE(out.str().find("16-byte torn"), std::string::npos) << out.str();
  out.str("");
  EXPECT_EQ(
      Dispatch({"audit", "--verify", wal_path_, "--tolerate-tail"}, out), 0);
  EXPECT_NE(out.str().find("audit OK"), std::string::npos) << out.str();
}

TEST_F(CliWalTest, ServeWithWalReleasesIdenticalValuesToWalless) {
  {
    std::ofstream tenants(tenants_path_);
    tenants << "alice 20.0 0.4 0\nbob 20.0 0.4 3\n";
    std::ofstream requests(requests_path_);
    requests << "alice 0.9\nbob 0.9\nalice 0.7\n";
  }
  const std::string results_a = dir_ + "/cli_wal_results_a.tsv";
  const std::string results_b = dir_ + "/cli_wal_results_b.tsv";
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--out", results_a},
                     out),
            0);
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--out", results_b, "--wal",
                      wal_path_},
                     out),
            0);
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string a = slurp(results_a);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(results_b))
      << "the WAL must add bookkeeping, never randomness";
  std::remove(results_a.c_str());
  std::remove(results_b.c_str());
}

TEST_F(CliWalTest, DatasetCapRetiresAcrossRequestsAndRestarts) {
  {
    std::ofstream tenants(tenants_path_);
    tenants << "alice 20.0 0.4 0\n";
    std::ofstream requests(requests_path_);
    requests << "alice 0.9\nalice 0.9\nalice 0.9\nalice 0.9\n";
  }
  std::ostringstream out;
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--wal", wal_path_,
                      "--dataset-eps-cap", "1.2", "--dataset-delta-cap",
                      "0.4"},
                     out),
            0);
  EXPECT_NE(out.str().find("RETIRED"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("denied"), std::string::npos);
  // The retirement is durable: a fresh run over the same wal starts retired
  // and serves nothing.
  out.str("");
  ASSERT_EQ(Dispatch({"serve", "--graph", graph_path_, "--tenants",
                      tenants_path_, "--requests", requests_path_, "--depth",
                      "5", "--seed", "11", "--wal", wal_path_,
                      "--dataset-eps-cap", "1.2", "--dataset-delta-cap",
                      "0.4"},
                     out),
            0);
  EXPECT_NE(out.str().find("1 datasets retired"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("served 0/4"), std::string::npos);
  EXPECT_NE(out.str().find("RETIRED"), std::string::npos);
  // The log (including the retirement record) still verifies.
  out.str("");
  EXPECT_EQ(Dispatch({"audit", "--verify", wal_path_}, out), 0)
      << out.str();
}

TEST(CliDispatchTest, AuditRequiresVerifyFlag) {
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"audit"}, out), std::invalid_argument);
}

TEST(CliDispatchTest, AuditRejectsMissingAndNonWalFiles) {
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"audit", "--verify", "/nonexistent/x.wal"},
                              out),
               gdp::common::IoError);
  const std::string path = ::testing::TempDir() + "/not_a_wal.bin";
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a write-ahead log at all";
  }
  EXPECT_THROW((void)Dispatch({"audit", "--verify", path}, out),
               gdp::common::IoError);
  std::remove(path.c_str());
}

TEST(CliDispatchTest, NoCommandPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(Dispatch({}, out), 2);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliDispatchTest, UnknownCommandPrintsUsage) {
  std::ostringstream out;
  EXPECT_EQ(Dispatch({"frobnicate"}, out), 2);
  EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliDispatchTest, MissingRequiredFlagThrows) {
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"inspect"}, out), std::invalid_argument);
  EXPECT_THROW((void)Dispatch({"generate"}, out), std::invalid_argument);
}

TEST(CliDispatchTest, DrilldownRejectsBadSide) {
  std::ostringstream out;
  EXPECT_THROW((void)Dispatch({"drilldown", "--release", "r", "--hierarchy",
                               "h", "--side", "middle", "--node", "0"},
                              out),
               std::invalid_argument);
}

}  // namespace
}  // namespace gdp::cli
