// Socket-vs-in-process parity: the network front end must be an auditable
// veneer, not a second implementation.  The same request sequence against
// (a) a Server + net::Client and (b) direct DisclosureService calls on the
// batch driver's noise stream (Rng(seed).Fork(1)) must produce bit-identical
// responses, identical odometer state — and, at the CLI level, byte-identical
// results files from `gdp_tool serve --requests` and
// `gdp_tool serve --listen` + `gdp_tool client --requests`.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"

namespace gdp::net {
namespace {

using gdp::common::Rng;
using gdp::serve::DisclosureService;
using gdp::serve::TenantProfile;

gdp::graph::BipartiteGraph TestGraph() {
  Rng rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 200;
  p.num_right = 300;
  p.num_edges = 1200;
  return GenerateDblpLike(p, rng);
}

gdp::core::SessionSpec SmallSpec() {
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = 4;
  spec.hierarchy.arity = 4;
  return spec;
}

std::unique_ptr<DisclosureService> MakeService() {
  auto svc = std::make_unique<DisclosureService>(4);
  svc->catalog().Register(
      "dblp", gdp::serve::Dataset{TestGraph(), SmallSpec(), 7, {}, {}});
  svc->broker().Register("alice", TenantProfile{50.0, 0.2, 0});
  svc->broker().Register("bob", TenantProfile{50.0, 0.2, 2});
  svc->odometer().SetBudget("dblp", 200.0, 0.4);
  return svc;
}

wire::WireBudget Budget(double eps) {
  wire::WireBudget b;
  b.epsilon_g = eps;
  return b;
}

// Drive the SAME mixed request sequence against a server (via the client)
// and against the service directly on the batch driver's stream; every
// response must re-encode to the same bytes.
TEST(NetParityTest, SocketResponsesAreBitIdenticalToDirectCalls) {
  constexpr std::uint64_t kSeed = 123;

  auto remote_svc = MakeService();
  ServerConfig config;
  config.seed = kSeed;
  Server server(*remote_svc, config);
  Client client(server.port());

  auto local_svc = MakeService();
  Rng local_rng = Rng(kSeed).Fork(1);

  // 1. Serve.
  wire::ServeRequest serve_req;
  serve_req.tenant = "alice";
  serve_req.dataset = "dblp";
  serve_req.budget = Budget(0.3);
  const auto remote_serve = client.Serve(serve_req);
  ASSERT_TRUE(remote_serve.ok());
  const wire::ServeOutcome local_serve = wire::ServeOutcome::FromResult(
      local_svc->Serve("alice", "dblp", serve_req.budget.ToBudgetSpec(),
                       local_rng));
  EXPECT_EQ(wire::Encode(remote_serve.value), wire::Encode(local_serve));

  // 2. Sweep (two budget points; draw order inside must match too).
  wire::SweepRequest sweep_req;
  sweep_req.tenant = "bob";
  sweep_req.dataset = "dblp";
  sweep_req.budgets = {Budget(0.2), Budget(0.35)};
  const auto remote_sweep = client.Sweep(sweep_req);
  ASSERT_TRUE(remote_sweep.ok());
  wire::SweepResponse local_sweep;
  const std::vector<gdp::core::BudgetSpec> sweep_budgets = {
      sweep_req.budgets[0].ToBudgetSpec(), sweep_req.budgets[1].ToBudgetSpec()};
  for (const gdp::serve::ServeResult& r :
       local_svc->ServeSweep("bob", "dblp", sweep_budgets, local_rng)) {
    local_sweep.outcomes.push_back(wire::ServeOutcome::FromResult(r));
  }
  EXPECT_EQ(wire::Encode(remote_sweep.value), wire::Encode(local_sweep));

  // 3. Drilldown.
  wire::DrilldownRequest drill_req;
  drill_req.tenant = "bob";
  drill_req.dataset = "dblp";
  drill_req.budget = Budget(0.25);
  drill_req.side = 0;
  drill_req.node = 11;
  const auto remote_drill = client.Drilldown(drill_req);
  ASSERT_TRUE(remote_drill.ok());
  const gdp::serve::DrilldownResult local_dr = local_svc->ServeDrilldown(
      "bob", "dblp", drill_req.budget.ToBudgetSpec(), gdp::graph::Side::kLeft,
      11, local_rng);
  wire::DrilldownResponse local_drill;
  local_drill.outcome = wire::ServeOutcome::FromResult(local_dr.serve);
  for (const gdp::core::DrillDownEntry& e : local_dr.chain) {
    local_drill.chain.push_back(
        {e.level, e.group, e.group_size, e.noisy_count, e.true_count});
  }
  EXPECT_EQ(wire::Encode(remote_drill.value), wire::Encode(local_drill));

  // 4. Answer.
  wire::AnswerRequest ans_req;
  ans_req.tenant = "alice";
  ans_req.dataset = "dblp";
  ans_req.budget = Budget(0.3);
  ans_req.queries.resize(2);
  ans_req.queries[1].kind = gdp::core::QuerySpec::Kind::kDegreeHistogram;
  ans_req.queries[1].side = gdp::graph::Side::kRight;
  ans_req.queries[1].max_degree = 8;
  const auto remote_ans = client.Answer(ans_req);
  ASSERT_TRUE(remote_ans.ok());
  const wire::AnswerResponse local_ans = wire::AnswerResponse::FromResult(
      local_svc->ServeAnswer("alice", "dblp", ans_req.budget.ToBudgetSpec(),
                             ans_req.queries, local_rng));
  EXPECT_EQ(wire::Encode(remote_ans.value), wire::Encode(local_ans));

  // Identical charges on both sides: the odometer (the audit spine's
  // cross-tenant view) must agree field for field.
  const auto remote_odo = remote_svc->odometer().All();
  const auto local_odo = local_svc->odometer().All();
  ASSERT_EQ(remote_odo.size(), local_odo.size());
  for (std::size_t i = 0; i < remote_odo.size(); ++i) {
    EXPECT_EQ(remote_odo[i].dataset, local_odo[i].dataset);
    EXPECT_EQ(remote_odo[i].charges, local_odo[i].charges);
    EXPECT_EQ(remote_odo[i].epsilon_spent, local_odo[i].epsilon_spent);
    EXPECT_EQ(remote_odo[i].delta_spent, local_odo[i].delta_spent);
    EXPECT_EQ(remote_odo[i].accounted_epsilon, local_odo[i].accounted_epsilon);
    EXPECT_EQ(remote_odo[i].accounted_delta, local_odo[i].accounted_delta);
    EXPECT_EQ(remote_odo[i].retired, local_odo[i].retired);
  }
}

// ---------- CLI-level parity: serve --requests vs serve --listen + client --

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(NetParityTest, CliBatchAndSocketResultsFilesAreByteIdentical) {
  const std::string dir = ::testing::TempDir();
  const std::string graph = dir + "/parity_graph.tsv";
  const std::string tenants = dir + "/parity_tenants.tsv";
  const std::string requests = dir + "/parity_requests.tsv";
  const std::string batch_out = dir + "/parity_batch.tsv";
  const std::string socket_out = dir + "/parity_socket.tsv";
  const std::string port_file = dir + "/parity_port";
  ::unlink(port_file.c_str());

  {
    std::ostringstream sink;
    ASSERT_EQ(gdp::cli::Dispatch({"generate", "--out", graph, "--left", "200",
                                  "--right", "300", "--edges", "1200",
                                  "--seed", "3"},
                                 sink),
              0);
  }
  WriteFile(tenants, "alice\t50\t0.2\t0\nbob\t50\t0.2\t2\n");
  WriteFile(requests, "alice\t0.3\nbob\t0.4\t1e-5\nalice\t0.25\nbob\t0.2\n");

  const std::vector<std::string> common = {"--graph",  graph, "--tenants",
                                           tenants,    "--depth", "4",
                                           "--arity",  "4",   "--seed", "9"};

  // Batch driver.
  {
    std::vector<std::string> argv = {"serve", "--requests", requests, "--out",
                                     batch_out};
    argv.insert(argv.end(), common.begin(), common.end());
    std::ostringstream sink;
    ASSERT_EQ(gdp::cli::Dispatch(argv, sink), 0) << sink.str();
  }

  // Socket driver: the same serve config listening on an ephemeral port,
  // exiting after exactly the batch's request count.
  std::ostringstream server_log;
  std::thread server_thread([&common, &port_file, &server_log] {
    std::vector<std::string> argv = {"serve",        "--listen", "0",
                                     "--port-file",  port_file,  "--workers",
                                     "2",            "--max-requests", "4"};
    argv.insert(argv.end(), common.begin(), common.end());
    EXPECT_EQ(gdp::cli::Dispatch(argv, server_log), 0) << server_log.str();
  });
  std::string port;
  for (int i = 0; i < 1000 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::ifstream in(port_file);
    std::getline(in, port);
  }
  ASSERT_FALSE(port.empty()) << "server never wrote " << port_file;
  {
    std::ostringstream sink;
    ASSERT_EQ(gdp::cli::Dispatch({"client", "--connect", "127.0.0.1:" + port,
                                  "--requests", requests, "--out", socket_out},
                                 sink),
              0)
        << sink.str();
  }
  server_thread.join();

  const std::string batch_bytes = Slurp(batch_out);
  const std::string socket_bytes = Slurp(socket_out);
  EXPECT_FALSE(batch_bytes.empty());
  EXPECT_EQ(batch_bytes, socket_bytes);
  ::unlink(port_file.c_str());
}

}  // namespace
}  // namespace gdp::net
