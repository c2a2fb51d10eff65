#include "cli/commands.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/drilldown.hpp"
#include "core/pipeline.hpp"
#include "core/release_io.hpp"
#include "core/session.hpp"
#include "dp/privacy_accountant.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hier/io.hpp"
#include "hier/specialization.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/audit_wal.hpp"
#include "serve/service.hpp"
#include "serve/session_registry.hpp"
#include "storage/snapshot.hpp"

namespace gdp::cli {

namespace {

std::string Require(const Args& args, const std::string& name) {
  const auto value = args.Get(name);
  if (!value) {
    throw std::invalid_argument("missing required flag '--" + name + "'");
  }
  return *value;
}

// Parse "--sweep 0.3,0.5,0.999" into (token, value) pairs.  The literal
// token names the per-ε output file, so `r.tsv` + token "0.3" becomes
// "r.tsv.eps0.3" with no float re-formatting surprises.
std::vector<std::pair<std::string, double>> ParseSweepList(
    const std::string& list) {
  std::vector<std::pair<std::string, double>> points;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (token.empty()) {
      throw std::invalid_argument("--sweep: empty epsilon in list '" + list +
                                  "'");
    }
    std::size_t parsed = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &parsed);
    } catch (const std::exception&) {
      parsed = 0;
    }
    if (parsed != token.size()) {
      throw std::invalid_argument("--sweep: bad epsilon '" + token + "'");
    }
    points.emplace_back(token, value);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return points;
}

// "--accounting" with an optional "strict-" prefix: "strict-rdp" selects the
// rdp ledger policy AND strict per-level charging (docs/ACCOUNTING.md's
// cross-level caveat taken literally: a release charges num_levels sequential
// mechanisms instead of one width-num_levels parallel event).
gdp::dp::AccountingPolicy ParseAccountingFlag(const std::string& value,
                                              bool& strict) {
  constexpr const char kPrefix[] = "strict-";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  strict = value.compare(0, kPrefixLen, kPrefix) == 0;
  return gdp::dp::ParseAccountingPolicy(strict ? value.substr(kPrefixLen)
                                               : value);
}

// An integer flag read into T (`what` names T in the error): GetInt's int64
// must fit, or the value would narrow silently (--depth 4294967301 compiling
// depth 5, --node 4294967299 drilling down from node 3).
template <typename T>
T GetNarrowFlag(const Args& args, const std::string& name, T fallback,
                const std::string& what) {
  using Limits = std::numeric_limits<T>;
  const std::int64_t value = args.GetInt(name, fallback);
  if (value < static_cast<std::int64_t>(Limits::min()) ||
      value > static_cast<std::int64_t>(Limits::max())) {
    throw std::invalid_argument(
        "flag '--" + name + "': " + std::to_string(value) + " is outside the " +
        what + " range [" + std::to_string(Limits::min()) + ", " +
        std::to_string(Limits::max()) + "]");
  }
  return static_cast<T>(value);
}

int GetIntFlag(const Args& args, const std::string& name, int fallback) {
  return GetNarrowFlag<int>(args, name, fallback, "int");
}

// --node of drilldown and client --drilldown.
gdp::graph::NodeIndex GetNodeFlag(const Args& args) {
  return GetNarrowFlag<gdp::graph::NodeIndex>(args, "node", 0, "node index");
}

// The publication flags pack, disclose and serve share.  One parser, so the
// three commands build the same SessionSpec from the same flags: a snapshot
// packed with --compile is adopted by serve only when the fingerprints of
// the two specs agree.  The caps are the one-shot grant: εg in total, 2δ of
// per-level headroom.
gdp::core::SessionSpec ParseSessionSpec(const Args& args) {
  gdp::core::SessionSpec spec;
  spec.budget.epsilon_g = args.GetDouble("eps", spec.budget.epsilon_g);
  spec.budget.delta = args.GetDouble("delta", spec.budget.delta);
  spec.hierarchy.depth = GetIntFlag(args, "depth", spec.hierarchy.depth);
  spec.hierarchy.arity = GetIntFlag(args, "arity", spec.hierarchy.arity);
  // The Specializer's own checks, before any file is read: serve compiles
  // on a dataset's first request, so a depth past the hierarchy bound (or a
  // bad arity) found only there would come back to every client as a bad
  // request.
  (void)gdp::hier::Specializer(gdp::hier::SpecializationConfig{
      .depth = spec.hierarchy.depth, .arity = spec.hierarchy.arity});
  spec.exec.num_threads = GetIntFlag(args, "threads", spec.exec.num_threads);
  if (spec.exec.num_threads < 0 ||
      spec.exec.num_threads > gdp::common::kMaxThreadCount) {
    throw std::invalid_argument(
        "--threads must be in [0, " +
        std::to_string(gdp::common::kMaxThreadCount) +
        "] (0 = hardware concurrency), got " +
        std::to_string(spec.exec.num_threads));
  }
  const std::int64_t grain = args.GetInt(
      "noise-grain", static_cast<std::int64_t>(spec.exec.noise_chunk_grain));
  if (grain <= 0) {
    throw std::invalid_argument("--noise-grain must be > 0");
  }
  spec.exec.noise_chunk_grain = static_cast<std::size_t>(grain);
  spec.epsilon_cap = spec.budget.epsilon_g;
  spec.delta_cap = spec.budget.delta * 2.0;
  return spec;
}

bool IsCommentOrBlank(const std::string& line) {
  for (const char c : line) {
    if (c == '#') {
      return true;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

// Resolve the dataset input for commands that accept either a text edge
// list (--graph) or a packed snapshot (--snapshot).  The returned graph is
// self-contained either way: a snapshot-loaded graph's columns keep the
// mapping alive via their keepalive handles, so the Snapshot object itself
// need not outlive this call.
gdp::graph::BipartiteGraph LoadGraphInput(const Args& args) {
  const auto graph_path = args.Get("graph");
  const auto snapshot_path = args.Get("snapshot");
  if (graph_path && snapshot_path) {
    throw std::invalid_argument("--graph and --snapshot are mutually exclusive");
  }
  if (snapshot_path) {
    return gdp::storage::Snapshot::Load(*snapshot_path)->graph();
  }
  if (!graph_path) {
    throw std::invalid_argument(
        "missing required flag '--graph' (or '--snapshot')");
  }
  return gdp::graph::ReadEdgeListFile(*graph_path);
}

// tenants.tsv: one tenant per line, `tenant_id epsilon_cap delta_cap
// privilege [accounting [max_in_flight]]` (whitespace-separated; # comments
// and blank lines skipped).  The optional 5th field overrides
// `default_accounting` (the --accounting flag) per tenant; the optional 6th
// caps the tenant's concurrently queued requests on the socket server (0 =
// unlimited; ignored by the batch driver, which is sequential anyway).  A
// malformed ROW is skipped with a warning instead of aborting the batch —
// one bad tenant must not take down serving for every valid one; `skipped`
// counts the rows dropped.
std::vector<std::pair<std::string, gdp::serve::TenantProfile>> ReadTenantSpecs(
    const std::string& path, gdp::dp::AccountingPolicy default_accounting,
    std::ostream& out, std::size_t& skipped) {
  std::ifstream in(path);
  if (!in) {
    throw gdp::common::IoError("cannot open tenant spec file '" + path + "'");
  }
  std::vector<std::pair<std::string, gdp::serve::TenantProfile>> tenants;
  std::string line;
  int line_no = 0;
  skipped = 0;
  const auto skip = [&](const std::string& why) {
    ++skipped;
    out << "warning: tenant spec line " << line_no << " skipped: " << why
        << '\n';
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) {
      continue;
    }
    std::istringstream ss(line);
    std::string id;
    gdp::serve::TenantProfile profile;
    profile.accounting = default_accounting;
    if (!(ss >> id >> profile.epsilon_cap >> profile.delta_cap >>
          profile.privilege)) {
      skip("expected 'tenant_id epsilon_cap delta_cap privilege "
           "[accounting [max_in_flight]]'");
      continue;
    }
    if (std::string policy_token; ss >> policy_token) {
      try {
        profile.accounting = gdp::dp::ParseAccountingPolicy(policy_token);
      } catch (const std::invalid_argument& e) {
        skip(e.what());
        continue;
      }
      if (ss >> profile.max_in_flight) {
        if (profile.max_in_flight < 0) {
          skip("max_in_flight must be >= 0");
          continue;
        }
        if (std::string extra; ss >> extra) {
          skip("unexpected trailing field '" + extra + "'");
          continue;
        }
      } else if (!ss.eof()) {
        skip("bad max_in_flight field");
        continue;
      }
    }
    tenants.emplace_back(std::move(id), profile);
  }
  if (tenants.empty()) {
    throw gdp::common::IoError("tenant spec '" + path + "': no usable tenants");
  }
  return tenants;
}

struct ServeRequest {
  std::string tenant;
  double epsilon_g{0.0};
  double delta{0.0};  // 0 = use the publication default
};

// reqs.tsv: one request per line, `tenant_id epsilon_g [delta]`.
std::vector<ServeRequest> ReadServeRequests(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw gdp::common::IoError("cannot open request file '" + path + "'");
  }
  std::vector<ServeRequest> requests;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) {
      continue;
    }
    std::istringstream ss(line);
    ServeRequest req;
    if (!(ss >> req.tenant >> req.epsilon_g)) {
      throw gdp::common::IoError("request line " + std::to_string(line_no) +
                                 ": expected 'tenant_id epsilon_g [delta]'");
    }
    // The optional delta must parse FULLY or error loudly — a typo'd delta
    // silently falling back to the publication default would run the
    // request at the wrong privacy parameter.
    if (std::string token; ss >> token) {
      std::size_t parsed = 0;
      try {
        req.delta = std::stod(token, &parsed);
      } catch (const std::exception&) {
        parsed = 0;
      }
      if (parsed != token.size() || !(req.delta > 0.0)) {
        throw gdp::common::IoError("request line " + std::to_string(line_no) +
                                   ": bad delta '" + token + "'");
      }
      std::string extra;
      if (ss >> extra) {
        throw gdp::common::IoError("request line " + std::to_string(line_no) +
                                   ": unexpected trailing field '" + extra +
                                   "'");
      }
    }
    requests.push_back(std::move(req));
  }
  if (requests.empty()) {
    throw gdp::common::IoError("request file '" + path + "': no requests");
  }
  return requests;
}

// --- socket serving (serve --listen) ---------------------------------------

// SIGTERM/SIGINT set a flag the serve loop polls; the loop then runs the
// server's drain-on-shutdown (in-flight jobs finish, responses flush, the
// WAL stays consistent) instead of the process dying mid-charge.
volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int ServeListenLoop(const Args& args, gdp::serve::DisclosureService& service,
                    std::uint64_t seed, std::ostream& out) {
  gdp::net::ServerConfig server_config;
  server_config.port = static_cast<std::uint16_t>(args.GetInt("listen", 0));
  server_config.num_workers =
      static_cast<std::size_t>(args.GetInt("workers", 2));
  server_config.queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue-depth", 64));
  server_config.seed = seed;
  // Default "shared" keeps socket-vs-batch parity; "per-connection" trades
  // that for contention-free noise draws (deterministic per accept order).
  if (args.Get("noise-streams").value_or("shared") == "per-connection") {
    server_config.noise_streams = gdp::net::NoiseStreamMode::kPerConnection;
  }
  const std::int64_t max_requests = args.GetInt("max-requests", 0);

  gdp::net::Server server(service, server_config);
  // The port file is how scripts (and the parity test) find an ephemeral
  // --listen 0 port; written and closed before the "listening" line so a
  // watcher that saw the line can trust the file.
  if (const auto port_file = args.Get("port-file")) {
    std::ofstream pf(*port_file);
    if (!pf) {
      throw gdp::common::IoError("cannot open port file '" + *port_file + "'");
    }
    pf << server.port() << '\n';
  }
  out << "listening on 127.0.0.1:" << server.port() << " ("
      << server_config.num_workers << " workers, queue depth "
      << server_config.queue_capacity << ", noise streams "
      << gdp::net::NoiseStreamModeName(server_config.noise_streams) << ")\n";
  out.flush();

  g_stop_requested = 0;
  const auto old_term = std::signal(SIGTERM, HandleStopSignal);
  const auto old_int = std::signal(SIGINT, HandleStopSignal);
  while (g_stop_requested == 0 &&
         (max_requests == 0 ||
          server.requests_completed() <
              static_cast<std::uint64_t>(max_requests))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.Stop();
  std::signal(SIGTERM, old_term);
  std::signal(SIGINT, old_int);

  const gdp::net::wire::StatsResponse stats = server.GetStats();
  out << "served " << stats.requests_completed << " requests ("
      << stats.shed_queue_full + stats.shed_tenant_inflight << " shed, "
      << stats.protocol_errors << " protocol errors) over "
      << stats.connections_accepted << " connections\n";
  return 0;
}

// --- client subcommand helpers ---------------------------------------------

struct HostPort {
  std::string host;
  std::uint16_t port{0};
};

HostPort ParseHostPort(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw std::invalid_argument("--connect expects HOST:PORT, got '" + spec +
                                "'");
  }
  const std::string port_token = spec.substr(colon + 1);
  std::size_t parsed = 0;
  long port = 0;
  try {
    port = std::stol(port_token, &parsed);
  } catch (const std::exception&) {
    parsed = 0;
  }
  if (parsed != port_token.size() || port < 1 || port > 65535) {
    throw std::invalid_argument("--connect: bad port '" + port_token + "'");
  }
  return HostPort{spec.substr(0, colon), static_cast<std::uint16_t>(port)};
}

// "--answer assoc,group,degree[:left|right[:MAX]]" — query shapes, never
// levels: the server answers at the tenant's entitled level, so a remote
// caller cannot name a finer partition than its tier.
std::vector<gdp::core::QuerySpec> ParseAnswerSpecs(const std::string& list) {
  using Kind = gdp::core::QuerySpec::Kind;
  std::vector<gdp::core::QuerySpec> queries;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    std::istringstream ss(token);
    std::string head;
    std::getline(ss, head, ':');
    gdp::core::QuerySpec query;  // degree: left side, max degree 8
    if (head == "assoc") {
      query.kind = Kind::kAssociationCount;
    } else if (head == "group") {
      query.kind = Kind::kGroupCount;
    } else if (head == "degree") {
      query.kind = Kind::kDegreeHistogram;
      if (std::string side; std::getline(ss, side, ':')) {
        if (side == "left") {
          query.side = gdp::graph::Side::kLeft;
        } else if (side == "right") {
          query.side = gdp::graph::Side::kRight;
        } else {
          throw std::invalid_argument("--answer: bad side '" + side +
                                      "' in '" + token + "'");
        }
        if (std::string max_token; std::getline(ss, max_token, ':')) {
          // The wire carries MAX as a u32: anything outside [1, 2^32-1]
          // is refused, not wrapped to a different histogram.
          std::uint32_t max_degree = 0;
          const char* end = max_token.data() + max_token.size();
          const auto [ptr, ec] =
              std::from_chars(max_token.data(), end, max_degree);
          if (ec != std::errc{} || ptr != end || max_degree == 0) {
            throw std::invalid_argument(
                "--answer: max degree '" + max_token + "' in '" + token +
                "' is not an integer in [1, 4294967295]");
          }
          query.max_degree = max_degree;
        }
      }
    } else {
      throw std::invalid_argument(
          "--answer: bad query '" + token +
          "' (want assoc | group | degree[:left|right[:MAX]])");
    }
    queries.push_back(query);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  if (queries.empty()) {
    throw std::invalid_argument("--answer: empty query list");
  }
  return queries;
}

std::string AccountingName(std::uint8_t wire_policy) {
  return gdp::dp::AccountingPolicyName(
      static_cast<gdp::dp::AccountingPolicy>(wire_policy));
}

// One outcome row in the shared batch format (gdp_tool serve --out and
// gdp_tool client --out write byte-identical files; net_parity_test pins it).
void WriteResultRow(std::ostream& results_file, std::size_t index,
                    const std::string& tenant, const std::string& status,
                    const gdp::net::wire::ServeOutcome& outcome) {
  const std::string noisy =
      outcome.granted ? gdp::common::FormatDouble(outcome.view.noisy_total, 1)
                      : "-";
  results_file << index << '\t' << tenant << '\t' << outcome.privilege << '\t'
               << outcome.level << '\t' << status << '\t' << noisy << '\t'
               << outcome.epsilon_spent << '\t' << outcome.epsilon_remaining
               << '\t' << AccountingName(outcome.accounting) << '\t'
               << outcome.accounted_epsilon << '\n';
}

}  // namespace

int RunGenerate(const Args& args, std::ostream& out) {
  const std::string path = Require(args, "out");
  gdp::common::Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 42)));
  gdp::graph::DblpLikeParams params;
  if (args.Get("scale")) {
    params = gdp::graph::DblpScaledParams(args.GetDouble("scale", 0.01));
  } else {
    // Node counts arrive as 64-bit flag values; reject anything outside the
    // 32-bit NodeIndex range up front, BEFORE the generator sizes its
    // permutation/CDF arrays from them.
    const auto node_count = [&](const char* flag, std::int64_t def) {
      const std::int64_t v = args.GetInt(flag, def);
      if (v < 0) {
        throw std::invalid_argument(std::string("--") + flag +
                                    " must be >= 0");
      }
      return gdp::graph::CheckedNodeCount(static_cast<std::uint64_t>(v),
                                          flag);
    };
    params.num_left = node_count("left", 10000);
    params.num_right = node_count("right", 15000);
    const std::int64_t edges = args.GetInt("edges", 50000);
    if (edges < 0) {
      throw std::invalid_argument("--edges must be >= 0");
    }
    params.num_edges = static_cast<gdp::graph::EdgeCount>(edges);
  }
  if (args.HasSwitch("stream")) {
    // Large-graph path: edges go straight from the sampler to the file in
    // bounded chunks; the graph (and its dedup set) is never materialised,
    // so 100M+ edges generate in O(nodes + chunk) memory.
    constexpr std::size_t kChunkEdges = 1 << 20;
    std::ofstream file(path, std::ios::binary);
    if (!file) {
      throw gdp::common::IoError("cannot open edge list file for writing: " +
                                 path);
    }
    file << "# gdp bipartite edge list\n";
    file << params.num_left << '\t' << params.num_right << '\n';
    std::string buf;
    gdp::graph::GenerateDblpLikeStream(
        params, rng, kChunkEdges,
        [&](std::span<const gdp::graph::Edge> edges) {
          buf.clear();
          char digits[32];
          for (const gdp::graph::Edge& e : edges) {
            auto r = std::to_chars(digits, digits + sizeof(digits), e.left);
            buf.append(digits, r.ptr);
            buf.push_back('\t');
            r = std::to_chars(digits, digits + sizeof(digits), e.right);
            buf.append(digits, r.ptr);
            buf.push_back('\n');
          }
          file.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        });
    if (!file) {
      throw gdp::common::IoError("write failure on edge list file: " + path);
    }
    out << "wrote bipartite graph (" << params.num_left << " left, "
        << params.num_right << " right, " << params.num_edges
        << " edges, streamed with replacement) to " << path << '\n';
    return 0;
  }
  const auto graph = GenerateDblpLike(params, rng);
  gdp::graph::WriteEdgeListFile(graph, path);
  out << "wrote " << graph.Summary() << " to " << path << '\n';
  return 0;
}

int RunDisclose(const Args& args, std::ostream& out) {
  // Validate cheap flags before touching the filesystem.
  if (!args.Get("graph") && !args.Get("snapshot")) {
    throw std::invalid_argument(
        "missing required flag '--graph' (or '--snapshot')");
  }
  const std::string release_path = Require(args, "release");

  gdp::core::SessionSpec spec = ParseSessionSpec(args);
  spec.exec.enforce_consistency = args.HasSwitch("consistent");
  spec.accounting = ParseAccountingFlag(args.GetOr("accounting", "sequential"),
                                        spec.strict_level_charging);

  // --sweep ε1,ε2,…: parse before touching the filesystem.
  std::vector<std::pair<std::string, double>> sweep;
  if (const auto sweep_list = args.Get("sweep")) {
    sweep = ParseSweepList(*sweep_list);
  }

  const auto graph = LoadGraphInput(args);
  gdp::common::Rng rng(static_cast<std::uint64_t>(args.GetInt("seed", 42)));
  const bool strip = args.HasSwitch("strip-truth");

  if (!sweep.empty()) {
    // One session: Phase 1 and the plan's node scan run once; every swept ε
    // is a plan-only release.  The session grant covers exactly the sweep
    // (phase-1 spend + each point's phase-2 spend), so the audit report
    // shows the whole spend against the whole grant.
    std::vector<gdp::core::BudgetSpec> points;
    points.reserve(sweep.size());
    spec.epsilon_cap = spec.budget.phase1_epsilon();
    spec.delta_cap = spec.budget.delta * static_cast<double>(sweep.size()) * 2.0;
    for (const auto& entry : sweep) {
      gdp::core::BudgetSpec point = spec.budget;
      point.epsilon_g = entry.second;
      spec.epsilon_cap += point.phase2_epsilon();
      points.push_back(point);
    }
    auto session = gdp::core::DisclosureSession::Open(graph, spec, rng);
    // Validate every point before writing anything: a bad later ε must not
    // leave a partial set of sweep artifacts on disk.
    for (const auto& point : points) {
      session.ValidateBudget(point);
    }
    out << "disclosed " << graph.Summary() << " (session sweep, "
        << sweep.size() << " points)\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const std::string& token = sweep[i].first;
      const auto release = session.Release(points[i], rng,
                                           "sweep eps=" + token +
                                               ": phase2 noise");
      const std::string path = release_path + ".eps" + token;
      gdp::core::WriteReleaseFile(strip ? release.StripTruth() : release, path);
      out << "release (eps_g=" << token << ") written to " << path << '\n';
    }
    out << session.ledger().AuditReport();
    if (const auto hier_path = args.Get("hierarchy")) {
      gdp::hier::WriteHierarchyFile(session.hierarchy(), *hier_path);
      out << "hierarchy written to " << *hier_path << '\n';
    }
    return 0;
  }

  const auto result = gdp::core::RunDisclosure(graph, spec, rng);
  gdp::core::WriteReleaseFile(
      strip ? result.release.StripTruth() : result.release, release_path);
  out << "disclosed " << graph.Summary() << '\n';
  out << result.ledger.AuditReport();
  out << "release written to " << release_path << '\n';
  if (const auto hier_path = args.Get("hierarchy")) {
    gdp::hier::WriteHierarchyFile(result.hierarchy, *hier_path);
    out << "hierarchy written to " << *hier_path << '\n';
  }
  return 0;
}

int RunInspect(const Args& args, std::ostream& out) {
  const auto release = gdp::core::ReadReleaseFile(Require(args, "release"));
  gdp::common::TextTable table(
      {"level", "sensitivity", "noise_sigma", "noisy_total", "groups"});
  for (const auto& lr : release.levels()) {
    table.AddRow({"L" + std::to_string(lr.level),
                  gdp::common::FormatDouble(lr.sensitivity, 0),
                  gdp::common::FormatDouble(lr.noise_stddev, 1),
                  gdp::common::FormatDouble(lr.noisy_total, 0),
                  std::to_string(lr.noisy_group_counts.size())});
  }
  table.Print(out);
  return 0;
}

int RunDrilldown(const Args& args, std::ostream& out) {
  // Validate cheap flags before touching the filesystem.
  const std::string side_name = Require(args, "side");
  gdp::graph::Side side;
  if (side_name == "left") {
    side = gdp::graph::Side::kLeft;
  } else if (side_name == "right") {
    side = gdp::graph::Side::kRight;
  } else {
    throw std::invalid_argument("--side must be 'left' or 'right'");
  }
  const gdp::graph::NodeIndex node = GetNodeFlag(args);
  const int min_level = GetIntFlag(args, "min-level", 0);
  const auto release = gdp::core::ReadReleaseFile(Require(args, "release"));
  const auto hierarchy =
      gdp::hier::ReadHierarchyFile(Require(args, "hierarchy"));
  const int max_level = GetIntFlag(args, "max-level", hierarchy.depth());

  const gdp::hier::HierarchyIndex index(hierarchy);
  const auto chain =
      gdp::core::DrillDown(release, index, side, node, max_level, min_level);
  gdp::common::TextTable table({"level", "group", "group_size", "noisy_count"});
  for (const auto& entry : chain) {
    table.AddRow({"L" + std::to_string(entry.level), std::to_string(entry.group),
                  std::to_string(entry.group_size),
                  gdp::common::FormatDouble(entry.noisy_count, 1)});
  }
  table.Print(out);
  return 0;
}

int RunServe(const Args& args, std::ostream& out) {
  // Validate cheap flags before touching the filesystem.
  const auto graph_path = args.Get("graph");
  const auto snapshot_path = args.Get("snapshot");
  if (static_cast<bool>(graph_path) == static_cast<bool>(snapshot_path)) {
    throw std::invalid_argument(
        "serve needs exactly one of --graph or --snapshot");
  }
  const std::string tenants_path = Require(args, "tenants");
  const auto requests_path = args.Get("requests");
  const auto listen = args.Get("listen");
  if (static_cast<bool>(requests_path) == static_cast<bool>(listen)) {
    throw std::invalid_argument(
        "serve needs exactly one of --requests (batch driver) or --listen "
        "(socket server)");
  }
  if (listen) {
    const std::int64_t port = args.GetInt("listen", 0);
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("--listen must be a port in [0, 65535]");
    }
    const std::int64_t workers = args.GetInt("workers", 2);
    if (workers <= 0 || workers > gdp::common::kMaxThreadCount) {
      throw std::invalid_argument(
          "--workers must be in [1, " +
          std::to_string(gdp::common::kMaxThreadCount) + "], got " +
          std::to_string(workers));
    }
    if (args.GetInt("queue-depth", 64) <= 0) {
      throw std::invalid_argument("--queue-depth must be > 0");
    }
    if (args.GetInt("max-requests", 0) < 0) {
      throw std::invalid_argument("--max-requests must be >= 0");
    }
    if (const auto noise_streams = args.Get("noise-streams")) {
      if (*noise_streams != "shared" && *noise_streams != "per-connection") {
        throw std::invalid_argument(
            "--noise-streams must be 'shared' or 'per-connection', got '" +
            *noise_streams + "'");
      }
    }
  }
  const std::int64_t capacity = args.GetInt("registry-capacity", 8);
  if (capacity <= 0) {
    throw std::invalid_argument("--registry-capacity must be > 0");
  }

  gdp::core::SessionSpec spec = ParseSessionSpec(args);
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));
  const gdp::dp::AccountingPolicy default_accounting = ParseAccountingFlag(
      args.GetOr("accounting", "sequential"), spec.strict_level_charging);

  const double dataset_eps_cap = args.GetDouble("dataset-eps-cap", 0.0);
  const double dataset_delta_cap = args.GetDouble("dataset-delta-cap", 0.0);
  if (args.Get("dataset-eps-cap") && !(dataset_eps_cap > 0.0)) {
    throw std::invalid_argument("--dataset-eps-cap must be > 0");
  }

  std::size_t tenants_skipped = 0;
  const auto tenants =
      ReadTenantSpecs(tenants_path, default_accounting, out, tenants_skipped);
  std::vector<ServeRequest> requests;
  if (requests_path) {
    requests = ReadServeRequests(*requests_path);
  }

  const std::string dataset_name = args.GetOr("dataset", "default");
  std::optional<gdp::serve::Dataset> dataset;
  if (graph_path) {
    dataset.emplace(gdp::serve::Dataset{gdp::graph::ReadEdgeListFile(*graph_path),
                                        spec, seed, {}, {}});
    out << "serving " << dataset->graph.Summary();
  } else {
    // Nothing is read here: the snapshot is mmap'd and validated by the
    // catalog on the first request that touches the dataset.
    out << "serving snapshot '" << *snapshot_path << "' (lazy)";
  }
  out << " as dataset '" << dataset_name << "' to " << tenants.size()
      << " tenants";
  if (tenants_skipped > 0) {
    out << " (" << tenants_skipped << " malformed rows skipped)";
  }
  if (requests_path) {
    out << " (" << requests.size() << " requests)\n";
  } else {
    out << " (socket mode)\n";
  }

  // Registration shared by the durable and in-memory paths.  A tenant whose
  // caps the broker rejects is skipped with a warning, same policy as a
  // malformed row: one bad grant must not abort the batch.
  const auto configure = [&](gdp::serve::DisclosureService& svc) {
    if (dataset) {
      svc.catalog().Register(dataset_name, std::move(*dataset));
    } else {
      svc.catalog().RegisterSnapshot(dataset_name, *snapshot_path,
                                     spec, seed);
    }
    for (const auto& [id, profile] : tenants) {
      try {
        svc.broker().Register(id, profile);
      } catch (const std::invalid_argument& e) {
        ++tenants_skipped;
        out << "warning: tenant '" << id << "' skipped: " << e.what() << '\n';
      }
    }
    if (dataset_eps_cap > 0.0) {
      svc.odometer().SetBudget(dataset_name, dataset_eps_cap,
                               dataset_delta_cap, default_accounting);
    }
  };

  std::unique_ptr<gdp::serve::DisclosureService> service_ptr;
  if (const auto wal_path = args.Get("wal")) {
    service_ptr = gdp::serve::DisclosureService::Open(
        configure, *wal_path, static_cast<std::size_t>(capacity));
    const gdp::serve::RecoveryReport& recovery = service_ptr->recovery();
    out << "wal '" << *wal_path << "': replayed " << recovery.records_replayed
        << " records, restored " << recovery.tenants_restored << " tenants, "
        << recovery.datasets_retired << " datasets retired";
    if (recovery.truncated_bytes > 0) {
      out << "; truncated " << recovery.truncated_bytes << "-byte torn tail";
    }
    if (recovery.sequence_gap) {
      out << "; WARNING: sequence gap (records lost)";
    }
    out << '\n';
  } else {
    service_ptr = std::make_unique<gdp::serve::DisclosureService>(
        static_cast<std::size_t>(capacity));
    configure(*service_ptr);
  }
  gdp::serve::DisclosureService& service = *service_ptr;

  if (listen) {
    // Socket mode: same configured service, same Rng(seed).Fork(1) request
    // stream (inside net::Server), so a sequential remote client gets
    // bit-identical results to the batch loop below (net_parity_test).
    return ServeListenLoop(args, service, seed, out);
  }

  // Request noise comes from a stream forked off the compile seed, so one
  // --seed reproduces the whole batch (compile AND draws) bit-for-bit.
  gdp::common::Rng request_rng = gdp::common::Rng(seed).Fork(1);

  gdp::common::TextTable table({"req", "tenant", "tier", "level", "status",
                                "noisy_total", "eps_spent", "eps_left",
                                "accounting", "acct_eps"});
  std::ofstream results_file;
  if (const auto out_path = args.Get("out")) {
    results_file.open(*out_path);
    if (!results_file) {
      throw gdp::common::IoError("cannot open results file '" + *out_path +
                                 "'");
    }
    results_file << "# req\ttenant\ttier\tlevel\tstatus\tnoisy_total\t"
                    "eps_spent\teps_left\taccounting\tacct_eps\n";
  }
  std::size_t granted = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServeRequest& req = requests[i];
    gdp::core::BudgetSpec budget = spec.budget;
    budget.epsilon_g = req.epsilon_g;
    if (req.delta > 0.0) {
      budget.delta = req.delta;
    }
    gdp::serve::ServeResult result;
    bool known = true;
    try {
      result = service.Serve(req.tenant, dataset_name, budget, request_rng);
    } catch (const gdp::common::NotFoundError& e) {
      // A request naming a tenant the broker does not know (e.g. one whose
      // spec row was skipped as malformed) must not abort the whole batch.
      known = false;
      out << "warning: request " << i << " skipped: " << e.what() << '\n';
    }
    granted += result.granted ? 1 : 0;
    const std::string status =
        known ? (result.granted ? "served" : "denied") : "unknown";
    const std::string noisy = result.granted
                                  ? gdp::common::FormatDouble(
                                        result.view.noisy_total, 1)
                                  : "-";
    table.AddRow({std::to_string(i), req.tenant,
                  std::to_string(result.privilege),
                  "L" + std::to_string(result.level), status, noisy,
                  gdp::common::FormatDouble(result.epsilon_spent, 4),
                  gdp::common::FormatDouble(result.epsilon_remaining, 4),
                  gdp::dp::AccountingPolicyName(result.accounting),
                  gdp::common::FormatDouble(result.accounted_epsilon, 4)});
    if (results_file.is_open()) {
      WriteResultRow(results_file, i, req.tenant, status,
                     gdp::net::wire::ServeOutcome::FromResult(result));
    }
  }
  table.Print(out);
  const auto stats = service.registry().stats();
  out << "served " << granted << "/" << requests.size() << " requests; "
      << "registry: " << stats.hits << " hits, " << stats.misses
      << " misses, " << stats.evictions << " evictions, "
      << stats.snapshot_adoptions << " snapshot adoptions\n";
  if (const auto snap = service.odometer().Get(dataset_name)) {
    out << "dataset odometer: eps_spent=" << snap->epsilon_spent
        << " acct_eps=" << snap->accounted_epsilon
        << " charges=" << snap->charges;
    if (snap->budgeted) {
      out << " cap_eps=" << snap->epsilon_cap;
    }
    if (snap->retired) {
      out << " RETIRED (" << snap->retire_reason << ")";
    }
    out << '\n';
  }
  if (service.wal_enabled()) {
    const gdp::serve::DurabilityStats dstats = service.durability_stats();
    out << "wal: " << dstats.wal_appends << " appends, "
        << dstats.wal_failures << " failures, "
        << dstats.dataset_denials << " dataset denials\n";
  }
  return 0;
}

int RunClient(const Args& args, std::ostream& out) {
  namespace wire = gdp::net::wire;
  const HostPort endpoint = ParseHostPort(Require(args, "connect"));
  const std::string dataset = args.GetOr("dataset", "default");

  // Exactly one mode; validated before dialing the server.
  const bool want_stats = args.HasSwitch("stats");
  const auto requests_path = args.Get("requests");
  const auto tenant = args.Get("tenant");
  if (static_cast<int>(want_stats) + static_cast<int>(bool(requests_path)) +
          static_cast<int>(bool(tenant)) !=
      1) {
    throw std::invalid_argument(
        "client needs exactly one of --stats, --requests, or --tenant");
  }

  // A typed refusal from the server is data, not an exception: print it and
  // exit non-zero so scripts notice.
  const auto refusal = [&out](const auto& reply) -> int {
    if (reply.status == gdp::net::ReplyStatus::kOverloaded) {
      out << "overloaded: " << reply.message << '\n';
    } else {
      out << "error (" << wire::ErrorCodeName(reply.error_code)
          << "): " << reply.message << '\n';
    }
    return 1;
  };
  const auto print_outcome = [&out](const wire::ServeOutcome& o) -> int {
    gdp::common::TextTable table({"tier", "level", "status", "noisy_total",
                                  "eps_spent", "eps_left", "accounting",
                                  "acct_eps"});
    table.AddRow(
        {std::to_string(o.privilege), "L" + std::to_string(o.level),
         o.granted ? "served" : "denied",
         o.granted ? gdp::common::FormatDouble(o.view.noisy_total, 1) : "-",
         gdp::common::FormatDouble(o.epsilon_spent, 4),
         gdp::common::FormatDouble(o.epsilon_remaining, 4),
         AccountingName(o.accounting),
         gdp::common::FormatDouble(o.accounted_epsilon, 4)});
    table.Print(out);
    if (!o.granted) {
      out << "denied: " << o.denial_reason << '\n';
    }
    return o.granted ? 0 : 1;
  };

  if (want_stats) {
    gdp::net::Client client(endpoint.host, endpoint.port);
    const auto reply = client.Stats();
    if (!reply.ok()) {
      return refusal(reply);
    }
    const wire::StatsResponse& s = reply.value;
    gdp::common::TextTable table({"stat", "value"});
    const auto add = [&table](const char* name, std::uint64_t value) {
      table.AddRow({name, std::to_string(value)});
    };
    add("registry_hits", s.registry_hits);
    add("registry_misses", s.registry_misses);
    add("registry_evictions", s.registry_evictions);
    add("registry_snapshot_adoptions", s.registry_snapshot_adoptions);
    add("registry_size", s.registry_size);
    add("registry_capacity", s.registry_capacity);
    add("catalog_datasets", s.catalog_datasets);
    add("broker_tenants", s.broker_tenants);
    add("wal_enabled", s.wal_enabled);
    add("failed_closed", s.failed_closed);
    add("wal_appends", s.wal_appends);
    add("wal_failures", s.wal_failures);
    add("fail_closed_rejections", s.fail_closed_rejections);
    add("dataset_denials", s.dataset_denials);
    add("connections_accepted", s.connections_accepted);
    add("connections_open", s.connections_open);
    add("requests_enqueued", s.requests_enqueued);
    add("requests_completed", s.requests_completed);
    add("shed_queue_full", s.shed_queue_full);
    add("shed_tenant_inflight", s.shed_tenant_inflight);
    add("protocol_errors", s.protocol_errors);
    add("queue_depth", s.queue_depth);
    add("queue_capacity", s.queue_capacity);
    add("queue_high_watermark", s.queue_high_watermark);
    add("workers", s.workers);
    add("io_threads", s.io_threads);
    table.AddRow({"noise_streams",
                  gdp::net::NoiseStreamModeName(
                      static_cast<gdp::net::NoiseStreamMode>(
                          s.noise_streams))});
    add("rng_mutex_acquisitions", s.rng_mutex_acquisitions);
    add("partial_writes", s.partial_writes);
    table.Print(out);
    return 0;
  }

  wire::WireBudget base_budget;
  base_budget.epsilon_g = args.GetDouble("eps", base_budget.epsilon_g);
  base_budget.delta = args.GetDouble("delta", base_budget.delta);

  if (requests_path) {
    // Batch mode: the same reqs.tsv the in-process driver consumes, the same
    // results-file format (WriteResultRow — net_parity_test compares the
    // files byte for byte).
    const auto requests = ReadServeRequests(*requests_path);
    std::ofstream results_file;
    if (const auto out_path = args.Get("out")) {
      results_file.open(*out_path);
      if (!results_file) {
        throw gdp::common::IoError("cannot open results file '" + *out_path +
                                   "'");
      }
      results_file << "# req\ttenant\ttier\tlevel\tstatus\tnoisy_total\t"
                      "eps_spent\teps_left\taccounting\tacct_eps\n";
    }
    gdp::net::Client client(endpoint.host, endpoint.port);
    gdp::common::TextTable table({"req", "tenant", "tier", "level", "status",
                                  "noisy_total", "eps_spent", "eps_left",
                                  "accounting", "acct_eps"});
    std::size_t granted = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const ServeRequest& req = requests[i];
      wire::ServeRequest wire_req;
      wire_req.tenant = req.tenant;
      wire_req.dataset = dataset;
      wire_req.budget = base_budget;
      wire_req.budget.epsilon_g = req.epsilon_g;
      if (req.delta > 0.0) {
        wire_req.budget.delta = req.delta;
      }
      const auto reply = client.Serve(wire_req);
      wire::ServeOutcome outcome;
      std::string status;
      if (reply.ok()) {
        outcome = reply.value;
        status = outcome.granted ? "served" : "denied";
      } else if (reply.status == gdp::net::ReplyStatus::kError &&
                 reply.error_code == wire::ErrorCode::kNotFound) {
        // Same policy as the batch driver: an unknown tenant/dataset must
        // not abort the whole batch.
        status = "unknown";
        out << "warning: request " << i << " skipped: " << reply.message
            << '\n';
      } else if (reply.status == gdp::net::ReplyStatus::kOverloaded) {
        status = "overloaded";
      } else {
        throw gdp::common::IoError(
            std::string("server error (") +
            wire::ErrorCodeName(reply.error_code) + "): " + reply.message);
      }
      granted += outcome.granted ? 1 : 0;
      const std::string noisy =
          outcome.granted
              ? gdp::common::FormatDouble(outcome.view.noisy_total, 1)
              : "-";
      table.AddRow({std::to_string(i), req.tenant,
                    std::to_string(outcome.privilege),
                    "L" + std::to_string(outcome.level), status, noisy,
                    gdp::common::FormatDouble(outcome.epsilon_spent, 4),
                    gdp::common::FormatDouble(outcome.epsilon_remaining, 4),
                    AccountingName(outcome.accounting),
                    gdp::common::FormatDouble(outcome.accounted_epsilon, 4)});
      if (results_file.is_open()) {
        WriteResultRow(results_file, i, req.tenant, status, outcome);
      }
    }
    table.Print(out);
    out << "served " << granted << "/" << requests.size() << " requests\n";
    return 0;
  }

  // Checked before dialing, like the mode flags above.
  const gdp::graph::NodeIndex node = GetNodeFlag(args);
  const auto answer_list = args.Get("answer");
  const std::vector<gdp::core::QuerySpec> answer_queries =
      answer_list ? ParseAnswerSpecs(*answer_list)
                  : std::vector<gdp::core::QuerySpec>{};
  gdp::net::Client client(endpoint.host, endpoint.port);

  if (const auto sweep_list = args.Get("sweep")) {
    const auto points = ParseSweepList(*sweep_list);
    wire::SweepRequest req;
    req.tenant = *tenant;
    req.dataset = dataset;
    for (const auto& point : points) {
      wire::WireBudget budget = base_budget;
      budget.epsilon_g = point.second;
      req.budgets.push_back(budget);
    }
    const auto reply = client.Sweep(req);
    if (!reply.ok()) {
      return refusal(reply);
    }
    gdp::common::TextTable table({"eps_g", "tier", "level", "status",
                                  "noisy_total", "eps_left", "acct_eps"});
    for (std::size_t i = 0; i < reply.value.outcomes.size(); ++i) {
      const wire::ServeOutcome& o = reply.value.outcomes[i];
      table.AddRow(
          {points[i].first, std::to_string(o.privilege),
           "L" + std::to_string(o.level), o.granted ? "served" : "denied",
           o.granted ? gdp::common::FormatDouble(o.view.noisy_total, 1) : "-",
           gdp::common::FormatDouble(o.epsilon_remaining, 4),
           gdp::common::FormatDouble(o.accounted_epsilon, 4)});
    }
    table.Print(out);
    return 0;
  }

  if (args.HasSwitch("drilldown")) {
    const std::string side_name = Require(args, "side");
    wire::DrilldownRequest req;
    req.tenant = *tenant;
    req.dataset = dataset;
    req.budget = base_budget;
    if (side_name == "left") {
      req.side = 0;
    } else if (side_name == "right") {
      req.side = 1;
    } else {
      throw std::invalid_argument("--side must be 'left' or 'right'");
    }
    req.node = node;
    const auto reply = client.Drilldown(req);
    if (!reply.ok()) {
      return refusal(reply);
    }
    if (const int rc = print_outcome(reply.value.outcome); rc != 0) {
      return rc;
    }
    gdp::common::TextTable table(
        {"level", "group", "group_size", "noisy_count"});
    for (const wire::WireDrillEntry& entry : reply.value.chain) {
      table.AddRow({"L" + std::to_string(entry.level),
                    std::to_string(entry.group),
                    std::to_string(entry.group_size),
                    gdp::common::FormatDouble(entry.noisy_count, 1)});
    }
    table.Print(out);
    return 0;
  }

  if (answer_list) {
    wire::AnswerRequest req;
    req.tenant = *tenant;
    req.dataset = dataset;
    req.budget = base_budget;
    req.queries = answer_queries;
    const auto reply = client.Answer(req);
    if (!reply.ok()) {
      return refusal(reply);
    }
    if (const int rc = print_outcome(reply.value.outcome); rc != 0) {
      return rc;
    }
    gdp::common::TextTable table({"query", "noise_sigma", "noisy"});
    for (const gdp::serve::PublishedAnswer& r : reply.value.results) {
      std::string noisy;
      for (const double v : r.noisy) {
        noisy += (noisy.empty() ? "" : " ") + gdp::common::FormatDouble(v, 1);
      }
      table.AddRow({r.query_name, gdp::common::FormatDouble(r.noise_stddev, 2),
                    noisy});
    }
    table.Print(out);
    return 0;
  }

  wire::ServeRequest req;
  req.tenant = *tenant;
  req.dataset = dataset;
  req.budget = base_budget;
  const auto reply = client.Serve(req);
  if (!reply.ok()) {
    return refusal(reply);
  }
  return print_outcome(reply.value);
}

int RunPack(const Args& args, std::ostream& out) {
  const std::string graph_path = Require(args, "graph");
  const std::string out_path = Require(args, "out");
  const bool compile = args.HasSwitch("compile");
  const bool verify = args.HasSwitch("verify");

  // The fingerprint stored with --compile is Fingerprint(spec, seed) of the
  // shared spec parser's output, so a serve run with the SAME flags adopts
  // the embedded plan and skips Phase-1.
  const gdp::core::SessionSpec spec = ParseSessionSpec(args);
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 42));

  // Two-pass streaming read: identical graph to ReadEdgeListFile, but the
  // transient edge vector (3x the CSR at 100M-edge scale) never exists —
  // pack is the designated large-graph entry point and must stay within a
  // bounded RSS envelope (docs/PERF.md, SCALE).
  const auto graph = gdp::graph::ReadEdgeListFileStreaming(graph_path);
  gdp::storage::SnapshotContents contents;
  contents.graph = &graph;
  std::shared_ptr<const gdp::core::CompiledDisclosure> compiled;
  if (compile) {
    gdp::common::Rng rng(seed);
    compiled = gdp::core::CompiledDisclosure::Compile(graph, spec, rng);
    contents.hierarchy = &compiled->hierarchy();
    contents.plan = &compiled->plan();
    contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
    contents.fingerprint = gdp::serve::SessionRegistry::Fingerprint(spec, seed);
  }
  gdp::storage::WriteSnapshotFile(out_path, contents);
  out << "packed " << graph.Summary() << " to " << out_path
      << (compile ? " (with compiled plan)" : "") << '\n';

  if (verify) {
    // Load re-checks the header/table/per-section CRCs and the structural
    // invariants (CSR shape, plan max-sum recomputation); on top of that,
    // compare the loaded columns byte-for-byte against what was packed.
    const auto snap = gdp::storage::Snapshot::Load(out_path);
    const gdp::graph::BipartiteGraph& loaded = snap->graph();
    const auto same = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    using gdp::graph::Side;
    if (loaded.num_left() != graph.num_left() ||
        loaded.num_right() != graph.num_right() ||
        loaded.num_edges() != graph.num_edges() ||
        !same(loaded.offsets(Side::kLeft), graph.offsets(Side::kLeft)) ||
        !same(loaded.adjacency(Side::kLeft), graph.adjacency(Side::kLeft)) ||
        !same(loaded.offsets(Side::kRight), graph.offsets(Side::kRight)) ||
        !same(loaded.adjacency(Side::kRight), graph.adjacency(Side::kRight))) {
      throw gdp::common::SnapshotFormatError(
          "pack --verify: re-loaded graph differs from the packed one");
    }
    if (compile) {
      if (!snap->has_plan() || snap->fingerprint() != contents.fingerprint ||
          !same(snap->plan().FlatSums(), compiled->plan().FlatSums()) ||
          !same(snap->plan().LevelOffsets(), compiled->plan().LevelOffsets())) {
        throw gdp::common::SnapshotFormatError(
            "pack --verify: re-loaded plan differs from the compiled one");
      }
    }
    out << "verify OK: " << snap->file_size() << " bytes, all CRCs good, "
        << "columns identical\n";
  }
  return 0;
}

int RunAudit(const Args& args, std::ostream& out) {
  const std::string path = Require(args, "verify");
  const bool tolerate_tail = args.HasSwitch("tolerate-tail");

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw gdp::common::IoError("cannot open wal file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  const gdp::serve::WalReplayResult replay =
      gdp::serve::AuditWal::Replay(bytes);  // IoError on a non-WAL file

  std::size_t failures = 0;
  const auto fail = [&](const std::string& why) {
    ++failures;
    out << "FAIL: " << why << '\n';
  };

  if (replay.truncated_bytes > 0) {
    if (tolerate_tail) {
      out << "note: " << replay.truncated_bytes
          << "-byte torn tail ignored (--tolerate-tail)\n";
    } else {
      fail(std::to_string(replay.truncated_bytes) +
           "-byte torn/corrupt tail (a crashed writer leaves this; rerun "
           "with --tolerate-tail to accept it)");
    }
  }
  if (replay.sequence_gap) {
    fail("sequence gap: records are missing from the middle of the log "
         "(not producible by a torn write)");
  }

  // Recompute every stamped guarantee from the event stream alone.  Each
  // kTenantOpen rebuilds that tenant's accountant under the logged policy
  // and re-spends its accumulated history (exactly what
  // DisclosureSession::Restore does on recovery), so a divergent stamp
  // means the writer's ledger and its log disagreed — the one thing an
  // audit log must never let pass.
  struct TenantState {
    bool has_open{false};
    double delta_cap{0.0};
    std::unique_ptr<gdp::dp::PrivacyAccountant> accountant;
    std::vector<gdp::dp::MechanismEvent> events;
  };
  std::map<std::pair<std::string, std::string>, TenantState> tenants;
  struct DatasetTally {
    double epsilon{0.0};
    double delta{0.0};
    std::uint64_t charges{0};
    bool retired{false};
  };
  std::map<std::string, DatasetTally> datasets;

  const auto close_enough = [](double recomputed, double stamped) {
    return std::abs(recomputed - stamped) <=
           1e-9 * std::max(1.0, std::abs(stamped));
  };

  std::uint32_t last_epoch = 0;
  for (std::size_t i = 0; i < replay.records.size(); ++i) {
    const gdp::serve::WalRecord& record = replay.records[i];
    const std::string where = "record " + std::to_string(i) + " (seq " +
                              std::to_string(record.seq) + ", " +
                              gdp::serve::WalRecordKindName(record.kind) + ")";
    if (record.epoch < last_epoch) {
      fail(where + ": epoch went backwards (" + std::to_string(record.epoch) +
           " after " + std::to_string(last_epoch) + ")");
    }
    last_epoch = std::max(last_epoch, record.epoch);
    const auto key = std::make_pair(record.tenant, record.dataset);
    const bool has_event =
        record.event.TotalEpsilon() > 0.0 || record.event.TotalDelta() > 0.0;
    switch (record.kind) {
      case gdp::serve::WalRecordKind::kTenantOpen: {
        TenantState& state = tenants[key];
        state.has_open = true;
        state.delta_cap = record.delta_cap;
        state.accountant = gdp::dp::MakeAccountant(record.accounting);
        for (const gdp::dp::MechanismEvent& event : state.events) {
          state.accountant->Spend(event);
        }
        const gdp::dp::BudgetCharge recomputed =
            has_event
                ? state.accountant->GuaranteeWith(record.event, state.delta_cap)
                : state.accountant->AdmissionGuarantee(state.delta_cap);
        if (!close_enough(recomputed.epsilon, record.accounted_epsilon) ||
            !close_enough(recomputed.delta, record.accounted_delta)) {
          fail(where + ": stamped guarantee (eps=" +
               std::to_string(record.accounted_epsilon) +
               ") diverges from recomputed (eps=" +
               std::to_string(recomputed.epsilon) + ")");
        }
        if (has_event) {
          state.accountant->Spend(record.event);
          state.events.push_back(record.event);
          DatasetTally& tally = datasets[record.dataset];
          tally.epsilon += record.event.TotalEpsilon();
          tally.delta += record.event.TotalDelta();
          ++tally.charges;
        }
        break;
      }
      case gdp::serve::WalRecordKind::kCharge: {
        const auto it = tenants.find(key);
        if (it == tenants.end() || !it->second.has_open) {
          fail(where + ": charge for tenant '" + record.tenant +
               "' that was never opened on dataset '" + record.dataset + "'");
          break;
        }
        DatasetTally& tally = datasets[record.dataset];
        if (tally.retired) {
          fail(where + ": charge against dataset '" + record.dataset +
               "' AFTER its retirement record — a retired dataset must stay "
               "retired");
        }
        TenantState& state = it->second;
        const gdp::dp::BudgetCharge recomputed =
            state.accountant->GuaranteeWith(record.event, state.delta_cap);
        if (!close_enough(recomputed.epsilon, record.accounted_epsilon) ||
            !close_enough(recomputed.delta, record.accounted_delta)) {
          fail(where + ": stamped guarantee (eps=" +
               std::to_string(record.accounted_epsilon) +
               ") diverges from recomputed (eps=" +
               std::to_string(recomputed.epsilon) + ")");
        }
        state.accountant->Spend(record.event);
        state.events.push_back(record.event);
        tally.epsilon += record.event.TotalEpsilon();
        tally.delta += record.event.TotalDelta();
        ++tally.charges;
        break;
      }
      case gdp::serve::WalRecordKind::kDatasetRetired:
        datasets[record.dataset].retired = true;
        break;
    }
  }

  out << "wal '" << path << "': " << replay.records.size() << " records, "
      << (replay.records.empty() ? 0 : last_epoch + 1) << " epoch(s), "
      << tenants.size() << " tenant-dataset pairs\n";
  gdp::common::TextTable tenant_table(
      {"tenant", "dataset", "charges", "acct_eps", "acct_delta"});
  for (const auto& [key2, state] : tenants) {
    const gdp::dp::BudgetCharge guarantee =
        state.accountant->AdmissionGuarantee(state.delta_cap);
    tenant_table.AddRow({key2.first, key2.second,
                         std::to_string(state.events.size()),
                         gdp::common::FormatDouble(guarantee.epsilon, 4),
                         gdp::common::FormatDouble(guarantee.delta, 6)});
  }
  tenant_table.Print(out);
  gdp::common::TextTable dataset_table(
      {"dataset", "charges", "eps_total", "delta_total", "retired"});
  for (const auto& [name, tally] : datasets) {
    dataset_table.AddRow({name, std::to_string(tally.charges),
                          gdp::common::FormatDouble(tally.epsilon, 4),
                          gdp::common::FormatDouble(tally.delta, 6),
                          tally.retired ? "yes" : "no"});
  }
  dataset_table.Print(out);
  if (failures > 0) {
    out << "audit FAILED: " << failures << " divergence(s)\n";
    return 1;
  }
  out << "audit OK: every stamped guarantee recomputes from the event "
         "stream\n";
  return 0;
}

std::string UsageText() {
  return "usage: gdp_tool <command> [flags]\n"
         "commands:\n"
         "  generate  --out g.tsv [--scale F | --left N --right M --edges E]"
         " [--seed S]\n"
         "            [--stream]  chunked large-graph path: edges go straight\n"
         "            from the sampler to the file (with replacement, no\n"
         "            dedup) in O(nodes + chunk) memory — the 100M-edge mode\n"
         "  pack      --graph g.tsv --out d.gdps [--compile] [--verify]\n"
         "            [--eps E] [--delta D] [--depth K] [--arity A] [--seed S]\n"
         "            [--threads T] [--noise-grain G]\n"
         "            pack a text edge list into a GDPSNAP01 snapshot that\n"
         "            disclose/serve mmap zero-copy (--snapshot).  reads the\n"
         "            edge list in two streaming passes and writes sections\n"
         "            straight to disk, so peak memory is bounded by the CSR\n"
         "            columns themselves at any edge count.  --compile\n"
         "            embeds the Phase-1 hierarchy + release plan under the\n"
         "            given spec flags, so a serve with the SAME flags skips\n"
         "            Phase-1 entirely; --verify re-reads the written file\n"
         "            (all CRCs + byte-for-byte column comparison)\n"
         "  disclose  --graph g.tsv | --snapshot d.gdps\n"
         "            --release r.tsv [--hierarchy h.tsv]\n"
         "            [--eps E] [--delta D] [--depth K] [--arity A] [--seed S]\n"
         "            [--threads T] [--noise-grain G] [--consistent]"
         " [--strip-truth]\n"
         "            [--accounting [strict-]sequential|advanced|rdp]\n"
         "            ledger policy (released values identical; the audit's\n"
         "            cumulative (eps, delta) tightens for multi-release\n"
         "            sessions; strict- charges per level sequentially)\n"
         "            [--sweep E1,E2,...]  one DisclosureSession, one release\n"
         "            file per swept eps (r.tsv.epsE1, ...); Phase 1 and the\n"
         "            plan run once, --eps sets the Phase-1 budget\n"
         "  inspect   --release r.tsv\n"
         "  drilldown --release r.tsv --hierarchy h.tsv --side left|right"
         " --node V\n"
         "            [--max-level L] [--min-level l]\n"
         "  serve     --graph g.tsv | --snapshot d.gdps\n"
         "            --tenants tenants.tsv\n"
         "            (--requests reqs.tsv | --listen PORT)\n"
         "            (--snapshot entries load lazily on first request; an\n"
         "            embedded plan with a matching fingerprint is adopted\n"
         "            instead of recompiled)\n"
         "            [--dataset NAME] [--eps E] [--delta D] [--depth K]\n"
         "            [--arity A] [--seed S] [--threads T] [--noise-grain G]\n"
         "            [--registry-capacity C] [--out results.tsv]\n"
         "            [--accounting [strict-]sequential|advanced|rdp]\n"
         "            default tenant ledger policy (an rdp tenant composes\n"
         "            Gaussian releases tighter and outlasts a sequential\n"
         "            one); the strict- prefix charges each release as\n"
         "            num_levels sequential mechanisms instead of one\n"
         "            parallel event (docs/ACCOUNTING.md cross-level caveat)\n"
         "            multi-tenant batch driver: compile once per dataset\n"
         "            (SessionRegistry), per-tenant ledgers + privilege-tier\n"
         "            level views.  tenants.tsv: 'id eps_cap delta_cap tier"
         " [accounting [max_in_flight]]';\n"
         "            reqs.tsv: 'id eps_g [delta]'\n"
         "            --listen PORT: GDPNET02 socket server on 127.0.0.1\n"
         "            (0 = ephemeral) instead of the batch loop; same seed =>\n"
         "            bit-identical results for a sequential client\n"
         "            [--port-file f]  write the bound port (for --listen 0)\n"
         "            [--workers N] [--queue-depth D]  job-queue pipeline;\n"
         "            a full queue or a tenant past max_in_flight is shed\n"
         "            with a typed Overloaded response, never a dropped\n"
         "            connection\n"
         "            [--max-requests N]  exit after N completed requests\n"
         "            (tests/scripts); SIGTERM/SIGINT drain in-flight jobs\n"
         "            and flush responses before exit either way\n"
         "            [--noise-streams shared|per-connection]  'shared'\n"
         "            (default) draws all noise from the one batch-parity\n"
         "            stream; 'per-connection' forks a stream per connection\n"
         "            (deterministic per accept order, no global RNG lock)\n"
         "  client    --connect HOST:PORT  GDPNET02 client\n"
         "            --stats                     server/queue/registry"
         " counters\n"
         "            | --requests reqs.tsv [--out results.tsv]  batch mode\n"
         "            (same files as serve --requests; byte-identical\n"
         "            results at the same server seed)\n"
         "            | --tenant T [--eps E] [--delta D] one-off serve, or:\n"
         "              [--sweep E1,E2,...]         one outcome per eps\n"
         "              [--drilldown --side left|right --node V]  chain from\n"
         "              the coarsest level down to the entitled level\n"
         "              [--answer assoc,group,degree[:left|right[:MAX]],...]\n"
         "              each query's noise sigma and noisy values at the\n"
         "              entitled level (MAX in [1, 4294967295], default 8)\n"
         "            [--dataset NAME]\n"
         "            [--wal audit.wal]  durable write-ahead audit ledger:\n"
         "            every charge fsync'd before noise is drawn; reopening\n"
         "            with the same --wal replays it (budgets survive crash\n"
         "            and restart, torn tails are repaired)\n"
         "            [--dataset-eps-cap E [--dataset-delta-cap D]]\n"
         "            cross-tenant odometer budget: the dataset is RETIRED\n"
         "            by the first charge that would exceed it\n"
         "  audit     --verify audit.wal [--tolerate-tail]\n"
         "            offline replay of a write-ahead audit ledger: checks\n"
         "            CRCs and sequence continuity, recomputes every stamped\n"
         "            per-tenant guarantee from the event stream, and exits\n"
         "            non-zero on any divergence (or a torn tail, unless\n"
         "            --tolerate-tail)\n";
}

int Dispatch(const std::vector<std::string>& tokens, std::ostream& out) {
  if (tokens.empty()) {
    out << UsageText();
    return 2;
  }
  const std::string& command = tokens.front();
  const std::vector<std::string> rest(tokens.begin() + 1, tokens.end());
  if (command == "generate") {
    return RunGenerate(
        Args::Parse(rest, {"out", "scale", "left", "right", "edges", "seed"},
                    {"stream"}),
        out);
  }
  if (command == "pack") {
    return RunPack(
        Args::Parse(rest,
                    {"graph", "out", "eps", "delta", "depth", "arity", "seed",
                     "threads", "noise-grain"},
                    {"compile", "verify"}),
        out);
  }
  if (command == "disclose") {
    return RunDisclose(
        Args::Parse(rest,
                    {"graph", "snapshot", "release", "hierarchy", "eps",
                     "delta", "depth", "arity", "seed", "threads",
                     "noise-grain", "sweep", "accounting"},
                    {"consistent", "strip-truth"}),
        out);
  }
  if (command == "inspect") {
    return RunInspect(Args::Parse(rest, {"release"}), out);
  }
  if (command == "drilldown") {
    return RunDrilldown(
        Args::Parse(rest, {"release", "hierarchy", "side", "node", "max-level",
                           "min-level"}),
        out);
  }
  if (command == "serve") {
    return RunServe(
        Args::Parse(rest, {"graph", "snapshot", "tenants", "requests",
                           "dataset", "eps", "delta", "depth", "arity", "seed",
                           "threads", "noise-grain", "registry-capacity",
                           "out", "accounting", "wal", "dataset-eps-cap",
                           "dataset-delta-cap", "listen", "port-file",
                           "workers", "queue-depth", "max-requests",
                           "noise-streams"}),
        out);
  }
  if (command == "client") {
    return RunClient(
        Args::Parse(rest,
                    {"connect", "requests", "out", "dataset", "tenant", "eps",
                     "delta", "sweep", "side", "node", "answer"},
                    {"stats", "drilldown"}),
        out);
  }
  if (command == "audit") {
    return RunAudit(Args::Parse(rest, {"verify"}, {"tolerate-tail"}), out);
  }
  out << UsageText();
  return 2;
}

}  // namespace gdp::cli
