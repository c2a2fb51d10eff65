// GDPNET02 wire format: encode/decode round trips for every message kind,
// the golden bytes of every Encode overload (tests/data/golden_wire.hex),
// framing (CRC, length bounds, partial buffers), and the hostile-input
// discipline — every decoder must throw NetProtocolError on truncated,
// oversized, or corrupted bytes, never read past the buffer or allocate from
// an attacker-declared count.  Mirrors the snapshot hostile-header suite;
// net_server_test replays the same attacks over a real socket, and
// NetMutationTest feeds the decoders 100k+ seeded mutants of the golden
// frames through tests/mutation_driver.hpp.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "answer_fixture.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "mutation_driver.hpp"
#include "wire_fixture.hpp"

namespace gdp::net::wire {
namespace {

using gdp::common::NetProtocolError;
using gdp::core::QuerySpec;
using gdp::core::answer_fixture::Histogram;
using gdp::core::answer_fixture::Of;

ServeRequest SampleServeRequest() {
  ServeRequest req;
  req.tenant = "alice";
  req.dataset = "dblp";
  req.budget.epsilon_g = 0.75;
  req.budget.delta = 1e-6;
  req.budget.phase1_fraction = 0.2;
  req.budget.noise = 2;  // Laplace
  return req;
}

ServeOutcome SampleOutcome() {
  ServeOutcome outcome;
  outcome.granted = true;
  outcome.privilege = 3;
  outcome.level = 2;
  outcome.epsilon_spent = 0.825;
  outcome.epsilon_remaining = 1.175;
  outcome.accounting = 2;  // rdp
  outcome.accounted_epsilon = 0.41;
  outcome.accounted_delta = 2e-6;
  outcome.view.level = 2;
  outcome.view.sensitivity = 17.0;
  outcome.view.noise_stddev = 123.5;
  outcome.view.group_noise_stddev = 98.7;
  outcome.view.true_total = 2500.0;
  outcome.view.noisy_total = 2481.25;
  outcome.view.true_group_counts = {10.0, 20.0, 30.0};
  outcome.view.noisy_group_counts = {9.5, 21.25, 28.75};
  return outcome;
}

// ---------- framing ----------

TEST(NetFramingTest, FrameRoundTripsThroughTryDeframe) {
  const std::string payload = Encode(SampleServeRequest());
  std::string buffer = Frame(payload);
  EXPECT_EQ(buffer.size(), kFrameHeaderSize + payload.size());
  const std::optional<std::string> got = TryDeframe(buffer);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(buffer.empty());
}

TEST(NetFramingTest, PartialFrameAsksForMoreBytes) {
  const std::string framed = Frame(EncodeStatsRequest());
  for (std::size_t keep = 0; keep + 1 < framed.size(); ++keep) {
    std::string buffer = framed.substr(0, keep);
    EXPECT_FALSE(TryDeframe(buffer).has_value()) << "at " << keep << " bytes";
    EXPECT_EQ(buffer.size(), keep) << "partial bytes must stay buffered";
  }
}

TEST(NetFramingTest, TwoFramesDeframeInOrder) {
  const std::string first = Encode(SampleServeRequest());
  const std::string second = EncodeStatsRequest();
  std::string buffer = Frame(first) + Frame(second);
  EXPECT_EQ(TryDeframe(buffer), first);
  EXPECT_EQ(TryDeframe(buffer), second);
  EXPECT_TRUE(buffer.empty());
}

TEST(NetFramingTest, CorruptedCrcThrows) {
  std::string buffer = Frame(EncodeStatsRequest());
  buffer.back() ^= 0x01;  // flip a payload bit; the header CRC now mismatches
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

TEST(NetFramingTest, CorruptedHeaderCrcThrows) {
  std::string buffer = Frame(EncodeStatsRequest());
  buffer[4] ^= 0xFF;  // the CRC field itself
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

TEST(NetFramingTest, ZeroDeclaredLengthThrows) {
  std::string buffer(kFrameHeaderSize, '\0');
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

// The oversized declared length must be rejected from the HEADER alone —
// before the decoder waits for (or allocates) 4 GiB that will never come.
TEST(NetFramingTest, OversizedDeclaredLengthThrowsImmediately) {
  std::string buffer = Frame(EncodeStatsRequest());
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(buffer.data(), &huge, sizeof(huge));
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

TEST(NetFramingTest, FrameRejectsEmptyAndOversizedPayloads) {
  EXPECT_THROW((void)Frame(""), NetProtocolError);
  EXPECT_THROW((void)Frame(std::string(kMaxPayload + 1, 'x')),
               NetProtocolError);
}

// ---------- request round trips ----------

TEST(NetWireTest, ServeRequestRoundTrips) {
  const ServeRequest req = SampleServeRequest();
  const ServeRequest got = DecodeServeRequest(Encode(req));
  EXPECT_EQ(got.tenant, req.tenant);
  EXPECT_EQ(got.dataset, req.dataset);
  EXPECT_DOUBLE_EQ(got.budget.epsilon_g, req.budget.epsilon_g);
  EXPECT_DOUBLE_EQ(got.budget.delta, req.budget.delta);
  EXPECT_DOUBLE_EQ(got.budget.phase1_fraction, req.budget.phase1_fraction);
  EXPECT_EQ(got.budget.noise, req.budget.noise);
}

TEST(NetWireTest, SweepRequestRoundTrips) {
  SweepRequest req;
  req.tenant = "bob";
  req.dataset = "imdb";
  for (double eps : {0.25, 0.5, 0.999}) {
    WireBudget budget;
    budget.epsilon_g = eps;
    req.budgets.push_back(budget);
  }
  const SweepRequest got = DecodeSweepRequest(Encode(req));
  ASSERT_EQ(got.budgets.size(), 3u);
  EXPECT_DOUBLE_EQ(got.budgets[2].epsilon_g, 0.999);
}

TEST(NetWireTest, DrilldownRequestRoundTrips) {
  DrilldownRequest req;
  req.tenant = "carol";
  req.dataset = "dblp";
  req.side = 1;
  req.node = 4242;
  const DrilldownRequest got = DecodeDrilldownRequest(Encode(req));
  EXPECT_EQ(got.side, 1);
  EXPECT_EQ(got.node, 4242u);
}

TEST(NetWireTest, AnswerRequestRoundTrips) {
  AnswerRequest req;
  req.tenant = "dave";
  req.dataset = "dblp";
  req.queries = {Of(QuerySpec::Kind::kAssociationCount),
                 Histogram(gdp::graph::Side::kRight, 16)};
  const AnswerRequest got = DecodeAnswerRequest(Encode(req));
  ASSERT_EQ(got.queries.size(), 2u);
  EXPECT_EQ(got.queries[1].kind, QuerySpec::Kind::kDegreeHistogram);
  EXPECT_EQ(got.queries[1].side, gdp::graph::Side::kRight);
  EXPECT_EQ(got.queries[1].max_degree, 16u);
}

TEST(NetWireTest, StatsRequestHasEmptyBody) {
  const std::string payload = EncodeStatsRequest();
  EXPECT_EQ(payload.size(), 1u);
  EXPECT_NO_THROW(DecodeStatsRequest(payload));
}

// ---------- response round trips ----------

TEST(NetWireTest, ServeResponseRoundTripsWithView) {
  const ServeOutcome outcome = SampleOutcome();
  const ServeOutcome got = DecodeServeResponse(Encode(outcome));
  EXPECT_TRUE(got.granted);
  EXPECT_EQ(got.privilege, 3);
  EXPECT_EQ(got.level, 2);
  EXPECT_DOUBLE_EQ(got.epsilon_spent, 0.825);
  EXPECT_DOUBLE_EQ(got.accounted_delta, 2e-6);
  EXPECT_EQ(got.view.noisy_group_counts, outcome.view.noisy_group_counts);
  EXPECT_EQ(got.view.true_group_counts, outcome.view.true_group_counts);
  EXPECT_DOUBLE_EQ(got.view.noisy_total, outcome.view.noisy_total);
}

TEST(NetWireTest, DeniedOutcomeRoundTripsReason) {
  ServeOutcome outcome;
  outcome.granted = false;
  outcome.denial_reason = "session budget exhausted";
  const ServeOutcome got = DecodeServeResponse(Encode(outcome));
  EXPECT_FALSE(got.granted);
  EXPECT_EQ(got.denial_reason, "session budget exhausted");
  EXPECT_TRUE(got.view.noisy_group_counts.empty());
}

TEST(NetWireTest, SweepResponseRoundTrips) {
  SweepResponse resp;
  resp.outcomes.push_back(SampleOutcome());
  ServeOutcome denied;
  denied.denial_reason = "no";
  resp.outcomes.push_back(denied);
  const SweepResponse got = DecodeSweepResponse(Encode(resp));
  ASSERT_EQ(got.outcomes.size(), 2u);
  EXPECT_TRUE(got.outcomes[0].granted);
  EXPECT_FALSE(got.outcomes[1].granted);
}

TEST(NetWireTest, DrilldownResponseRoundTrips) {
  DrilldownResponse resp;
  resp.outcome = SampleOutcome();
  resp.chain.push_back(WireDrillEntry{4, 7, 120, 55.5, 52.0});
  resp.chain.push_back(WireDrillEntry{3, 1, 30, 12.25, 13.0});
  const DrilldownResponse got = DecodeDrilldownResponse(Encode(resp));
  ASSERT_EQ(got.chain.size(), 2u);
  EXPECT_EQ(got.chain[0].level, 4);
  EXPECT_EQ(got.chain[1].group_size, 30u);
  EXPECT_DOUBLE_EQ(got.chain[1].noisy_count, 12.25);
}

TEST(NetWireTest, AnswerResponseRoundTrips) {
  AnswerResponse resp;
  resp.outcome = SampleOutcome();
  resp.results.push_back({"association_count", 812.5, {2481.5}});
  resp.results.push_back({"degree_histogram_left", 90.25, {3.5, -1.0, 7.75}});
  const AnswerResponse got = DecodeAnswerResponse(Encode(resp));
  ASSERT_EQ(got.results.size(), 2u);
  EXPECT_EQ(got.results[0].query_name, "association_count");
  EXPECT_DOUBLE_EQ(got.results[0].noise_stddev, 812.5);
  EXPECT_EQ(got.results[0].noisy, resp.results[0].noisy);
  EXPECT_EQ(got.results[1].noisy, resp.results[1].noisy);
}

// A granted Answer publishes the query name, σ and the noisy values only:
// the encoded reply holds none of the true counts it was computed from.
TEST(NetWireTest, GrantedAnswerReplyCarriesNoTrueCounts) {
  gdp::common::Rng graph_rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 200;
  p.num_right = 300;
  p.num_edges = 1200;
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = 4;
  spec.hierarchy.arity = 4;
  gdp::serve::DisclosureService service(4);
  service.catalog().Register(
      "dblp", gdp::serve::Dataset{GenerateDblpLike(p, graph_rng), spec, 7,
                                  {}, {}});
  service.broker().Register("alice", gdp::serve::TenantProfile{50.0, 0.2, 2});
  std::vector<gdp::core::QuerySpec> queries(2);
  queries[1].kind = gdp::core::QuerySpec::Kind::kGroupCount;
  gdp::common::Rng rng(5);
  const gdp::serve::AnswerResult result =
      service.ServeAnswer("alice", "dblp", spec.budget, queries, rng);
  ASSERT_TRUE(result.serve.granted) << result.serve.denial_reason;
  const std::string reply = Encode(AnswerResponse::FromResult(result));

  const gdp::serve::Dataset& ds = service.catalog().Get("dblp");
  const auto compiled = service.registry().GetOrCompile(
      "dblp", ds.graph, ds.publication, ds.compile_seed);
  std::vector<double> truths = {static_cast<double>(ds.graph.num_edges())};
  for (const auto sum : compiled->plan().GroupDegreeSums(result.serve.level)) {
    if (sum != 0) {
      truths.push_back(static_cast<double>(sum));
    }
  }
  ASSERT_GT(truths.size(), 2u);
  for (const double truth : truths) {
    const std::string bytes(reinterpret_cast<const char*>(&truth),
                            sizeof(truth));
    EXPECT_EQ(reply.find(bytes), std::string::npos)
        << "reply carries the true count " << truth;
  }
}

TEST(NetWireTest, StatsResponseRoundTripsEveryField) {
  StatsResponse stats;
  stats.registry_hits = 1;
  stats.registry_misses = 2;
  stats.registry_evictions = 3;
  stats.registry_snapshot_adoptions = 4;
  stats.registry_size = 5;
  stats.registry_capacity = 6;
  stats.catalog_datasets = 7;
  stats.broker_tenants = 8;
  stats.wal_enabled = 1;
  stats.failed_closed = 1;
  stats.wal_appends = 9;
  stats.wal_failures = 10;
  stats.fail_closed_rejections = 11;
  stats.dataset_denials = 12;
  stats.connections_accepted = 13;
  stats.connections_open = 14;
  stats.requests_enqueued = 15;
  stats.requests_completed = 16;
  stats.shed_queue_full = 17;
  stats.shed_tenant_inflight = 18;
  stats.protocol_errors = 19;
  stats.queue_depth = 20;
  stats.queue_capacity = 21;
  stats.queue_high_watermark = 22;
  stats.workers = 23;
  stats.io_threads = 24;
  stats.noise_streams = 1;
  stats.rng_mutex_acquisitions = 25;
  stats.partial_writes = 26;
  const StatsResponse got = DecodeStatsResponse(Encode(stats));
  EXPECT_EQ(got.registry_hits, 1u);
  EXPECT_EQ(got.registry_capacity, 6u);
  EXPECT_EQ(got.broker_tenants, 8u);
  EXPECT_EQ(got.wal_enabled, 1);
  EXPECT_EQ(got.fail_closed_rejections, 11u);
  EXPECT_EQ(got.shed_tenant_inflight, 18u);
  EXPECT_EQ(got.queue_high_watermark, 22u);
  EXPECT_EQ(got.workers, 23u);
  EXPECT_EQ(got.io_threads, 24u);
  EXPECT_EQ(got.noise_streams, 1);
  EXPECT_EQ(got.rng_mutex_acquisitions, 25u);
  EXPECT_EQ(got.partial_writes, 26u);
}

TEST(NetWireTest, OverloadedAndErrorRoundTrip) {
  const OverloadedResponse over = DecodeOverloaded(
      Encode(OverloadedResponse{"job queue full (depth 64)"}));
  EXPECT_EQ(over.reason, "job queue full (depth 64)");
  const ErrorResponse err = DecodeError(
      Encode(ErrorResponse{ErrorCode::kNotFound, "unknown tenant 'x'"}));
  EXPECT_EQ(err.code, ErrorCode::kNotFound);
  EXPECT_EQ(err.message, "unknown tenant 'x'");
}

// ---------- hostile decode ----------

TEST(NetHostileTest, EmptyPayloadAndUnknownKindThrow) {
  EXPECT_THROW((void)PeekKind(""), NetProtocolError);
  EXPECT_THROW((void)PeekKind(std::string(1, '\x63')), NetProtocolError);
  EXPECT_THROW((void)PeekKind(std::string(1, '\0')), NetProtocolError);
}

TEST(NetHostileTest, WrongKindForDecoderThrows) {
  const std::string serve = Encode(SampleServeRequest());
  EXPECT_THROW((void)DecodeSweepRequest(serve), NetProtocolError);
  EXPECT_THROW((void)DecodeServeResponse(serve), NetProtocolError);
  EXPECT_THROW(DecodeStatsRequest(serve), NetProtocolError);
}

// Every proper prefix of a valid message is a truncation attack; the decoder
// must throw, not read out of bounds (ASan-clean by CI construction).
TEST(NetHostileTest, EveryTruncationOfEveryMessageThrows) {
  const std::string payloads[] = {
      Encode(SampleServeRequest()),
      Encode(SampleOutcome()),
      Encode(DrilldownResponse{SampleOutcome(),
                               {WireDrillEntry{1, 2, 3, 4.0, 5.0}}}),
      Encode(ErrorResponse{ErrorCode::kInternal, "boom"}),
  };
  const auto decode_any = [](const std::string& payload) {
    switch (PeekKind(payload)) {
      case MsgKind::kServeRequest:
        (void)DecodeServeRequest(payload);
        break;
      case MsgKind::kServeResponse:
        (void)DecodeServeResponse(payload);
        break;
      case MsgKind::kDrilldownResponse:
        (void)DecodeDrilldownResponse(payload);
        break;
      case MsgKind::kError:
        (void)DecodeError(payload);
        break;
      default:
        break;
    }
  };
  for (const std::string& payload : payloads) {
    for (std::size_t keep = 1; keep < payload.size(); ++keep) {
      EXPECT_THROW(decode_any(payload.substr(0, keep)), NetProtocolError)
          << "kind " << static_cast<int>(payload[0]) << " truncated to "
          << keep << " of " << payload.size() << " bytes";
    }
  }
}

TEST(NetHostileTest, TrailingGarbageThrows) {
  std::string payload = Encode(SampleServeRequest());
  payload.push_back('\0');
  EXPECT_THROW((void)DecodeServeRequest(payload), NetProtocolError);
}

// A count field claiming more elements than the remaining bytes could hold
// must be rejected BEFORE the reserve — the allocation-bomb defense.
TEST(NetHostileTest, InflatedCountIsRejectedBeforeAllocation) {
  SweepRequest req;
  req.tenant = "a";
  req.dataset = "b";
  req.budgets.push_back(WireBudget{});
  std::string payload = Encode(req);
  // The budget count is the u32 right before the 25-byte budget body.
  const std::size_t count_at = payload.size() - 25 - 4;
  const std::uint32_t huge = 0x40000000u;
  std::memcpy(payload.data() + count_at, &huge, sizeof(huge));
  EXPECT_THROW((void)DecodeSweepRequest(payload), NetProtocolError);
}

TEST(NetHostileTest, InflatedStringLengthThrows) {
  ServeRequest req = SampleServeRequest();
  std::string payload = Encode(req);
  // The tenant length is the first u32 after the kind byte.
  const std::uint32_t huge = 0x7fffffffu;
  std::memcpy(payload.data() + 1, &huge, sizeof(huge));
  EXPECT_THROW((void)DecodeServeRequest(payload), NetProtocolError);
}

TEST(NetHostileTest, OutOfRangeEnumsThrow) {
  ServeRequest req = SampleServeRequest();
  req.budget.noise = 200;  // past kGeometric
  EXPECT_THROW((void)DecodeServeRequest(Encode(req)), NetProtocolError);

  DrilldownRequest drill;
  drill.tenant = "a";
  drill.dataset = "b";
  drill.side = 2;  // not a graph::Side
  EXPECT_THROW((void)DecodeDrilldownRequest(Encode(drill)), NetProtocolError);

  ServeOutcome outcome = SampleOutcome();
  outcome.accounting = 99;  // not an AccountingPolicy
  EXPECT_THROW((void)DecodeServeResponse(Encode(outcome)), NetProtocolError);
}

// An Answer's query shapes are checked at decode, before the request
// reaches the service: an unknown kind or side, a histogram of max_degree 0
// or past kMaxHistogramBins, or histograms whose reply could not fit one
// frame.
TEST(NetHostileTest, BadAnswerQueryShapesThrow) {
  AnswerRequest req;
  req.tenant = "a";
  req.dataset = "b";
  for (const QuerySpec bad :
       {Of(static_cast<QuerySpec::Kind>(3)),
        Histogram(static_cast<gdp::graph::Side>(2), 8),
        Histogram(gdp::graph::Side::kLeft, 0),
        Histogram(gdp::graph::Side::kRight, 0xFFFFFFFFu)}) {
    req.queries = {Of(QuerySpec::Kind::kAssociationCount), bad};
    EXPECT_THROW((void)DecodeAnswerRequest(Encode(req)), NetProtocolError)
        << "kind " << static_cast<int>(bad.kind) << " max_degree "
        << bad.max_degree;
  }
  // Under the cap one at a time, over it together.
  req.queries.assign(3, Histogram(gdp::graph::Side::kLeft, 2'000'000));
  EXPECT_THROW((void)DecodeAnswerRequest(Encode(req)), NetProtocolError);
  // Three 200,000-bin histograms (4.8 MB of bins) stay legal.
  req.queries.assign(3, Histogram(gdp::graph::Side::kLeft, 200'000));
  EXPECT_EQ(DecodeAnswerRequest(Encode(req)).queries.size(), 3u);
  // A max_degree the u32 field cannot carry is refused at encode.
  req.queries = {Histogram(gdp::graph::Side::kLeft, std::size_t{1} << 32)};
  EXPECT_THROW((void)Encode(req), NetProtocolError);
}

// The reply size decode and ServeAnswer bound is the encoded size exactly.
TEST(NetWireTest, AnswerReplyBytesIsTheEncodedReplySize) {
  const std::vector<QuerySpec> queries{
      Of(QuerySpec::Kind::kAssociationCount),
      Of(QuerySpec::Kind::kGroupCount),
      Histogram(gdp::graph::Side::kLeft, 5),
      Histogram(gdp::graph::Side::kRight, 9)};
  constexpr std::size_t kGroups = 13;
  AnswerResponse resp;
  resp.outcome.granted = true;
  for (const QuerySpec& q : queries) {
    const std::size_t values =
        q.kind == QuerySpec::Kind::kAssociationCount ? 1
        : q.kind == QuerySpec::Kind::kGroupCount     ? kGroups
                                                     : q.max_degree + 2;
    resp.results.push_back(
        {gdp::core::QueryName(q), 2.5, std::vector<double>(values, 1.0)});
  }
  EXPECT_EQ(Encode(resp).size(),
            gdp::serve::AnswerReplyBytes(queries, kGroups));
}

// One right-side histogram whose granted reply is the largest that fits one
// frame, (32 MiB - 103 - 4 - 22 - 8 - 4) / 8 = 4,194,286 values, decodes;
// one more bin is refused.
TEST(NetHostileTest, AnswerReplyAtTheFrameCapIsTheBoundary) {
  constexpr std::size_t kBoundary = 4'194'284;  // max_degree + 2 values
  AnswerRequest req;
  req.tenant = "a";
  req.dataset = "b";
  req.queries = {Histogram(gdp::graph::Side::kRight, kBoundary)};
  EXPECT_EQ(gdp::serve::AnswerReplyBytes(req.queries, 0), kMaxPayload - 3);
  EXPECT_EQ(DecodeAnswerRequest(Encode(req)).queries[0].max_degree, kBoundary);
  req.queries[0].max_degree = kBoundary + 1;
  EXPECT_THROW((void)DecodeAnswerRequest(Encode(req)), NetProtocolError);
}

TEST(NetHostileTest, NonBooleanGrantedByteThrows) {
  std::string payload = Encode(SampleOutcome());
  payload[1] = '\x02';  // granted must be 0 or 1
  EXPECT_THROW((void)DecodeServeResponse(payload), NetProtocolError);
}

TEST(NetHostileTest, ErrorCodeRangeIsValidated) {
  std::string payload = Encode(ErrorResponse{ErrorCode::kInternal, "x"});
  payload[1] = '\x00';  // 0 is not a valid ErrorCode
  EXPECT_THROW((void)DecodeError(payload), NetProtocolError);
}

// ---------- golden bytes ----------

// Decode `payload` with the decoder its kind byte names and encode the
// result again.  GDPNET02 has one encoding per message, so an accepted
// payload must come back byte for byte.
std::string Reencode(std::string_view payload) {
  switch (PeekKind(payload)) {
    case MsgKind::kServeRequest:
      return Encode(DecodeServeRequest(payload));
    case MsgKind::kSweepRequest:
      return Encode(DecodeSweepRequest(payload));
    case MsgKind::kDrilldownRequest:
      return Encode(DecodeDrilldownRequest(payload));
    case MsgKind::kAnswerRequest:
      return Encode(DecodeAnswerRequest(payload));
    case MsgKind::kStatsRequest:
      DecodeStatsRequest(payload);
      return EncodeStatsRequest();
    case MsgKind::kServeResponse:
      return Encode(DecodeServeResponse(payload));
    case MsgKind::kSweepResponse:
      return Encode(DecodeSweepResponse(payload));
    case MsgKind::kDrilldownResponse:
      return Encode(DecodeDrilldownResponse(payload));
    case MsgKind::kAnswerResponse:
      return Encode(DecodeAnswerResponse(payload));
    case MsgKind::kStatsResponse:
      return Encode(DecodeStatsResponse(payload));
    case MsgKind::kOverloaded:
      return Encode(DecodeOverloaded(payload));
    case MsgKind::kError:
      return Encode(DecodeError(payload));
  }
  throw std::logic_error("PeekKind returned an unknown kind");
}

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

// tests/data/golden_wire.hex: one "<message> <payload hex>" line per Encode
// overload, written by the byte-at-a-time codec that preceded the
// word-at-a-time one.
std::vector<std::pair<std::string, std::string>> GoldenWire() {
  std::ifstream in(std::string(GDP_TEST_DATA_DIR) + "/golden_wire.hex");
  EXPECT_TRUE(in.good()) << "missing tests/data/golden_wire.hex";
  std::vector<std::pair<std::string, std::string>> lines;
  std::string name;
  std::string hex;
  while (in >> name >> hex) {
    std::string bytes;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
      bytes.push_back(
          static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    }
    lines.emplace_back(name, std::move(bytes));
  }
  return lines;
}

TEST(NetWireTest, EveryEncodeMatchesTheGoldenBytes) {
  const auto golden = GoldenWire();
  const auto payloads = wire_fixture::GoldenPayloads();
  ASSERT_EQ(golden.size(), 12u);
  ASSERT_EQ(payloads.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto& [name, bytes] = golden[i];
    EXPECT_EQ(payloads[i].first, name);
    EXPECT_EQ(ToHex(payloads[i].second), ToHex(bytes)) << name;
    EXPECT_EQ(ToHex(Reencode(bytes)), ToHex(bytes)) << name;
  }
}

// One granted Serve reply, encoded a byte at a time from docs/FORMATS.md
// without wire.cpp's helpers.
std::string ByteAtATimeServeReply(const ServeOutcome& o) {
  std::string out;
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  const auto f64 = [&put](double d) {
    put(std::bit_cast<std::uint64_t>(d), 8);
  };
  put(static_cast<std::uint8_t>(MsgKind::kServeResponse), 1);
  put(o.granted ? 1 : 0, 1);
  put(o.denial_reason.size(), 4);
  out += o.denial_reason;
  put(std::bit_cast<std::uint32_t>(o.privilege), 4);
  put(std::bit_cast<std::uint32_t>(o.level), 4);
  f64(o.epsilon_spent);
  f64(o.epsilon_remaining);
  put(o.accounting, 1);
  f64(o.accounted_epsilon);
  f64(o.accounted_delta);
  put(std::bit_cast<std::uint32_t>(o.view.level), 4);
  for (const double d : {o.view.sensitivity, o.view.noise_stddev,
                         o.view.group_noise_stddev, o.view.true_total,
                         o.view.noisy_total}) {
    f64(d);
  }
  for (const std::vector<double>* column :
       {&o.view.true_group_counts, &o.view.noisy_group_counts}) {
    put(column->size(), 4);
    for (const double d : *column) {
      f64(d);
    }
  }
  return out;
}

// A level-0 sized reply of random bit patterns, a third of them NaNs with
// random payloads (quiet and signalling, either sign).
TEST(NetWireTest, LevelZeroColumnsMatchAByteAtATimeEncoder) {
  constexpr std::size_t kGroups = 5365;
  gdp::common::Rng rng(19);
  ServeOutcome outcome = wire_fixture::Granted(0, 0.0);
  for (std::vector<double>* column : {&outcome.view.true_group_counts,
                                      &outcome.view.noisy_group_counts}) {
    for (std::size_t i = 0; i < kGroups; ++i) {
      std::uint64_t bits = rng();
      if (i % 3 == 0) {
        bits |= 0x7ff0000000000001ull;  // exponent all ones, payload non-zero
      }
      column->push_back(std::bit_cast<double>(bits));
    }
  }
  const std::string payload = Encode(outcome);
  EXPECT_EQ(payload.size(), gdp::serve::ServeReplyBytes(kGroups));
  EXPECT_TRUE(payload == ByteAtATimeServeReply(outcome))
      << "the encoder's bytes differ from the byte-at-a-time reference";

  std::string framed = Frame(payload);
  const std::optional<std::string> deframed = TryDeframe(framed);
  ASSERT_TRUE(deframed.has_value());
  const ServeOutcome got = DecodeServeResponse(*deframed);
  ASSERT_EQ(got.view.true_group_counts.size(), kGroups);
  ASSERT_EQ(got.view.noisy_group_counts.size(), kGroups);
  for (std::size_t i = 0; i < kGroups; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.view.true_group_counts[i]),
              std::bit_cast<std::uint64_t>(outcome.view.true_group_counts[i]))
        << "true column, entry " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.view.noisy_group_counts[i]),
              std::bit_cast<std::uint64_t>(outcome.view.noisy_group_counts[i]))
        << "noisy column, entry " << i;
  }
}

// The sizes Serve, Sweep and Drilldown are admitted against are the sizes
// of the replies the service actually grants.
TEST(NetWireTest, ReplySizeFunctionsAreTheEncodedReplySizes) {
  gdp::common::Rng graph_rng(3);
  gdp::graph::DblpLikeParams p;
  p.num_left = 200;
  p.num_right = 300;
  p.num_edges = 1200;
  gdp::core::SessionSpec spec;
  spec.hierarchy.depth = 4;
  spec.hierarchy.arity = 4;
  gdp::serve::DisclosureService service(4);
  service.catalog().Register(
      "dblp", gdp::serve::Dataset{GenerateDblpLike(p, graph_rng), spec, 7,
                                  {}, {}});
  gdp::common::Rng rng(5);
  for (const int tier : {0, 2, 4}) {
    const std::string tenant = "tier" + std::to_string(tier);
    service.broker().Register(tenant,
                              gdp::serve::TenantProfile{50.0, 0.2, tier});
    const gdp::serve::ServeResult served =
        service.Serve(tenant, "dblp", spec.budget, rng);
    ASSERT_TRUE(served.granted) << served.denial_reason;
    const std::size_t groups = served.view.noisy_group_counts.size();
    EXPECT_EQ(Encode(ServeOutcome::FromResult(served)).size(),
              gdp::serve::ServeReplyBytes(groups));

    const std::vector<gdp::core::BudgetSpec> budgets(3, spec.budget);
    SweepResponse sweep;
    for (const gdp::serve::ServeResult& r :
         service.ServeSweep(tenant, "dblp", budgets, rng)) {
      ASSERT_TRUE(r.granted) << r.denial_reason;
      sweep.outcomes.push_back(ServeOutcome::FromResult(r));
    }
    EXPECT_EQ(Encode(sweep).size(), gdp::serve::SweepReplyBytes(3, groups));

    const gdp::serve::DrilldownResult drilled = service.ServeDrilldown(
        tenant, "dblp", spec.budget, gdp::graph::Side::kLeft, 17, rng);
    ASSERT_TRUE(drilled.serve.granted) << drilled.serve.denial_reason;
    DrilldownResponse drill;
    drill.outcome = ServeOutcome::FromResult(drilled.serve);
    for (const gdp::core::DrillDownEntry& e : drilled.chain) {
      drill.chain.push_back(
          {e.level, e.group, e.group_size, e.noisy_count, e.true_count});
    }
    // One chain entry per level from the coarsest down to the entitled one.
    EXPECT_EQ(drill.chain.size(),
              static_cast<std::size_t>(spec.hierarchy.depth - served.level) +
                  1);
    EXPECT_EQ(Encode(drill).size(),
              gdp::serve::DrilldownReplyBytes(groups, drill.chain.size()));
  }
}

// ---------- seeded mutants ----------

// Message layouts after the kind byte, in mutation_driver's layout notation.
// StatsResponse holds no length field, so its layout is left empty.
std::string Layout(MsgKind kind) {
  const std::string budget = "8881";
  const std::string outcome = "1s4488188488888vv";
  switch (kind) {
    case MsgKind::kServeRequest:
      return "ss" + budget;
    case MsgKind::kSweepRequest:
      return "ss(" + budget + ")";
    case MsgKind::kDrilldownRequest:
      return "ss" + budget + "14";
    case MsgKind::kAnswerRequest:
      return "ss" + budget + "(114)";
    case MsgKind::kServeResponse:
      return outcome;
    case MsgKind::kSweepResponse:
      return "(" + outcome + ")";
    case MsgKind::kDrilldownResponse:
      return outcome + "(44488)";
    case MsgKind::kAnswerResponse:
      return outcome + "(s8v)";
    case MsgKind::kOverloaded:
      return "s";
    case MsgKind::kError:
      return "1s";
    case MsgKind::kStatsRequest:
    case MsgKind::kStatsResponse:
      break;
  }
  return "";
}

// Run one mutant frame through TryDeframe, PeekKind and the matching
// decoder.  Passing means the frame is incomplete, is refused with
// NetProtocolError, or decodes to a message that re-encodes to the same
// payload; anything else is recorded as a failure naming the mutant.
bool SurvivesMutant(const std::string& frame,
                    mutation_driver::GuardedBuffer& guard,
                    const std::string& what) {
  try {
    std::string buffer = frame;
    const std::optional<std::string> payload = TryDeframe(buffer);
    if (!payload.has_value()) {
      return true;
    }
    const std::string_view placed = guard.Place(*payload);
    const std::string reencoded = Reencode(placed);
    if (reencoded != *payload) {
      ADD_FAILURE() << what << ": accepted, but re-encodes differently";
      return false;
    }
  } catch (const NetProtocolError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw a non-protocol exception: " << e.what();
    return false;
  }
  return true;
}

// Seeded mutants of the golden frames: the frame's length field and every
// u32 length or count field set to 0, 1, the exact fit, one past it and
// 0xFFFFFFFF, then a fixed budget of random bit flips, byte splices between
// corpus entries, truncations and field rewrites.  Most mutants get a fresh
// CRC so they reach the body decoders; one in eight keeps the stale one.
TEST(NetMutationTest, DecodersSurviveSeededMutantsOfTheGoldenFrames) {
  mutation_driver::Corpus corpus;
  for (const auto& [name, payload] : GoldenWire()) {
    corpus.entries.push_back(payload);
    corpus.fields.emplace_back();
    const std::string layout = Layout(PeekKind(payload));
    const std::size_t end = mutation_driver::Walk(
        payload, layout, 1, payload.size(), corpus.fields.back());
    if (!layout.empty()) {
      ASSERT_EQ(end, payload.size()) << name << "'s layout does not cover it";
    }
  }
  ASSERT_EQ(corpus.entries.size(), 12u);
  mutation_driver::GuardedBuffer guard;
  std::size_t mutants = 0;

  for (std::size_t c = 0; c < corpus.entries.size(); ++c) {
    const std::string& payload = corpus.entries[c];
    for (const std::uint32_t v : mutation_driver::RewriteValues(
             static_cast<std::uint32_t>(payload.size()))) {
      std::string frame = Frame(payload);
      mutation_driver::SetU32At(frame, 0, v);
      ++mutants;
      ASSERT_TRUE(SurvivesMutant(frame, guard,
                                 "frame length " + std::to_string(v) +
                                     " on corpus " + std::to_string(c)));
    }
  }
  constexpr std::size_t kRandomMutants = 120'000;
  mutants += mutation_driver::Run(
      corpus, 0x5eed, kRandomMutants,
      [&](const mutation_driver::Mutant& m) {
        std::string frame = gdp::common::SealFrame(m.bytes);
        if (m.stale_crc) {
          mutation_driver::SetU32At(
              frame, 4, gdp::common::Crc32(corpus.entries[m.base]));
        }
        return SurvivesMutant(frame, guard, m.what);
      });
  EXPECT_GE(mutants, 100'000u);
}

}  // namespace
}  // namespace gdp::net::wire
