// GDPNET02 wire format: typed, CRC-framed messages for the network serving
// front end (spec in docs/FORMATS.md, serving semantics in docs/SERVING.md).
//
// A connection opens with an 8-byte magic ("GDPNET02") from the client; every
// message after that — in either direction — is one frame:
//
//   [u32 payload_len][u32 payload_crc][payload]        (little-endian)
//
// with the CRC-32 from common/crc32.hpp (the same polynomial and the same
// known-answer tests that cover GDPWAL01 and GDPSNAP01 — one checksum
// implementation for every byte that leaves the process).  The payload is
// [u8 message kind][body]; request kinds are Serve / Sweep / Drilldown /
// Answer / Stats, response kinds mirror them plus the two service outcomes a
// loaded server may substitute for any request: Overloaded (typed
// backpressure, the connection stays open) and Error (typed failure).
//
// HOSTILE-INPUT DISCIPLINE: every length and count in a frame is treated as
// attacker-controlled, exactly like a snapshot header.  Decoders verify a
// declared size against the bytes actually remaining BEFORE allocating or
// advancing, and throw gdp::common::NetProtocolError on any violation —
// truncated frames, oversized declared lengths, CRC mismatches, unknown
// message kinds, counts that do not fit the payload.  tests/net_wire_test.cpp
// pins this with hand-corrupted frames (mirroring the snapshot hostile-header
// suite); tests/net_server_test.cpp replays the same bytes over a real
// socket.
//
// This header is transport-agnostic: encode/decode operate on std::string
// buffers, so the same code is exercised in-process by unit tests and over
// sockets by Server/Client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/le_codec.hpp"
#include "core/compiled_disclosure.hpp"
#include "core/drilldown.hpp"
#include "core/release.hpp"
#include "dp/privacy_accountant.hpp"
#include "graph/bipartite_graph.hpp"
#include "serve/service.hpp"

namespace gdp::net::wire {

// The connection-opening magic; carries the major version like GDPWAL01 /
// GDPSNAP01.  Incompatible evolution bumps the digits.
inline constexpr char kMagic[8] = {'G', 'D', 'P', 'N', 'E', 'T', '0', '2'};
inline constexpr std::size_t kMagicSize = 8;

// Frame header: payload length + payload CRC, both u32 little-endian — the
// frame GDPWAL01 uses too (common/le_codec.hpp).
inline constexpr std::size_t kFrameHeaderSize = gdp::common::kFrameHeaderSize;

// Upper bound on one frame's payload.  A level-0 view of a large graph
// carries two f64 columns with one entry per group, so the cap is generous —
// but it exists, and a declared length past it is rejected BEFORE any
// allocation (a 4 GiB "length" must cost the attacker a closed connection,
// not the server an allocation).
inline constexpr std::uint32_t kMaxPayload = 32u << 20;
static_assert(kMaxPayload == gdp::serve::kMaxReplyBytes);

enum class MsgKind : std::uint8_t {
  // Requests (client -> server).
  kServeRequest = 1,
  kSweepRequest = 2,
  kDrilldownRequest = 3,
  kAnswerRequest = 4,
  kStatsRequest = 5,
  // Responses (server -> client).
  kServeResponse = 16,
  kSweepResponse = 17,
  kDrilldownResponse = 18,
  kAnswerResponse = 19,
  kStatsResponse = 20,
  kOverloaded = 21,
  kError = 22,
};

[[nodiscard]] const char* MsgKindName(MsgKind kind) noexcept;

// Typed failure taxonomy carried by an Error response — the wire projection
// of the library's exception types (docs/SERVING.md maps them).
enum class ErrorCode : std::uint8_t {
  kBadRequest = 1,   // malformed frame/message, invalid budget, bad level
  kNotFound = 2,     // unknown tenant or dataset
  kAccessPolicy = 3, // tier the dataset's policy cannot map
  kDurability = 4,   // service failed closed (WAL append lost)
  kInternal = 5,     // anything else; the message says what
};

[[nodiscard]] const char* ErrorCodeName(ErrorCode code) noexcept;

// --- request bodies --------------------------------------------------------

// BudgetSpec projection: what a remote tenant may choose per request.
struct WireBudget {
  double epsilon_g{0.999};
  double delta{1e-5};
  double phase1_fraction{0.1};
  std::uint8_t noise{0};  // core::NoiseKind, validated range on decode

  [[nodiscard]] gdp::core::BudgetSpec ToBudgetSpec() const;
  [[nodiscard]] static WireBudget FromBudgetSpec(const gdp::core::BudgetSpec& b);
};

struct ServeRequest {
  std::string tenant;
  std::string dataset;
  WireBudget budget;
};

struct SweepRequest {
  std::string tenant;
  std::string dataset;
  std::vector<WireBudget> budgets;
};

struct DrilldownRequest {
  std::string tenant;
  std::string dataset;
  WireBudget budget;
  std::uint8_t side{0};  // graph::Side
  std::uint32_t node{0};
};

// The server answers the queries at the tenant's entitled level.  Each is
// u8 kind, u8 side, u32 max_degree on the wire: decode refuses what
// core::ValidateQueries refuses and a list whose reply (group_counts at 0
// values) exceeds kMaxPayload; encode refuses a max_degree past u32.
struct AnswerRequest {
  std::string tenant;
  std::string dataset;
  WireBudget budget;
  std::vector<gdp::core::QuerySpec> queries;
};

// --- response bodies -------------------------------------------------------

// serve::ServeResult on the wire (LevelRelease view included when granted).
struct ServeOutcome {
  bool granted{false};
  std::string denial_reason;
  std::int32_t privilege{0};
  std::int32_t level{0};
  double epsilon_spent{0.0};
  double epsilon_remaining{0.0};
  std::uint8_t accounting{0};  // dp::AccountingPolicy
  double accounted_epsilon{0.0};
  double accounted_delta{0.0};
  gdp::core::LevelRelease view;  // empty unless granted

  [[nodiscard]] static ServeOutcome FromResult(
      const gdp::serve::ServeResult& result);
};

struct SweepResponse {
  std::vector<ServeOutcome> outcomes;
};

struct WireDrillEntry {
  std::int32_t level{0};
  std::uint32_t group{0};
  std::uint32_t group_size{0};
  double noisy_count{0.0};
  double true_count{0.0};
};

struct DrilldownResponse {
  ServeOutcome outcome;
  std::vector<WireDrillEntry> chain;
};

struct AnswerResponse {
  ServeOutcome outcome;  // view stays empty: Answer returns query results
  std::vector<gdp::serve::PublishedAnswer> results;  // no true values

  [[nodiscard]] static AnswerResponse FromResult(
      gdp::serve::AnswerResult result);
};

// The observability surface (satellite: Stats RPC).  Monotone counters
// unless noted; see docs/SERVING.md for field semantics.
struct StatsResponse {
  // SessionRegistry.
  std::uint64_t registry_hits{0};
  std::uint64_t registry_misses{0};
  std::uint64_t registry_evictions{0};
  std::uint64_t registry_snapshot_adoptions{0};
  std::uint64_t registry_size{0};      // current
  std::uint64_t registry_capacity{0};
  // Catalog / broker.
  std::uint64_t catalog_datasets{0};
  std::uint64_t broker_tenants{0};
  // Durability spine.
  std::uint8_t wal_enabled{0};
  std::uint8_t failed_closed{0};
  std::uint64_t wal_appends{0};
  std::uint64_t wal_failures{0};
  std::uint64_t fail_closed_rejections{0};
  std::uint64_t dataset_denials{0};
  // Server pipeline.
  std::uint64_t connections_accepted{0};
  std::uint64_t connections_open{0};   // current
  std::uint64_t requests_enqueued{0};
  std::uint64_t requests_completed{0};
  std::uint64_t shed_queue_full{0};
  std::uint64_t shed_tenant_inflight{0};
  std::uint64_t protocol_errors{0};
  std::uint64_t queue_depth{0};        // current
  std::uint64_t queue_capacity{0};
  std::uint64_t queue_high_watermark{0};
  std::uint64_t workers{0};
  // I/O layer (epoll front end).  io_threads is the reader-thread count —
  // O(1), independent of connections_open (the scalability contract).
  std::uint64_t io_threads{0};
  // 0 = shared (batch-parity stream), 1 = per-connection forked streams.
  std::uint8_t noise_streams{0};
  // Global rng_mutex_ acquisitions on the request hot path.  Stays flat in
  // per-connection mode — the test seam for the zero-contention claim.
  std::uint64_t rng_mutex_acquisitions{0};
  // Responses that hit EAGAIN mid-frame and finished via EPOLLOUT re-arm.
  std::uint64_t partial_writes{0};
};

struct OverloadedResponse {
  std::string reason;
};

struct ErrorResponse {
  ErrorCode code{ErrorCode::kInternal};
  std::string message;
};

// --- framing ---------------------------------------------------------------

// Wrap an already-encoded payload ([kind][body]) in a frame header.
// Throws NetProtocolError when the payload is empty or exceeds kMaxPayload
// (a response too large to frame must fail typed, not truncated).
[[nodiscard]] std::string Frame(std::string_view payload);

// Split one frame off the front of `buffer`.  Returns the payload and erases
// the consumed bytes, or nullopt when the buffer does not yet hold a full
// frame (read more).  Throws NetProtocolError on a declared length of zero
// or beyond kMaxPayload, and on a CRC mismatch — framing-level violations
// desynchronize the stream, so the caller must close the connection.
[[nodiscard]] std::optional<std::string> TryDeframe(std::string& buffer);

// The kind byte of a decoded payload (validated member of MsgKind).
[[nodiscard]] MsgKind PeekKind(std::string_view payload);

// --- encode (each returns the full payload: [kind][body]) ------------------

[[nodiscard]] std::string Encode(const ServeRequest& msg);
[[nodiscard]] std::string Encode(const SweepRequest& msg);
[[nodiscard]] std::string Encode(const DrilldownRequest& msg);
[[nodiscard]] std::string Encode(const AnswerRequest& msg);
[[nodiscard]] std::string EncodeStatsRequest();
[[nodiscard]] std::string Encode(const ServeOutcome& msg);  // kServeResponse
[[nodiscard]] std::string Encode(const SweepResponse& msg);
[[nodiscard]] std::string Encode(const DrilldownResponse& msg);
[[nodiscard]] std::string Encode(const AnswerResponse& msg);
[[nodiscard]] std::string Encode(const StatsResponse& msg);
[[nodiscard]] std::string Encode(const OverloadedResponse& msg);
[[nodiscard]] std::string Encode(const ErrorResponse& msg);

// --- decode (payload = [kind][body]; kind must match; throws
// NetProtocolError on any structural violation) ------------------------------

[[nodiscard]] ServeRequest DecodeServeRequest(std::string_view payload);
[[nodiscard]] SweepRequest DecodeSweepRequest(std::string_view payload);
[[nodiscard]] DrilldownRequest DecodeDrilldownRequest(std::string_view payload);
[[nodiscard]] AnswerRequest DecodeAnswerRequest(std::string_view payload);
void DecodeStatsRequest(std::string_view payload);  // body must be empty
[[nodiscard]] ServeOutcome DecodeServeResponse(std::string_view payload);
[[nodiscard]] SweepResponse DecodeSweepResponse(std::string_view payload);
[[nodiscard]] DrilldownResponse DecodeDrilldownResponse(
    std::string_view payload);
[[nodiscard]] AnswerResponse DecodeAnswerResponse(std::string_view payload);
[[nodiscard]] StatsResponse DecodeStatsResponse(std::string_view payload);
[[nodiscard]] OverloadedResponse DecodeOverloaded(std::string_view payload);
[[nodiscard]] ErrorResponse DecodeError(std::string_view payload);

}  // namespace gdp::net::wire
