// net::Client: a blocking GDPNET02 client over one TCP connection.
//
// One request at a time per client: every call writes one frame and blocks
// until the matching response frame arrives (the server answers frames in
// per-connection submission order for requests from ONE connection, because
// responses are written by the job that handled the frame and jobs from one
// connection are enqueued in read order — but a caller wanting pipelining
// should open more connections, not interleave calls on one client from
// multiple threads; the client is externally synchronized, like an
// iostream).
//
// Every RPC returns a Reply<T>: the typed result when the server granted the
// request, or the server's typed Overloaded / Error substitute.  Transport
// failures (connection refused, peer closed mid-frame) and protocol
// violations in the server's bytes throw IoError / NetProtocolError — a
// broken transport is exceptional; a served refusal is data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace gdp::net {

enum class ReplyStatus : std::uint8_t {
  kOk,          // the typed response for the request's kind
  kOverloaded,  // server shed the request; retry later
  kError,       // typed failure; see error_code/message
};

template <typename T>
struct Reply {
  ReplyStatus status{ReplyStatus::kOk};
  T value{};  // meaningful iff status == kOk
  wire::ErrorCode error_code{wire::ErrorCode::kInternal};
  std::string message;  // Overloaded reason or Error message

  [[nodiscard]] bool ok() const noexcept { return status == ReplyStatus::kOk; }
};

class Client {
 public:
  // Connect to 127.0.0.1:`port` (the in-process test/bench path) or
  // `host`:`port`, and send the GDPNET02 magic.  Throws IoError on refusal.
  explicit Client(std::uint16_t port);
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] Reply<wire::ServeOutcome> Serve(const wire::ServeRequest& req);
  [[nodiscard]] Reply<wire::SweepResponse> Sweep(const wire::SweepRequest& req);
  [[nodiscard]] Reply<wire::DrilldownResponse> Drilldown(
      const wire::DrilldownRequest& req);
  [[nodiscard]] Reply<wire::AnswerResponse> Answer(
      const wire::AnswerRequest& req);
  [[nodiscard]] Reply<wire::StatsResponse> Stats();

 private:
  // Write one framed payload, read one framed response payload.
  [[nodiscard]] std::string RoundTrip(const std::string& payload);

  int fd_{-1};
};

}  // namespace gdp::net
