// The fixed GDPNET02 messages whose encodings tests/data/golden_wire.hex
// pins, one per Encode overload, shared by net_wire_test's golden and
// mutation cases.  Their doubles cover the bit patterns a codec could
// mangle (-0.0, ±inf, a NaN payload, the smallest subnormal, DBL_MAX) and
// their f64 columns hold 0, 1 and 37 entries.  The hex file was written by
// the byte-at-a-time codec that preceded the word-at-a-time one, and no
// test rewrites it: changing a message here means regenerating it.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.hpp"

namespace gdp::net::wire::wire_fixture {

inline double Bits(std::uint64_t pattern) {
  return std::bit_cast<double>(pattern);
}

inline const std::vector<double>& SpecialDoubles() {
  static const std::vector<double> kSpecials = {
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      Bits(0x7ff8000000000abcull),  // quiet NaN with a payload
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
  };
  return kSpecials;
}

// `n` values: the special doubles first, then a ramp of ordinary ones.
inline std::vector<double> Column(std::size_t n, double offset) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(i < SpecialDoubles().size()
                    ? SpecialDoubles()[i]
                    : offset + 1.25 * static_cast<double>(i));
  }
  return v;
}

inline WireBudget Budget(double epsilon_g, double delta, double fraction,
                         std::uint8_t noise) {
  return WireBudget{epsilon_g, delta, fraction, noise};
}

inline ServeOutcome Granted(std::size_t groups, double offset) {
  ServeOutcome o;
  o.granted = true;
  o.privilege = 6;
  o.level = 0;
  o.epsilon_spent = -0.0;
  o.epsilon_remaining = std::numeric_limits<double>::max();
  o.accounting = 2;
  o.accounted_epsilon = std::numeric_limits<double>::denorm_min();
  o.accounted_delta = Bits(0x7ff8000000000abcull);
  o.view.level = 0;
  o.view.sensitivity = std::numeric_limits<double>::infinity();
  o.view.noise_stddev = 123.5;
  o.view.group_noise_stddev = -std::numeric_limits<double>::infinity();
  o.view.true_total = 2500.0 + offset;
  o.view.noisy_total = -2481.25 - offset;
  o.view.true_group_counts = Column(groups, offset);
  o.view.noisy_group_counts = Column(groups, -offset);
  return o;
}

inline ServeOutcome Denied() {
  ServeOutcome o;
  o.denial_reason = "tenant grant exhausted (delta cap)";
  o.privilege = -1;
  o.level = std::numeric_limits<std::int32_t>::min();
  o.epsilon_spent = 0.5;
  o.epsilon_remaining = 0.0;
  o.accounting = 1;
  o.view.level = std::numeric_limits<std::int32_t>::max();
  return o;
}

// (name, Encode(message)) for every Encode overload, in wire.hpp's order.
inline std::vector<std::pair<std::string, std::string>> GoldenPayloads() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = Bits(0x7ff8000000000abcull);
  std::vector<std::pair<std::string, std::string>> out;

  out.emplace_back(
      "ServeRequest",
      Encode(ServeRequest{"tenant-\xce\xb1", "dblp",
                          Budget(std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::denorm_min(),
                                 -0.0, 4)}));
  out.emplace_back("SweepRequest",
                   Encode(SweepRequest{"", "d",
                                       {Budget(inf, 1e-5, 0.1, 0),
                                        Budget(-inf, nan, 0.25, 1),
                                        Budget(0.999, -0.0, 1.0, 3)}}));
  out.emplace_back(
      "DrilldownRequest",
      Encode(DrilldownRequest{"carol", "imdb", Budget(0.5, 1e-6, nan, 2), 1,
                              0xFFFFFFFEu}));
  AnswerRequest answer;
  answer.tenant = "dave";
  answer.dataset = "dblp";
  answer.budget = Budget(0.75, 1e-7, 0.2, 0);
  answer.queries.resize(3);
  answer.queries[1].kind = gdp::core::QuerySpec::Kind::kGroupCount;
  answer.queries[2].kind = gdp::core::QuerySpec::Kind::kDegreeHistogram;
  answer.queries[2].side = gdp::graph::Side::kRight;
  answer.queries[2].max_degree = 37;
  out.emplace_back("AnswerRequest", Encode(answer));
  out.emplace_back("StatsRequest", EncodeStatsRequest());

  out.emplace_back("ServeResponse", Encode(Granted(37, 3.0)));
  out.emplace_back("SweepResponse",
                   Encode(SweepResponse{
                       {Granted(1, 5.0), Denied(), Granted(37, 7.0)}}));
  out.emplace_back(
      "DrilldownResponse",
      Encode(DrilldownResponse{
          Granted(0, 1.0),
          {WireDrillEntry{6, 0, 5365, inf, -0.0},
           WireDrillEntry{5, 3, 1339, nan, std::numeric_limits<double>::max()},
           WireDrillEntry{-1, 0xFFFFFFFFu, 0,
                          std::numeric_limits<double>::denorm_min(), -inf}}}));
  AnswerResponse answered;
  answered.outcome = Granted(0, 2.0);
  answered.results.push_back({"association_count", 812.5, Column(1, 9.0)});
  answered.results.push_back({"group_counts", nan, Column(37, -9.0)});
  answered.results.push_back({"degree_histogram_right", -0.0, {}});
  out.emplace_back("AnswerResponse", Encode(answered));

  StatsResponse stats;
  stats.registry_hits = 1;
  stats.registry_misses = 0x0102030405060708ull;
  stats.registry_evictions = 3;
  stats.registry_snapshot_adoptions = 4;
  stats.registry_size = 5;
  stats.registry_capacity = 6;
  stats.catalog_datasets = 7;
  stats.broker_tenants = 8;
  stats.wal_enabled = 1;
  stats.failed_closed = 0xFF;
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
  stats.rng_mutex_acquisitions = std::numeric_limits<std::uint64_t>::max();
  stats.partial_writes = 26;
  out.emplace_back("StatsResponse", Encode(stats));
  out.emplace_back(
      "Overloaded",
      Encode(OverloadedResponse{"job queue is full (64 pending)"}));
  out.emplace_back("Error", Encode(ErrorResponse{ErrorCode::kDurability,
                                                 "failing closed"}));
  return out;
}

}  // namespace gdp::net::wire::wire_fixture
