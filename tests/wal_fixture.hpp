// The fixed GDPWAL01 log whose bytes tests/data/golden_wal.hex pins, shared
// by audit_wal_test's golden and mutation cases.  One record of each kind,
// every AccountingPolicy and every MechanismEvent kind; its doubles cover
// the bit patterns a codec could mangle (-0.0, a NaN payload, the smallest
// subnormal, DBL_MAX), and it holds an empty label and a multi-byte UTF-8
// tenant name.  The records go through AuditWal::Append, so the file pins
// the writer's frames as well as the record payloads: three appends, a
// reopen (epoch 1), then three more.  The hex file was written by the
// byte-at-a-time WAL codec that preceded the shared little-endian one, and
// no test rewrites it: changing a record here means regenerating it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serve/audit_wal.hpp"

namespace gdp::serve::wal_fixture {

using gdp::dp::AccountingPolicy;
using gdp::dp::MechanismEvent;

// The records in log order, with the seq and epoch Append assigns them.
inline std::vector<WalRecord> GoldenRecords() {
  const double nan = std::bit_cast<double>(0x7ff8000000000abcull);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  std::vector<WalRecord> records;

  records.push_back(WalRecord::TenantOpen(
      "tenant-\xce\xb1\xe2\x82\xac", "dblp", "fp:depth=6;arity=4;seed=9", huge,
      tiny, AccountingPolicy::kRdp, MechanismEvent::PureEps(0.45), 0.45, -0.0,
      "phase1: EM specialization"));
  records.push_back(WalRecord::Charge(
      "tenant-\xce\xb1\xe2\x82\xac", "dblp",
      MechanismEvent::Gaussian(0.9, 1e-6, 3.0, 3, 7), nan, 2e-6,
      "release[0]: phase2 noise"));
  records.push_back(WalRecord::DatasetRetired("imdb", "odometer cap tripped"));

  // After the reopen: a restore-attach logs a zero-ε opaque event.
  records.push_back(WalRecord::TenantOpen(
      "bob", "dblp", "fp:depth=6;arity=4;seed=9", 50.0, 0.4,
      AccountingPolicy::kAdvanced, MechanismEvent::Opaque(0.0, 0.0), 0.0, 0.0,
      ""));
  records.push_back(WalRecord::Charge(
      "bob", "dblp", MechanismEvent::PureEps(-0.0, tiny, 2, 5), huge, tiny,
      "sweep[1]"));
  WalRecord opaque = WalRecord::Charge(
      "bob", "dblp", MechanismEvent::Opaque(nan, -0.0, 1), -0.0, nan, "");
  opaque.event.count = std::numeric_limits<std::int32_t>::max();
  opaque.event.parallel_width = std::numeric_limits<std::int32_t>::min();
  opaque.epsilon_cap = -huge;
  opaque.delta_cap = -tiny;
  records.push_back(opaque);

  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].seq = i;
    records[i].epoch = i < 3 ? 0 : 1;
  }
  return records;
}

// The magic, then one frame per GoldenRecords() entry, each exactly as
// AuditWal::Append wrote it.
inline std::vector<std::string> GoldenChunks() {
  const std::vector<WalRecord> records = GoldenRecords();
  std::vector<std::string> chunks;
  std::string log;
  std::size_t next = 0;
  for (const std::uint32_t epoch : {0u, 1u}) {
    AuditWal wal(std::make_unique<MemoryStorage>(log));
    if (chunks.empty()) {
      chunks.push_back(wal.storage().ReadAll());
    }
    for (; next < records.size() && records[next].epoch == epoch; ++next) {
      const std::uint64_t before = wal.storage().size();
      (void)wal.Append(records[next]);
      chunks.push_back(wal.storage().ReadAll().substr(before));
    }
    log = wal.storage().ReadAll();
  }
  return chunks;
}

// Lower-case hex, one line per chunk.
inline std::string HexLines(const std::vector<std::string>& chunks) {
  std::string out;
  for (const std::string& chunk : chunks) {
    for (const char c : chunk) {
      char hex[3];
      std::snprintf(hex, sizeof hex, "%02x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += hex;
    }
    out += '\n';
  }
  return out;
}

}  // namespace gdp::serve::wal_fixture
