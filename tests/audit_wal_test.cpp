// AuditWal unit coverage: record codec, the golden GDPWAL01 bytes
// (tests/data/golden_wal.hex), frame/CRC replay with torn-tail repair,
// seq/epoch assignment across reopens, fault injection through
// FaultyStorage (transient retry, permanent fail-closed, short writes,
// simulated crashes), the POSIX FileStorage round trip, and seeded mutants
// of the golden log through tests/mutation_driver.hpp.
#include "serve/audit_wal.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/le_codec.hpp"
#include "common/retry.hpp"
#include "dp/privacy_accountant.hpp"
#include "mutation_driver.hpp"
#include "wal_fixture.hpp"

namespace gdp::serve {
namespace {

using gdp::common::BackoffOptions;
using gdp::dp::AccountingPolicy;
using gdp::dp::MechanismEvent;

WalRecord SampleCharge(const std::string& tenant = "alice") {
  return WalRecord::Charge(tenant, "dblp",
                           MechanismEvent::Gaussian(0.9, 1e-6, 3.0), 1.35,
                           2e-6, "release[0]: phase2 noise");
}

// Frame a payload the way the WAL does: [u32 len][u32 crc][payload], LE.
std::string Frame(const std::string& payload) {
  return gdp::common::SealFrame(payload);
}

constexpr std::string_view kMagic = "GDPWAL01";

// ---------- codec ----------

TEST(WalRecordCodecTest, RoundTripsEveryFieldOfEveryKind) {
  WalRecord open = WalRecord::TenantOpen(
      "alice", "dblp", "fp123", 50.0, 0.4, AccountingPolicy::kRdp,
      MechanismEvent::PureEps(0.45), 0.45, 0.0, "phase1: EM specialization");
  open.seq = 7;
  open.epoch = 2;
  WalRecord charge = SampleCharge();
  charge.seq = 8;
  charge.epoch = 2;
  charge.event.count = 3;
  charge.event.parallel_width = 2;
  WalRecord retired = WalRecord::DatasetRetired("dblp", "cap tripped");
  retired.seq = 9;
  retired.epoch = 3;

  for (const WalRecord& record : {open, charge, retired}) {
    const WalRecord decoded = DecodeWalRecord(EncodeWalRecord(record));
    EXPECT_EQ(decoded.kind, record.kind);
    EXPECT_EQ(decoded.seq, record.seq);
    EXPECT_EQ(decoded.epoch, record.epoch);
    EXPECT_EQ(decoded.tenant, record.tenant);
    EXPECT_EQ(decoded.dataset, record.dataset);
    EXPECT_EQ(decoded.fingerprint, record.fingerprint);
    EXPECT_DOUBLE_EQ(decoded.epsilon_cap, record.epsilon_cap);
    EXPECT_DOUBLE_EQ(decoded.delta_cap, record.delta_cap);
    EXPECT_EQ(decoded.accounting, record.accounting);
    EXPECT_EQ(decoded.event.kind, record.event.kind);
    EXPECT_DOUBLE_EQ(decoded.event.epsilon, record.event.epsilon);
    EXPECT_DOUBLE_EQ(decoded.event.delta, record.event.delta);
    EXPECT_DOUBLE_EQ(decoded.event.noise_multiplier,
                     record.event.noise_multiplier);
    EXPECT_EQ(decoded.event.count, record.event.count);
    EXPECT_EQ(decoded.event.parallel_width, record.event.parallel_width);
    EXPECT_DOUBLE_EQ(decoded.accounted_epsilon, record.accounted_epsilon);
    EXPECT_DOUBLE_EQ(decoded.accounted_delta, record.accounted_delta);
    EXPECT_EQ(decoded.label, record.label);
  }
}

TEST(WalRecordCodecTest, UndecodablePayloadThrowsIoError) {
  EXPECT_THROW((void)DecodeWalRecord(""), gdp::common::IoError);
  EXPECT_THROW((void)DecodeWalRecord("garbage bytes"), gdp::common::IoError);
  // A truncated-but-started payload is version skew / a writer bug too.
  const std::string good = EncodeWalRecord(SampleCharge());
  EXPECT_THROW((void)DecodeWalRecord(good.substr(0, good.size() / 2)),
               gdp::common::IoError);
}

// tests/data/golden_wal.hex: wal_fixture's log, the magic and then one
// frame a hex line.
std::vector<std::string> GoldenWalChunks() {
  std::ifstream in(std::string(GDP_TEST_DATA_DIR) + "/golden_wal.hex");
  EXPECT_TRUE(in.good()) << "missing tests/data/golden_wal.hex";
  std::vector<std::string> chunks;
  for (std::string line; std::getline(in, line);) {
    std::string bytes;
    for (std::size_t i = 0; i + 1 < line.size(); i += 2) {
      bytes.push_back(
          static_cast<char>(std::stoi(line.substr(i, 2), nullptr, 16)));
    }
    chunks.push_back(std::move(bytes));
  }
  return chunks;
}

// Appending the fixture's records writes the golden bytes, and every record
// Replay reads back from them re-encodes to its frame's payload.
TEST(WalGoldenTest, AppendedRecordsMatchTheGoldenBytes) {
  const std::vector<std::string> golden = GoldenWalChunks();
  const std::vector<WalRecord> records = wal_fixture::GoldenRecords();
  ASSERT_EQ(golden.size(), records.size() + 1);
  EXPECT_EQ(golden[0], kMagic);
  const std::vector<std::string> fresh = wal_fixture::GoldenChunks();
  ASSERT_EQ(fresh.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_TRUE(fresh[i] == golden[i]) << "chunk " << i << " differs";
  }

  std::string image;
  for (const std::string& chunk : golden) {
    image += chunk;
  }
  const WalReplayResult replay = AuditWal::Replay(image);
  ASSERT_EQ(replay.records.size(), records.size());
  EXPECT_EQ(replay.valid_bytes, image.size());
  EXPECT_EQ(replay.truncated_bytes, 0u);
  EXPECT_FALSE(replay.sequence_gap);
  EXPECT_EQ(replay.next_seq, records.size());
  EXPECT_EQ(replay.next_epoch, 2u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string payload = golden[i + 1].substr(8);
    EXPECT_TRUE(EncodeWalRecord(records[i]) == payload) << "record " << i;
    EXPECT_TRUE(EncodeWalRecord(replay.records[i]) == payload)
        << "record " << i << " does not re-encode to its frame's payload";
  }
}

// ---------- replay ----------

TEST(WalReplayTest, EmptyImageIsAnEmptyLog) {
  const WalReplayResult result = AuditWal::Replay("");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_FALSE(result.torn_tail());
  EXPECT_FALSE(result.sequence_gap);
}

TEST(WalReplayTest, WrongMagicIsNotAWal) {
  EXPECT_THROW((void)AuditWal::Replay("NOTAWAL0 more bytes"),
               gdp::common::IoError);
}

TEST(WalReplayTest, ShortNonMagicPrefixIsAllTornTail) {
  const WalReplayResult result = AuditWal::Replay("GDP");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.truncated_bytes, 3u);
  EXPECT_TRUE(result.torn_tail());
}

TEST(WalReplayTest, TornTailIsReportedAndBoundariesExposed) {
  WalRecord a = SampleCharge("alice");
  a.seq = 0;
  WalRecord b = SampleCharge("bob");
  b.seq = 1;
  std::string image(kMagic);
  image += Frame(EncodeWalRecord(a));
  const std::uint64_t after_a = image.size();
  image += Frame(EncodeWalRecord(b));
  const std::uint64_t after_b = image.size();
  // A crash mid-append leaves half of a third frame behind.
  WalRecord c = SampleCharge("carol");
  c.seq = 2;
  const std::string torn = Frame(EncodeWalRecord(c));
  image += torn.substr(0, torn.size() / 2);

  const WalReplayResult result = AuditWal::Replay(image);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].tenant, "alice");
  EXPECT_EQ(result.records[1].tenant, "bob");
  EXPECT_EQ(result.valid_bytes, after_b);
  EXPECT_EQ(result.truncated_bytes, torn.size() - torn.size() / 2);
  EXPECT_TRUE(result.torn_tail());
  ASSERT_EQ(result.record_end_offsets.size(), 2u);
  EXPECT_EQ(result.record_end_offsets[0], after_a);
  EXPECT_EQ(result.record_end_offsets[1], after_b);
  EXPECT_FALSE(result.sequence_gap);
  EXPECT_EQ(result.next_seq, 2u);
}

TEST(WalReplayTest, CorruptByteDropsEverythingFromThatFrameOn) {
  WalRecord a = SampleCharge("alice");
  a.seq = 0;
  WalRecord b = SampleCharge("bob");
  b.seq = 1;
  std::string image(kMagic);
  image += Frame(EncodeWalRecord(a));
  const std::uint64_t after_a = image.size();
  image += Frame(EncodeWalRecord(b));
  // Flip one payload byte inside b's frame: its CRC no longer checks out.
  image[after_a + 8 + 4] = static_cast<char>(image[after_a + 8 + 4] ^ 0x01);
  const WalReplayResult result = AuditWal::Replay(image);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].tenant, "alice");
  EXPECT_EQ(result.valid_bytes, after_a);
  EXPECT_TRUE(result.torn_tail());
}

TEST(WalReplayTest, SequenceGapIsFlagged) {
  WalRecord a = SampleCharge("alice");
  a.seq = 0;
  WalRecord c = SampleCharge("carol");
  c.seq = 2;  // record 1 is missing — torn writes cannot produce this
  std::string image(kMagic);
  image += Frame(EncodeWalRecord(a));
  image += Frame(EncodeWalRecord(c));
  const WalReplayResult result = AuditWal::Replay(image);
  EXPECT_EQ(result.records.size(), 2u);
  EXPECT_TRUE(result.sequence_gap);
  EXPECT_EQ(result.next_seq, 3u);
}

// ---------- append / reopen ----------

TEST(AuditWalTest, AppendAssignsSeqAndEpochAndIsReplayable) {
  AuditWal wal(std::make_unique<MemoryStorage>());
  EXPECT_EQ(wal.epoch(), 0u);
  EXPECT_EQ(wal.Append(SampleCharge("alice")), 0u);
  EXPECT_EQ(wal.Append(SampleCharge("bob")), 1u);
  EXPECT_EQ(wal.next_seq(), 2u);
  const WalReplayResult replay = AuditWal::Replay(wal.storage().ReadAll());
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].seq, 0u);
  EXPECT_EQ(replay.records[0].epoch, 0u);
  EXPECT_EQ(replay.records[1].seq, 1u);
  EXPECT_FALSE(replay.sequence_gap);
}

TEST(AuditWalTest, ReopenContinuesSeqAndBumpsEpoch) {
  std::string bytes;
  {
    AuditWal wal(std::make_unique<MemoryStorage>());
    (void)wal.Append(SampleCharge("alice"));
    (void)wal.Append(SampleCharge("bob"));
    bytes = wal.storage().ReadAll();
  }
  AuditWal reopened(std::make_unique<MemoryStorage>(bytes));
  EXPECT_EQ(reopened.recovered().records.size(), 2u);
  EXPECT_EQ(reopened.next_seq(), 2u);
  EXPECT_EQ(reopened.epoch(), 1u);
  EXPECT_EQ(reopened.Append(SampleCharge("carol")), 2u);
  const WalReplayResult replay = AuditWal::Replay(reopened.storage().ReadAll());
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2].epoch, 1u);
  EXPECT_FALSE(replay.sequence_gap);
}

// A crash after the file grew but before its data landed can leave zeros: a
// zero header declares an empty payload whose CRC, 0, matches.  The writer
// never frames an empty payload, so that is a torn tail, not a record.
TEST(AuditWalTest, ZeroFilledTailIsATornTailRepairedOnOpen) {
  std::string log;
  {
    AuditWal wal(std::make_unique<MemoryStorage>());
    (void)wal.Append(SampleCharge("alice"));
    log = wal.storage().ReadAll();
  }
  for (const std::size_t zeros : {std::size_t{8}, std::size_t{4096}}) {
    const std::string bytes = log + std::string(zeros, '\0');
    const WalReplayResult replay = AuditWal::Replay(bytes);
    ASSERT_EQ(replay.records.size(), 1u) << zeros << " zero bytes";
    EXPECT_EQ(replay.valid_bytes, log.size());
    EXPECT_EQ(replay.truncated_bytes, zeros);

    AuditWal reopened(std::make_unique<MemoryStorage>(bytes));
    EXPECT_EQ(reopened.storage().size(), log.size());
    EXPECT_EQ(reopened.Append(SampleCharge("bob")), 1u);
    const WalReplayResult after =
        AuditWal::Replay(reopened.storage().ReadAll());
    ASSERT_EQ(after.records.size(), 2u);
    EXPECT_FALSE(after.torn_tail());
    EXPECT_FALSE(after.sequence_gap);
  }
}

TEST(AuditWalTest, OpenTruncatesTornTailSoItNeverResurfaces) {
  std::string bytes;
  {
    AuditWal wal(std::make_unique<MemoryStorage>());
    (void)wal.Append(SampleCharge("alice"));
    bytes = wal.storage().ReadAll();
  }
  const std::uint64_t intact = bytes.size();
  bytes += "half a frame";  // a crash's leftovers
  AuditWal reopened(std::make_unique<MemoryStorage>(bytes));
  EXPECT_TRUE(reopened.recovered().torn_tail());
  EXPECT_EQ(reopened.storage().size(), intact);
  // The next append lands cleanly where the repaired log ends.
  (void)reopened.Append(SampleCharge("bob"));
  EXPECT_EQ(AuditWal::Replay(reopened.storage().ReadAll()).records.size(), 2u);
}

// ---------- fault injection ----------

// Bytes of a one-record WAL, used to seed FaultyStorage tests with a
// non-empty file (so the adopting ctor performs no counted writes and the
// first Append is durable op 0).
std::string OneRecordImage() {
  AuditWal wal(std::make_unique<MemoryStorage>());
  (void)wal.Append(SampleCharge("seed"));
  return wal.storage().ReadAll();
}

TEST(AuditWalTest, TransientAppendErrorIsRetriedWithBackoff) {
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(OneRecordImage()),
      FaultyStorage::FaultMode::kTransientError, /*fail_at_op=*/0);
  FaultyStorage* storage = faulty.get();
  std::vector<std::chrono::milliseconds> sleeps;
  AuditWal wal(std::move(faulty), BackoffOptions{},
               [&sleeps](std::chrono::milliseconds d) { sleeps.push_back(d); });
  EXPECT_EQ(wal.Append(SampleCharge("alice")), 1u);
  EXPECT_EQ(sleeps.size(), 1u) << "one transient failure, one backoff sleep";
  const WalReplayResult replay = AuditWal::Replay(storage->inner().ReadAll());
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_FALSE(replay.torn_tail());
  EXPECT_FALSE(replay.sequence_gap);
}

TEST(AuditWalTest, TransientSyncErrorIsRetriedToo) {
  // Op 0 is the frame's Append, op 1 its Sync: fail the fsync once.
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(OneRecordImage()),
      FaultyStorage::FaultMode::kTransientError, /*fail_at_op=*/1);
  FaultyStorage* storage = faulty.get();
  std::vector<std::chrono::milliseconds> sleeps;
  AuditWal wal(std::move(faulty), BackoffOptions{},
               [&sleeps](std::chrono::milliseconds d) { sleeps.push_back(d); });
  EXPECT_EQ(wal.Append(SampleCharge("alice")), 1u);
  EXPECT_EQ(sleeps.size(), 1u);
  // The retry truncated back to base first: exactly one copy of the frame.
  const WalReplayResult replay = AuditWal::Replay(storage->inner().ReadAll());
  EXPECT_EQ(replay.records.size(), 2u);
  EXPECT_FALSE(replay.torn_tail());
}

TEST(AuditWalTest, ExhaustedRetriesFailClosedWithoutTornFrame) {
  BackoffOptions retry;
  retry.max_attempts = 3;
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(OneRecordImage()),
      FaultyStorage::FaultMode::kTransientError, /*fail_at_op=*/0,
      /*fail_ops=*/100);
  FaultyStorage* storage = faulty.get();
  std::vector<std::chrono::milliseconds> sleeps;
  AuditWal wal(std::move(faulty), retry,
               [&sleeps](std::chrono::milliseconds d) { sleeps.push_back(d); });
  EXPECT_THROW((void)wal.Append(SampleCharge("alice")),
               gdp::common::DurabilityError);
  EXPECT_EQ(sleeps.size(), 2u) << "3 attempts => 2 sleeps";
  // Nothing torn, nothing half-appended: the log still replays to 1 record.
  const WalReplayResult replay = AuditWal::Replay(storage->inner().ReadAll());
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_FALSE(replay.torn_tail());
}

TEST(AuditWalTest, PermanentErrorFailsClosedWithoutBurningRetries) {
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(OneRecordImage()),
      FaultyStorage::FaultMode::kPermanentError, /*fail_at_op=*/0);
  std::vector<std::chrono::milliseconds> sleeps;
  AuditWal wal(std::move(faulty), BackoffOptions{},
               [&sleeps](std::chrono::milliseconds d) { sleeps.push_back(d); });
  EXPECT_THROW((void)wal.Append(SampleCharge("alice")),
               gdp::common::DurabilityError);
  EXPECT_TRUE(sleeps.empty()) << "a permanent error must not be retried";
}

TEST(AuditWalTest, ShortWriteThenErrorLeavesARepairableTail) {
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(OneRecordImage()),
      FaultyStorage::FaultMode::kShortWriteThenError, /*fail_at_op=*/0);
  FaultyStorage* storage = faulty.get();
  AuditWal wal(std::move(faulty), BackoffOptions{},
               [](std::chrono::milliseconds) {});
  EXPECT_THROW((void)wal.Append(SampleCharge("alice")),
               gdp::common::DurabilityError);
  // The half-frame is on disk, but replay truncates it and a reopen repairs.
  const std::string bytes = storage->inner().ReadAll();
  const WalReplayResult replay = AuditWal::Replay(bytes);
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_TRUE(replay.torn_tail());
  AuditWal reopened(std::make_unique<MemoryStorage>(bytes));
  EXPECT_EQ(reopened.recovered().records.size(), 1u);
  EXPECT_EQ(reopened.Append(SampleCharge("bob")), 1u);
}

TEST(AuditWalTest, SimulatedCrashPropagatesAsACrashNotAnError) {
  // kCrashShortWrite models the process dying: the retry/fail-closed
  // machinery must NOT swallow it into a DurabilityError.
  auto faulty = std::make_unique<FaultyStorage>(
      std::make_unique<MemoryStorage>(OneRecordImage()),
      FaultyStorage::FaultMode::kCrashShortWrite, /*fail_at_op=*/0);
  FaultyStorage* storage = faulty.get();
  AuditWal wal(std::move(faulty), BackoffOptions{},
               [](std::chrono::milliseconds) {});
  EXPECT_THROW((void)wal.Append(SampleCharge("alice")), SimulatedCrash);
  // The "next process" recovers the pre-crash history.
  const WalReplayResult replay = AuditWal::Replay(storage->inner().ReadAll());
  EXPECT_EQ(replay.records.size(), 1u);
  EXPECT_TRUE(replay.torn_tail());
}

// ---------- FileStorage ----------

TEST(FileStorageTest, RoundTripsThroughARealFile) {
  const std::string path = ::testing::TempDir() + "/audit_wal_test.wal";
  std::remove(path.c_str());
  {
    AuditWal wal(std::make_unique<FileStorage>(path));
    (void)wal.Append(SampleCharge("alice"));
    (void)wal.Append(SampleCharge("bob"));
  }
  {
    AuditWal reopened(std::make_unique<FileStorage>(path));
    EXPECT_EQ(reopened.recovered().records.size(), 2u);
    EXPECT_EQ(reopened.next_seq(), 2u);
    EXPECT_EQ(reopened.epoch(), 1u);
    (void)reopened.Append(SampleCharge("carol"));
  }
  FileStorage verify(path);
  const WalReplayResult replay = AuditWal::Replay(verify.ReadAll());
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2].tenant, "carol");
  EXPECT_FALSE(replay.sequence_gap);
  std::remove(path.c_str());
}

TEST(FileStorageTest, TruncateDiscardsSuffix) {
  const std::string path = ::testing::TempDir() + "/file_storage_trunc.wal";
  std::remove(path.c_str());
  FileStorage storage(path);
  storage.Append("0123456789");
  storage.Sync();
  EXPECT_EQ(storage.size(), 10u);
  storage.Truncate(4);
  EXPECT_EQ(storage.size(), 4u);
  EXPECT_EQ(storage.ReadAll(), "0123");
  storage.Append("xy");
  EXPECT_EQ(storage.ReadAll(), "0123xy");
  std::remove(path.c_str());
}

// ---------- seeded mutants ----------

// Check one mutant image, placed flush against the guard page.  Replay must
// throw IoError, or return records that each re-encode to their frame's
// payload and account for every byte.  An AuditWal adopting the image must
// throw IoError, or leave a log that one more Append keeps whole.
bool SurvivesWalMutant(std::string_view image, const std::string& what) {
  try {
    try {
      const WalReplayResult replay = AuditWal::Replay(image);
      if (replay.valid_bytes + replay.truncated_bytes != image.size()) {
        ADD_FAILURE() << what << ": replay does not account for every byte";
        return false;
      }
      std::size_t frame = kMagic.size();
      for (std::size_t i = 0; i < replay.records.size(); ++i) {
        const std::size_t end = replay.record_end_offsets[i];
        const std::string_view payload = image.substr(
            frame + gdp::common::kFrameHeaderSize,
            end - frame - gdp::common::kFrameHeaderSize);
        if (EncodeWalRecord(replay.records[i]) != payload) {
          ADD_FAILURE() << what << ": record " << i
                        << " does not re-encode to its frame's payload";
          return false;
        }
        frame = end;
      }
    } catch (const gdp::common::IoError&) {
    }
    try {
      AuditWal wal(std::make_unique<MemoryStorage>(std::string(image)));
      (void)wal.Append(SampleCharge("after"));
      if (AuditWal::Replay(wal.storage().ReadAll()).truncated_bytes != 0) {
        ADD_FAILURE() << what << ": the log is torn after one Append";
        return false;
      }
    } catch (const gdp::common::IoError&) {
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw a non-IoError exception: " << e.what();
    return false;
  }
  return true;
}

// Recompute the CRC of every frame Replay would walk to, in place.
void ResealFrames(std::string& image) {
  std::size_t pos = kMagic.size();
  while (pos + gdp::common::kFrameHeaderSize <= image.size()) {
    const std::uint32_t len = mutation_driver::U32At(image, pos);
    const std::size_t body = pos + gdp::common::kFrameHeaderSize;
    if (len > image.size() - body) {
      return;
    }
    mutation_driver::SetU32At(
        image, pos + 4,
        gdp::common::Crc32(std::string_view(image).substr(body, len)));
    pos = body + len;
  }
}

// Seeded mutants of the golden log: every frame length and record string
// length set to 0, 1, the exact fit, one past it and 0xFFFFFFFF, then bit
// flips, splices, truncations and field rewrites.  Seven in eight get their
// frame CRCs re-sealed, so they reach the record decoder.
TEST(WalMutationTest, ReplaySurvivesSeededMutantsOfTheGoldenLog) {
  std::string image;
  for (const std::string& chunk : GoldenWalChunks()) {
    image += chunk;
  }
  mutation_driver::Corpus corpus;
  corpus.entries.push_back(image);
  corpus.fields.emplace_back();
  const WalReplayResult golden = AuditWal::Replay(image);
  ASSERT_EQ(golden.records.size(), wal_fixture::GoldenRecords().size());
  std::size_t frame = kMagic.size();
  for (const std::uint64_t end : golden.record_end_offsets) {
    const std::size_t body = frame + gdp::common::kFrameHeaderSize;
    corpus.fields.back().push_back(
        {frame, static_cast<std::uint32_t>(end - body)});
    // The record layout, in EncodeWalRecord's order.
    ASSERT_EQ(mutation_driver::Walk(image, "184sss88118884488s", body, end,
                                    corpus.fields.back()),
              end);
    frame = end;
  }

  mutation_driver::GuardedBuffer guard;
  constexpr std::size_t kRandomMutants = 24'000;
  const std::size_t mutants = mutation_driver::Run(
      corpus, 0x3a1, kRandomMutants, [&](const mutation_driver::Mutant& m) {
        std::string bytes = m.bytes;
        if (!m.stale_crc) {
          ResealFrames(bytes);
        }
        return SurvivesWalMutant(guard.Place(bytes), m.what);
      });
  EXPECT_GE(mutants, 20'000u);
}

}  // namespace
}  // namespace gdp::serve
