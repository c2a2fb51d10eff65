// AuditWal: the durable, append-only charge ledger under DisclosureService.
//
// Every budget charge the serving layer admits is framed, CRC-tagged, and
// fsync'd to this log BEFORE any noise is drawn (the write-ahead contract:
// see DisclosureSession::TryRelease's gate ordering).  The consequence is
// the only safe crash semantics for a privacy accountant: at every possible
// crash point the log claims AT LEAST as much spend as was actually
// disclosed — budget can be stranded as "spent" by a crash, but disclosure
// can never outrun the accounting.
//
// On-disk format (all integers little-endian, through common/le_codec.hpp):
//
//   [8-byte magic "GDPWAL01"]
//   frame*   where frame = [u32 payload_len][u32 crc32(payload)][payload]
//
// The frame is GDPNET02's, byte for byte.  The payload serializes one
// WalRecord (see below; docs/DURABILITY.md has the field table).  Replay
// walks frames from the front and stops at the first frame that does not
// check out — short header, zero length (the writer never frames an empty
// payload, but a zero-filled tail reads as one), length past EOF, or CRC
// mismatch.  Everything before the
// stop is trusted (CRC-verified), everything after is the torn tail a crash
// mid-append leaves behind; AuditWal truncates it on open, so an append
// retried after a crash never leaves a stale half-frame for a later replay
// to trip over.  A CRC-VALID frame whose payload does not deserialize is
// different: that is writer-version skew or a bug, not a torn write, and it
// throws IoError rather than being silently dropped.
//
// Storage is an interface so tests can inject failure: FileStorage is the
// real POSIX backend (append + fsync), MemoryStorage backs unit tests, and
// FaultyStorage wraps either to inject transient errors, permanent errors,
// short writes, and simulated crashes at the Nth durable operation.
//
// Thread-safe: Append serializes on an internal mutex (sequence numbers are
// assigned under it).  Replay is static and touches no shared state.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.hpp"
#include "dp/privacy_accountant.hpp"

namespace gdp::serve {

// --- storage backends ------------------------------------------------------

// Byte-level durability primitive the WAL writes through.  Append/Sync throw
// gdp::common::TransientIoError for retryable conditions (EINTR/EAGAIN
// class) and gdp::common::IoError for permanent ones.
class Storage {
 public:
  virtual ~Storage() = default;

  // Append `bytes` at the current end.  On failure the backend may have
  // written a prefix (a short write); the WAL recovers by truncating back to
  // the pre-append size before retrying.
  virtual void Append(std::string_view bytes) = 0;

  // Make everything appended so far durable (fsync semantics).
  virtual void Sync() = 0;

  // The full current contents (replay path; not performance-sensitive).
  [[nodiscard]] virtual std::string ReadAll() const = 0;

  // Discard everything past `size` bytes.
  virtual void Truncate(std::uint64_t size) = 0;

  [[nodiscard]] virtual std::uint64_t size() const = 0;
};

// POSIX file backend: pwrite at end + fsync.  Creates the file when absent.
class FileStorage final : public Storage {
 public:
  // Throws IoError when the file cannot be opened/created.
  explicit FileStorage(const std::string& path);
  ~FileStorage() override;
  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  void Append(std::string_view bytes) override;
  void Sync() override;
  [[nodiscard]] std::string ReadAll() const override;
  void Truncate(std::uint64_t size) override;
  [[nodiscard]] std::uint64_t size() const override;

 private:
  int fd_{-1};
  std::uint64_t size_{0};
  std::string path_;
};

// In-memory backend for unit tests and benchmarks.
class MemoryStorage final : public Storage {
 public:
  MemoryStorage() = default;
  explicit MemoryStorage(std::string initial) : buffer_(std::move(initial)) {}

  void Append(std::string_view bytes) override { buffer_.append(bytes); }
  void Sync() override {}
  [[nodiscard]] std::string ReadAll() const override { return buffer_; }
  void Truncate(std::uint64_t size) override {
    if (size < buffer_.size()) {
      buffer_.resize(size);
    }
  }
  [[nodiscard]] std::uint64_t size() const override { return buffer_.size(); }
  [[nodiscard]] const std::string& bytes() const noexcept { return buffer_; }

 private:
  std::string buffer_;
};

// Thrown by FaultyStorage's kCrashShortWrite mode to simulate the process
// dying mid-write.  Deliberately NOT an IoError: the WAL's retry/fail-closed
// machinery must not catch it — a crash is not an error you handle, it is an
// end of execution the next open recovers from.
struct SimulatedCrash : std::runtime_error {
  explicit SimulatedCrash(const std::string& what) : std::runtime_error(what) {}
};

// Fault-injecting decorator.  Counts durable operations (Append and Sync
// only; reads and truncates pass through uncounted) and injects the
// configured fault for ops [fail_at_op, fail_at_op + fail_ops).
class FaultyStorage final : public Storage {
 public:
  enum class FaultMode {
    kTransientError,      // throw TransientIoError, write nothing
    kPermanentError,      // throw IoError, write nothing
    kShortWriteThenError, // write half the bytes, then throw IoError
    kCrashShortWrite,     // write half the bytes, then throw SimulatedCrash
  };

  FaultyStorage(std::unique_ptr<Storage> inner, FaultMode mode, int fail_at_op,
                int fail_ops = 1)
      : inner_(std::move(inner)),
        mode_(mode),
        fail_at_op_(fail_at_op),
        fail_ops_(fail_ops) {}

  void Append(std::string_view bytes) override;
  void Sync() override;
  [[nodiscard]] std::string ReadAll() const override {
    return inner_->ReadAll();
  }
  void Truncate(std::uint64_t size) override { inner_->Truncate(size); }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }

  [[nodiscard]] Storage& inner() noexcept { return *inner_; }
  [[nodiscard]] int ops_seen() const noexcept { return op_; }

 private:
  // True when this op must fault (also advances the op counter).
  [[nodiscard]] bool TakeFault();

  std::unique_ptr<Storage> inner_;
  FaultMode mode_;
  int fail_at_op_;
  int fail_ops_;
  int op_{0};
};

// --- records ---------------------------------------------------------------

enum class WalRecordKind : std::uint8_t {
  // A tenant handle was attached to (tenant, dataset).  Carries the grant
  // (caps + accounting policy) and the artifact fingerprint, and — for a
  // FRESH attach — the phase-1 charge event paid at attach, so one record
  // atomically covers "tenant exists" and "tenant paid phase 1".  A
  // restore-attach after recovery logs an open with a zero-ε event: the
  // replayed history already carries the original phase-1 spend.
  kTenantOpen = 1,
  // One admitted release charge, persisted BEFORE the ledger commit and the
  // noise draw.  Carries the mechanism event plus the accountant-tightened
  // cumulative guarantee (AccountedSpendWith) stamped at append time, so an
  // offline verifier can recompute it from the event stream and detect
  // divergence.
  kCharge = 2,
  // The dataset's cross-tenant odometer retired it; all later charges for
  // the dataset are refused, and replay re-applies the retirement.
  kDatasetRetired = 3,
};

[[nodiscard]] const char* WalRecordKindName(WalRecordKind kind) noexcept;

// One log record.  The layout is uniform across kinds (unused fields are
// zero/empty) — simpler framing beats a few saved bytes at WAL scale.
struct WalRecord {
  WalRecordKind kind{WalRecordKind::kCharge};
  // Global monotonic sequence number, assigned by Append; continuity is a
  // verifier invariant (a gap means a lost record).
  std::uint64_t seq{0};
  // Open-generation counter: bumped each time an AuditWal adopts the file,
  // so the verifier can see restarts in the stream.  Assigned by Append.
  std::uint32_t epoch{0};
  std::string tenant;
  std::string dataset;
  // SessionRegistry::Fingerprint of the artifact served (kTenantOpen).
  std::string fingerprint;
  // Tenant grant at open time (kTenantOpen).
  double epsilon_cap{0.0};
  double delta_cap{0.0};
  gdp::dp::AccountingPolicy accounting{gdp::dp::AccountingPolicy::kSequential};
  // The charged mechanism event (kCharge; phase-1 event for a fresh
  // kTenantOpen; zeroed otherwise).
  gdp::dp::MechanismEvent event{};
  // Accountant-tightened cumulative (ε, δ) guarantee AFTER this record's
  // event, at the tenant's δ cap — stamped before commit.
  double accounted_epsilon{0.0};
  double accounted_delta{0.0};
  // Ledger label (kCharge / kTenantOpen) or retirement reason
  // (kDatasetRetired).
  std::string label;

  [[nodiscard]] static WalRecord TenantOpen(
      std::string tenant, std::string dataset, std::string fingerprint,
      double epsilon_cap, double delta_cap, gdp::dp::AccountingPolicy accounting,
      const gdp::dp::MechanismEvent& phase1_event, double accounted_epsilon,
      double accounted_delta, std::string label);
  [[nodiscard]] static WalRecord Charge(std::string tenant, std::string dataset,
                                        const gdp::dp::MechanismEvent& event,
                                        double accounted_epsilon,
                                        double accounted_delta,
                                        std::string label);
  [[nodiscard]] static WalRecord DatasetRetired(std::string dataset,
                                                std::string reason);
};

// Serialize one record's payload (no frame header).  Exposed for tests.
[[nodiscard]] std::string EncodeWalRecord(const WalRecord& record);
// Inverse of EncodeWalRecord; throws gdp::common::IoError on a payload that
// does not deserialize (version skew / writer bug — CRC already passed).
[[nodiscard]] WalRecord DecodeWalRecord(std::string_view payload);

// --- replay ----------------------------------------------------------------

struct WalReplayResult {
  std::vector<WalRecord> records;
  // Byte offset just past the last valid frame (== where a repaired log
  // ends); record_end_offsets[i] is the same boundary after records[i] —
  // the crash-injection matrix truncates at and between these.
  std::uint64_t valid_bytes{0};
  std::vector<std::uint64_t> record_end_offsets;
  // Bytes past valid_bytes that did not form a valid frame (torn tail).
  std::uint64_t truncated_bytes{0};
  [[nodiscard]] bool torn_tail() const noexcept { return truncated_bytes > 0; }
  // True when record seqs are not consecutive (a record was lost — this is
  // NOT producible by torn writes, which only ever drop a suffix).
  bool sequence_gap{false};
  std::uint64_t next_seq{0};
  std::uint32_t next_epoch{0};
};

// --- the WAL ---------------------------------------------------------------

class AuditWal {
 public:
  // Adopt `storage`: replay existing contents (throws IoError on a non-WAL
  // file), truncate any torn tail, write the magic header when empty, and
  // start a fresh epoch.  `retry` + `sleep` govern the transient-failure
  // retry loop on the append path; the default sleep really sleeps, tests
  // inject a recording no-op.
  explicit AuditWal(
      std::unique_ptr<Storage> storage,
      gdp::common::BackoffOptions retry = {},
      std::function<void(std::chrono::milliseconds)> sleep = {});

  // Parse `bytes` as a WAL image.  Never throws on torn/corrupt tails (they
  // are reported in the result); throws IoError on a wrong magic or a
  // CRC-valid record that does not deserialize.
  [[nodiscard]] static WalReplayResult Replay(std::string_view bytes);

  // Assign the next (seq, epoch), frame, append, and fsync `record`.
  // Returns the assigned seq.  TransientIoError is retried under the
  // configured backoff — truncating back to the pre-append size between
  // attempts so a short first try can never leave a duplicate or torn frame
  // ahead of the retry.  When retries are exhausted, or the backend fails
  // permanently, throws gdp::common::DurabilityError: the record is NOT
  // durable and the caller must fail closed.
  std::uint64_t Append(WalRecord record);

  // The records recovered when this WAL adopted its storage (pre-open
  // history; later Appends are not reflected here).
  [[nodiscard]] const WalReplayResult& recovered() const noexcept {
    return recovered_;
  }
  [[nodiscard]] std::uint64_t next_seq() const;
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] Storage& storage() noexcept { return *storage_; }

 private:
  // One durable append attempt from base size `base`; returns false on a
  // transient error (after rolling back), propagates everything else.
  [[nodiscard]] bool TryAppendOnce(std::string_view frame, std::uint64_t base);

  mutable std::mutex mutex_;
  std::unique_ptr<Storage> storage_;
  gdp::common::BackoffOptions retry_;
  std::function<void(std::chrono::milliseconds)> sleep_;
  WalReplayResult recovered_;
  std::uint64_t next_seq_{0};
  std::uint32_t epoch_{0};
};

}  // namespace gdp::serve
