#include "serve/audit_wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/le_codec.hpp"

namespace gdp::serve {

namespace {

constexpr char kMagic[] = "GDPWAL01";
constexpr std::size_t kMagicSize = 8;
using gdp::common::kFrameHeaderSize;

std::string ErrnoMessage(const char* op, int err) {
  return std::string(op) + " failed: " + std::strerror(err);
}

// Every decode failure inside a CRC-valid frame is writer skew, not a torn
// write, so the cursor throws IoError under this prefix.
constexpr std::string_view kUndecodable =
    "AuditWal: CRC-valid GDPWAL01 record is undecodable (version skew or "
    "writer bug)";

}  // namespace

// --- FileStorage -----------------------------------------------------------

FileStorage::FileStorage(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw gdp::common::IoError("FileStorage: cannot open '" + path +
                               "': " + std::strerror(errno));
  }
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw gdp::common::IoError("FileStorage: " + ErrnoMessage("lseek", err));
  }
  size_ = static_cast<std::uint64_t>(end);
}

FileStorage::~FileStorage() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void FileStorage::Append(std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::pwrite(fd_, bytes.data() + written, bytes.size() - written,
                 static_cast<off_t>(size_ + written));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      // A prefix may be on disk already; the WAL truncates back before any
      // retry, so just report.  EAGAIN-class conditions are retryable.
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        throw gdp::common::TransientIoError(
            "FileStorage: " + ErrnoMessage("pwrite", errno));
      }
      throw gdp::common::IoError("FileStorage: " +
                                 ErrnoMessage("pwrite", errno));
    }
    written += static_cast<std::size_t>(n);
  }
  size_ += bytes.size();
}

void FileStorage::Sync() {
  while (::fsync(fd_) < 0) {
    if (errno == EINTR) {
      continue;
    }
    // After a failed fsync the kernel may have dropped the dirty pages;
    // treating it as permanent (fail closed) is the only safe reading.
    throw gdp::common::IoError("FileStorage: " + ErrnoMessage("fsync", errno));
  }
}

std::string FileStorage::ReadAll() const {
  std::string out(size_, '\0');
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + got, out.size() - got,
                              static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw gdp::common::IoError("FileStorage: " +
                                 ErrnoMessage("pread", errno));
    }
    if (n == 0) {
      out.resize(got);  // concurrent truncate; honour what is there
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  return out;
}

void FileStorage::Truncate(std::uint64_t size) {
  if (size >= size_) {
    return;
  }
  while (::ftruncate(fd_, static_cast<off_t>(size)) < 0) {
    if (errno == EINTR) {
      continue;
    }
    throw gdp::common::IoError("FileStorage: " +
                               ErrnoMessage("ftruncate", errno));
  }
  size_ = size;
}

std::uint64_t FileStorage::size() const { return size_; }

// --- FaultyStorage ---------------------------------------------------------

bool FaultyStorage::TakeFault() {
  const int op = op_++;
  return op >= fail_at_op_ && op < fail_at_op_ + fail_ops_;
}

void FaultyStorage::Append(std::string_view bytes) {
  if (!TakeFault()) {
    inner_->Append(bytes);
    return;
  }
  switch (mode_) {
    case FaultMode::kTransientError:
      throw gdp::common::TransientIoError("FaultyStorage: injected transient");
    case FaultMode::kPermanentError:
      throw gdp::common::IoError("FaultyStorage: injected permanent");
    case FaultMode::kShortWriteThenError:
      inner_->Append(bytes.substr(0, bytes.size() / 2));
      throw gdp::common::IoError("FaultyStorage: injected short write");
    case FaultMode::kCrashShortWrite:
      inner_->Append(bytes.substr(0, bytes.size() / 2));
      throw SimulatedCrash("FaultyStorage: simulated crash mid-append");
  }
}

void FaultyStorage::Sync() {
  if (!TakeFault()) {
    inner_->Sync();
    return;
  }
  switch (mode_) {
    case FaultMode::kTransientError:
      throw gdp::common::TransientIoError("FaultyStorage: injected transient");
    case FaultMode::kPermanentError:
    case FaultMode::kShortWriteThenError:
      throw gdp::common::IoError("FaultyStorage: injected fsync failure");
    case FaultMode::kCrashShortWrite:
      throw SimulatedCrash("FaultyStorage: simulated crash at fsync");
  }
}

// --- records ---------------------------------------------------------------

const char* WalRecordKindName(WalRecordKind kind) noexcept {
  switch (kind) {
    case WalRecordKind::kTenantOpen:
      return "tenant_open";
    case WalRecordKind::kCharge:
      return "charge";
    case WalRecordKind::kDatasetRetired:
      return "dataset_retired";
  }
  return "unknown";
}

WalRecord WalRecord::TenantOpen(std::string tenant, std::string dataset,
                                std::string fingerprint, double epsilon_cap,
                                double delta_cap,
                                gdp::dp::AccountingPolicy accounting,
                                const gdp::dp::MechanismEvent& phase1_event,
                                double accounted_epsilon,
                                double accounted_delta, std::string label) {
  WalRecord r;
  r.kind = WalRecordKind::kTenantOpen;
  r.tenant = std::move(tenant);
  r.dataset = std::move(dataset);
  r.fingerprint = std::move(fingerprint);
  r.epsilon_cap = epsilon_cap;
  r.delta_cap = delta_cap;
  r.accounting = accounting;
  r.event = phase1_event;
  r.accounted_epsilon = accounted_epsilon;
  r.accounted_delta = accounted_delta;
  r.label = std::move(label);
  return r;
}

WalRecord WalRecord::Charge(std::string tenant, std::string dataset,
                            const gdp::dp::MechanismEvent& event,
                            double accounted_epsilon, double accounted_delta,
                            std::string label) {
  WalRecord r;
  r.kind = WalRecordKind::kCharge;
  r.tenant = std::move(tenant);
  r.dataset = std::move(dataset);
  r.event = event;
  r.accounted_epsilon = accounted_epsilon;
  r.accounted_delta = accounted_delta;
  r.label = std::move(label);
  return r;
}

WalRecord WalRecord::DatasetRetired(std::string dataset, std::string reason) {
  WalRecord r;
  r.kind = WalRecordKind::kDatasetRetired;
  r.dataset = std::move(dataset);
  r.label = std::move(reason);
  return r;
}

std::string EncodeWalRecord(const WalRecord& record) {
  gdp::common::LeWriter out;
  out.Reserve(96 + record.tenant.size() + record.dataset.size() +
              record.fingerprint.size() + record.label.size());
  out.U8(static_cast<std::uint8_t>(record.kind));
  out.U64(record.seq);
  out.U32(record.epoch);
  out.Str(record.tenant);
  out.Str(record.dataset);
  out.Str(record.fingerprint);
  out.F64(record.epsilon_cap);
  out.F64(record.delta_cap);
  out.U8(static_cast<std::uint8_t>(record.accounting));
  out.U8(static_cast<std::uint8_t>(record.event.kind));
  out.F64(record.event.epsilon);
  out.F64(record.event.delta);
  out.F64(record.event.noise_multiplier);
  out.U32(static_cast<std::uint32_t>(record.event.count));
  out.U32(static_cast<std::uint32_t>(record.event.parallel_width));
  out.F64(record.accounted_epsilon);
  out.F64(record.accounted_delta);
  out.Str(record.label);
  return std::move(out).Take();
}

WalRecord DecodeWalRecord(std::string_view payload) {
  gdp::common::LeReader<gdp::common::IoError> in(payload, kUndecodable);
  WalRecord r;
  const std::uint8_t kind = in.U8();
  if (kind < 1 || kind > 3) {
    throw gdp::common::IoError("AuditWal: unknown record kind " +
                               std::to_string(kind));
  }
  r.kind = static_cast<WalRecordKind>(kind);
  r.seq = in.U64();
  r.epoch = in.U32();
  r.tenant = in.Str();
  r.dataset = in.Str();
  r.fingerprint = in.Str();
  r.epsilon_cap = in.F64();
  r.delta_cap = in.F64();
  const std::uint8_t accounting = in.U8();
  if (accounting > 2) {
    throw gdp::common::IoError("AuditWal: unknown accounting policy " +
                               std::to_string(accounting));
  }
  r.accounting = static_cast<gdp::dp::AccountingPolicy>(accounting);
  const std::uint8_t event_kind = in.U8();
  if (event_kind > 2) {
    throw gdp::common::IoError("AuditWal: unknown mechanism kind " +
                               std::to_string(event_kind));
  }
  r.event.kind = static_cast<gdp::dp::MechanismEvent::Kind>(event_kind);
  r.event.epsilon = in.F64();
  r.event.delta = in.F64();
  r.event.noise_multiplier = in.F64();
  r.event.count = static_cast<int>(in.U32());
  r.event.parallel_width = static_cast<int>(in.U32());
  r.accounted_epsilon = in.F64();
  r.accounted_delta = in.F64();
  r.label = in.Str();
  in.ExpectEnd("record");
  return r;
}

// --- replay ----------------------------------------------------------------

WalReplayResult AuditWal::Replay(std::string_view bytes) {
  WalReplayResult result;
  if (bytes.empty()) {
    return result;
  }
  if (bytes.size() < kMagicSize) {
    // A crash during the very first header write: torn, not foreign.
    result.truncated_bytes = bytes.size();
    return result;
  }
  if (bytes.substr(0, kMagicSize) != std::string_view(kMagic, kMagicSize)) {
    throw gdp::common::IoError(
        "AuditWal: bad magic — not a GDPWAL01 audit log");
  }
  std::size_t pos = kMagicSize;
  result.valid_bytes = pos;
  bool have_seq = false;
  std::uint64_t last_seq = 0;
  std::uint32_t max_epoch = 0;
  while (pos + kFrameHeaderSize <= bytes.size()) {
    const auto len = gdp::common::LoadLe<std::uint32_t>(bytes.data() + pos);
    if (len == 0) {
      // The writer never frames an empty payload, but a zero-filled tail
      // (a crash after the file grew, before its data landed) reads as
      // length 0 with the empty payload's CRC, 0: torn, not a record.
      break;
    }
    if (pos + kFrameHeaderSize + len > bytes.size()) {
      break;  // length runs past EOF: torn final frame
    }
    const std::string_view payload =
        bytes.substr(pos + kFrameHeaderSize, len);
    if (gdp::common::Crc32(payload) !=
        gdp::common::LoadLe<std::uint32_t>(bytes.data() + pos + 4)) {
      break;  // torn or corrupt: trust nothing from here on
    }
    WalRecord record = DecodeWalRecord(payload);  // IoError on skew
    if (have_seq && record.seq != last_seq + 1) {
      result.sequence_gap = true;
    }
    last_seq = record.seq;
    have_seq = true;
    max_epoch = std::max(max_epoch, record.epoch);
    result.records.push_back(std::move(record));
    pos += kFrameHeaderSize + len;
    result.valid_bytes = pos;
    result.record_end_offsets.push_back(pos);
  }
  result.truncated_bytes = bytes.size() - result.valid_bytes;
  result.next_seq = have_seq ? last_seq + 1 : 0;
  result.next_epoch = result.records.empty() ? 0 : max_epoch + 1;
  return result;
}

// --- AuditWal --------------------------------------------------------------

AuditWal::AuditWal(std::unique_ptr<Storage> storage,
                   gdp::common::BackoffOptions retry,
                   std::function<void(std::chrono::milliseconds)> sleep)
    : storage_(std::move(storage)),
      retry_(retry),
      sleep_(sleep ? std::move(sleep)
                   : [](std::chrono::milliseconds d) {
                       std::this_thread::sleep_for(d);
                     }) {
  if (storage_ == nullptr) {
    throw std::invalid_argument("AuditWal: null storage");
  }
  recovered_ = Replay(storage_->ReadAll());
  if (recovered_.truncated_bytes > 0) {
    // Repair on open: drop the torn tail so later appends start at a frame
    // boundary and a second replay of this file sees no corruption.
    storage_->Truncate(recovered_.valid_bytes);
  }
  next_seq_ = recovered_.next_seq;
  epoch_ = recovered_.next_epoch;
  if (storage_->size() == 0) {
    // Fresh log: the magic must be durable before any record claims to be.
    storage_->Append(std::string_view(kMagic, kMagicSize));
    storage_->Sync();
  }
}

std::uint64_t AuditWal::next_seq() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

bool AuditWal::TryAppendOnce(std::string_view frame, std::uint64_t base) {
  try {
    if (storage_->size() > base) {
      // A previous attempt left a partial frame; a replay would already
      // discard it, but the retry must not stack a second copy after it.
      storage_->Truncate(base);
    }
    storage_->Append(frame);
    storage_->Sync();
    return true;
  } catch (const gdp::common::TransientIoError&) {
    return false;  // retryable; anything else propagates
  }
}

std::uint64_t AuditWal::Append(WalRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  record.seq = next_seq_;
  record.epoch = epoch_;
  const std::string frame = gdp::common::SealFrame(EncodeWalRecord(record));

  const std::uint64_t base = storage_->size();
  bool ok = false;
  try {
    ok = gdp::common::RetryWithBackoff(
        retry_, [&] { return TryAppendOnce(frame, base); }, sleep_);
  } catch (const gdp::common::IoError& e) {
    throw gdp::common::DurabilityError(
        std::string("AuditWal: append failed permanently (") + e.what() +
        "); charge seq " + std::to_string(record.seq) + " is NOT durable");
  }
  if (!ok) {
    throw gdp::common::DurabilityError(
        "AuditWal: append failed after " + std::to_string(retry_.max_attempts) +
        " attempts; charge seq " + std::to_string(record.seq) +
        " is NOT durable");
  }
  return next_seq_++;
}

}  // namespace gdp::serve
