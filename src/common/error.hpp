// Library exception types.  Per C++ Core Guidelines E.14, we throw
// purpose-designed types derived from std::exception hierarchy roots.
#pragma once

#include <stdexcept>
#include <string>

namespace gdp::common {

// Raised when an input file or stream cannot be read / parsed.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

// An IoError the caller may retry (EINTR/EAGAIN-class conditions): the
// operation failed without corrupting state and an identical re-issue can
// succeed.  The WAL append path retries these with capped backoff
// (common/retry.hpp); any other IoError is treated as permanent.
class TransientIoError : public IoError {
 public:
  explicit TransientIoError(const std::string& what) : IoError(what) {}
};

// Raised when the durable audit ledger cannot record a charge (WAL append or
// fsync failure after retries).  The serving layer FAILS CLOSED on this:
// no noise is released for a charge that is not durably accounted, and the
// service refuses further releases until reopened — read-only audit queries
// keep working.  Distinct from IoError so callers cannot confuse "an input
// file was unreadable" with "the accounting spine lost durability".
class DurabilityError : public std::runtime_error {
 public:
  explicit DurabilityError(const std::string& what)
      : std::runtime_error(what) {}
};

// Raised when a privacy budget would be exceeded by a requested operation.
class BudgetExhaustedError : public std::runtime_error {
 public:
  explicit BudgetExhaustedError(const std::string& what)
      : std::runtime_error(what) {}
};

// Raised when a BudgetSpec cannot calibrate the requested mechanisms (bad
// ε/δ, impossible phase split, calibration failure) — detected up front,
// before any noise is drawn.  Derives from std::invalid_argument so callers
// of the one-shot pipeline that predate the session API keep working.
class InvalidBudgetError : public std::invalid_argument {
 public:
  explicit InvalidBudgetError(const std::string& what)
      : std::invalid_argument(what) {}
};

// Raised when a GDPSNAP01 snapshot file fails structural validation: bad
// magic or endianness sentinel, a CRC mismatch, a section table whose
// offsets/lengths do not fit the file, or payload dimensions inconsistent
// with the declared graph/hierarchy/plan shape.  Every field of a snapshot
// header is treated as attacker-controlled (same stance as the release
// reader's bounds checks), so loaders throw this BEFORE any allocation or
// access sized from an unvalidated field.  Derives from IoError: to callers
// that do not care why, a corrupt snapshot is an unreadable input.
class SnapshotFormatError : public IoError {
 public:
  explicit SnapshotFormatError(const std::string& what) : IoError(what) {}
};

// Raised when a GDPNET02 wire frame or message fails validation: bad
// connection magic, a CRC mismatch, a declared length that exceeds the frame
// cap, or message fields inconsistent with the remaining payload.  Every
// byte off the socket is attacker-controlled (same stance as the snapshot
// loader), so decoders throw this BEFORE any allocation or access sized
// from an unvalidated field.  Derives from IoError: to callers that do not
// care why, a hostile peer is an unreadable input.
class NetProtocolError : public IoError {
 public:
  explicit NetProtocolError(const std::string& what) : IoError(what) {}
};

// Raised when a requested graph or hierarchy dimension exceeds the compiled
// 32-bit index width (NodeIndex / GroupId): node counts past 2^32-1, or a
// singleton level whose group ids would collide with the reserved kNoParent
// sentinel.  Thrown BEFORE any allocation sized from the oversized value —
// the alternative is silent truncation, which would serve statistics for a
// different graph than the caller asked for.  Derives from std::length_error
// (the standard's "size exceeds implementation capacity" category).
class CapacityError : public std::length_error {
 public:
  explicit CapacityError(const std::string& what) : std::length_error(what) {}
};

// Raised when an operation is invoked on an object in the wrong state
// (e.g. querying a hierarchy level that was never built).
class StateError : public std::logic_error {
 public:
  explicit StateError(const std::string& what) : std::logic_error(what) {}
};

// Raised when an AccessPolicy cannot map a privilege tier to a view: the
// tier is outside the policy, or the policy references a hierarchy level the
// release does not contain.  Derives from std::out_of_range so callers that
// predate the typed error keep working.
class AccessPolicyError : public std::out_of_range {
 public:
  explicit AccessPolicyError(const std::string& what)
      : std::out_of_range(what) {}
};

// Raised by the serving layer when a name does not resolve: an unregistered
// dataset, an unknown tenant, or a (tenant, dataset) pair that has never
// been served.  A configuration error, distinct from the expected
// budget-denial path (which returns a value, not an exception).
class NotFoundError : public std::runtime_error {
 public:
  explicit NotFoundError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace gdp::common
