// Cooperative cancellation for long-running engine work.
//
// A CancelToken carries an optional wall-clock deadline (steady_clock, so
// system clock steps cannot fire or defer it) and a cooperative cancel flag.
// Work loops poll Expired() at coarse, value-preserving boundaries — orbit
// representatives, sampling chunks, arena sweep levels, build steps —
// never inside a numeric kernel, so a run that is not cancelled executes
// exactly the instruction stream of an un-tokened run and stays
// bit-identical (see "Deadlines, cancellation & degradation" in DESIGN.md).
//
// Expiry latches: once Expired() has returned true it returns true forever,
// so every boundary after the first hit unwinds promptly without re-reading
// the clock. Tokens are passed as `const CancelToken*`; nullptr (or a
// default-constructed token) means "never expires" and costs one branch per
// boundary.
//
// For deterministic tests, AtCheck(k) builds a token that expires on the
// k-th Expired() poll regardless of time — the fuzz battery in
// tests/cancel_test.cc uses it to cancel at chosen points of Build, the
// value sweep and the sampling loops.

#ifndef SHAPCQ_UTIL_CANCEL_H_
#define SHAPCQ_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace shapcq {

class CancelToken {
 public:
  /// The canonical error payload of a cancelled computation. Engine-layer
  /// entry points return it verbatim; the service layer recognizes it via
  /// IsCancelled() and maps it to the structured [E_DEADLINE] protocol
  /// error (or the on_deadline=approx degradation path).
  static constexpr const char* kCancelledMessage =
      "cancelled: deadline exceeded";

  /// Never expires (Enabled() is false; Expired() is one branch).
  CancelToken() = default;

  // Atomics make the token address-stable: share it by pointer.
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Expires `ms` milliseconds from now. ms = 0 is the "cancel immediately"
  /// edge: already expired at the first check.
  static CancelToken AfterMillis(uint64_t ms) {
    CancelToken token;
    token.ArmDeadlineMillis(ms);
    return token;
  }

  /// Arms a deadline `ms` from now on an existing (typically
  /// default-constructed) token. Call before sharing the token with workers
  /// — arming is not synchronized against concurrent Expired() polls. A
  /// deadline past the clock's range never fires.
  void ArmDeadlineMillis(uint64_t ms) {
    using Clock = std::chrono::steady_clock;
    enabled_ = true;
    const Clock::time_point now = Clock::now();
    const auto headroom =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::time_point::max() - now);
    has_deadline_ = ms < static_cast<uint64_t>(headroom.count());
    if (has_deadline_) deadline_ = now + std::chrono::milliseconds(ms);
  }

  /// Deterministic test mode: expires on the k-th Expired() call (1-based;
  /// k = 0 behaves like AfterMillis(0) — expired at the first check).
  static CancelToken AtCheck(uint64_t k) {
    CancelToken token;
    token.enabled_ = true;
    token.check_trigger_ = k == 0 ? 1 : k;
    return token;
  }

  /// Cooperative cancel: the next Expired() poll (from any thread) returns
  /// true. Safe to call concurrently with polls.
  void RequestCancel() {
    enabled_ = true;
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Whether this token can ever expire. Callers with a cheaper
  /// no-cancellation code path may branch on it once up front.
  bool Enabled() const { return enabled_; }

  /// Polls the token at a work boundary. Latches: true once, true forever.
  bool Expired() const {
    if (!enabled_) return false;
    if (latched_.load(std::memory_order_relaxed)) return true;
    bool expired = cancelled_.load(std::memory_order_relaxed);
    if (!expired && check_trigger_ != 0) {
      const uint64_t check =
          checks_.fetch_add(1, std::memory_order_relaxed) + 1;
      expired = check >= check_trigger_;
    }
    if (!expired && has_deadline_) {
      expired = std::chrono::steady_clock::now() >= deadline_;
    }
    if (expired) latched_.store(true, std::memory_order_relaxed);
    return expired;
  }

  /// Whether an engine-layer error string is the cancellation payload.
  static bool IsCancelled(const std::string& error) {
    return error.find(kCancelledMessage) != std::string::npos;
  }

 private:
  // The factories return by value; atomics forbid the implicit moves, so
  // spell out the member transfer (pre-sharing, single-threaded by design).
  CancelToken(CancelToken&& other) noexcept
      : enabled_(other.enabled_),
        has_deadline_(other.has_deadline_),
        deadline_(other.deadline_),
        check_trigger_(other.check_trigger_),
        checks_(other.checks_.load(std::memory_order_relaxed)),
        cancelled_(other.cancelled_.load(std::memory_order_relaxed)),
        latched_(other.latched_.load(std::memory_order_relaxed)) {}
  CancelToken& operator=(CancelToken&&) = delete;

  bool enabled_ = false;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  uint64_t check_trigger_ = 0;  // 0 = no deterministic trigger
  mutable std::atomic<uint64_t> checks_{0};
  std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> latched_{false};
};

}  // namespace shapcq

#endif  // SHAPCQ_UTIL_CANCEL_H_
