#ifndef SRP_FAIL_CANCELLATION_H_
#define SRP_FAIL_CANCELLATION_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "util/status.h"

namespace srp {

/// Copyable handle to a shared cancellation flag. One side (a request
/// handler, a signal handler, a watchdog thread) keeps a copy and calls
/// RequestCancel(); the long-running algorithm polls cancelled() through the
/// RunContext it was given. Cancellation is cooperative and one-way: once
/// requested it cannot be cleared — make a fresh token for the next run.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void RequestCancel() const { state_->store(true, std::memory_order_release); }
  bool cancelled() const { return state_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Why a RunContext reports interruption.
enum class InterruptKind {
  kNone = 0,
  kCancelled,         ///< the CancellationToken was triggered
  kDeadlineExceeded,  ///< the monotonic deadline passed
  kInjectedFault,     ///< a FaultInjector fault fired at a worker poll point
};

/// Execution budget for one long-running operation: a cancellation token, an
/// optional monotonic deadline, and the degradation policy. Threaded by
/// pointer through Repartitioner::Run, the homogeneous variant, the grid
/// builder, the baselines, the streaming/ST extensions and
/// ParallelFor/ParallelReduce; `nullptr` everywhere means "unbounded".
///
/// Interruption is sticky: once Interrupted() observes a cancel, a passed
/// deadline or an injected fault, every later poll returns true and
/// InterruptStatus() reports the first observed cause. All polling methods
/// are safe to call concurrently from pool workers.
///
/// Degradation contract (DESIGN.md §8): with best_effort() set, algorithms
/// that maintain a feasible best-so-far result (core Repartitioner,
/// homogeneous variant, ST extension) return it, marked as interrupted
/// (StopReason::kInterrupted; HomogeneousResult::interrupted), instead of an
/// error when cancelled or past deadline. Injected faults are errors, never
/// degraded. Algorithms without a feasible partial result (baselines, grid
/// builder, CSV reader) always return the interrupt Status.
class RunContext {
 public:
  /// ~31.7 years, the CLI's 1e12 ms bound: far inside the int64
  /// nanosecond range of steady_clock, and farther than any run.
  static constexpr double kMaxDeadlineSeconds = 1e9;

  RunContext() = default;

  // Not copyable: pass by pointer; the context outlives the run it bounds.
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  RunContext& set_token(CancellationToken token) {
    token_ = std::move(token);
    return *this;
  }
  RunContext& set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
    return *this;
  }
  /// Saturates instead of overflowing the int64 nanosecond clock: NaN and
  /// anything past kMaxDeadlineSeconds mean the clock's last tick, and
  /// anything below -kMaxDeadlineSeconds is clamped to it (already passed).
  RunContext& set_deadline_after_seconds(double seconds) {
    using Clock = std::chrono::steady_clock;
    if (!(seconds < kMaxDeadlineSeconds)) {
      return set_deadline(Clock::time_point::max());
    }
    seconds = std::max(seconds, -kMaxDeadlineSeconds);
    return set_deadline(Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds)));
  }
  RunContext& set_best_effort(bool best_effort) {
    best_effort_ = best_effort;
    return *this;
  }

  const CancellationToken& token() const { return token_; }
  bool best_effort() const { return best_effort_; }
  bool has_deadline() const { return has_deadline_; }

  /// Seconds until the deadline (negative once passed); +infinity when no
  /// deadline is set.
  double RemainingSeconds() const;

  /// Cooperative poll: true once the run should stop (sticky). Cheap enough
  /// for chunk boundaries — a relaxed load, plus one token load and one
  /// steady-clock read until the first interruption is observed.
  bool Interrupted() const;

  /// Worker-side poll: Interrupted(), plus the "parallel.task" fault point —
  /// an armed fault there marks the context interrupted with kInjectedFault
  /// so the error surfaces through the orchestrator's next status check.
  bool PollWorker() const;

  InterruptKind interrupt_kind() const {
    return static_cast<InterruptKind>(state_.load(std::memory_order_acquire));
  }

  /// OK while not interrupted; Cancelled / DeadlineExceeded / Internal
  /// (injected fault) after.
  Status InterruptStatus() const;

 private:
  CancellationToken token_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool best_effort_ = false;
  /// First observed InterruptKind, as int for atomic storage.
  mutable std::atomic<int> state_{0};
};

/// One poll of the degradation contract for drivers that keep a feasible
/// best-so-far result: OK when `ctx` is not interrupted; OK with `*degrade`
/// set when a best-effort ctx was cancelled or hit its deadline; the
/// interrupt Status otherwise (strict mode, or an injected fault, which is
/// never degraded).
inline Status CheckInterrupt(const RunContext* ctx, bool* degrade) {
  if (ctx == nullptr || !ctx->Interrupted()) return Status::OK();
  if (ctx->best_effort() &&
      ctx->interrupt_kind() != InterruptKind::kInjectedFault) {
    *degrade = true;
    return Status::OK();
  }
  return ctx->InterruptStatus();
}

/// Propagates the interrupt Status from a nullable RunContext — the standard
/// poll for call sites without a best-so-far result to degrade to.
#define SRP_RETURN_IF_INTERRUPTED(ctx)                        \
  do {                                                        \
    const ::srp::RunContext* srp_ctx_ = (ctx);                \
    if (srp_ctx_ != nullptr && srp_ctx_->Interrupted()) {     \
      return srp_ctx_->InterruptStatus();                     \
    }                                                         \
  } while (0)

}  // namespace srp

#endif  // SRP_FAIL_CANCELLATION_H_
