// Cooperative cancellation with optional deadlines.
//
// The campaign engine runs untrusted-duration tasks on shared worker
// shards; a running thread cannot be preempted safely, so timeouts are
// cooperative: each task attempt receives a CancelToken carrying the
// attempt's deadline, long-running workloads poll it between heavy stages,
// and the engine classifies an attempt that trips the token as `timeout`.
// A CancelSource can also cancel explicitly (e.g. --stop-after reached),
// which makes the same token double as the worker pool's drain signal.
//
// Tokens are value types over a shared state, safe to copy across threads;
// a default-constructed token never cancels, so accepting one is free for
// callers that do not care about timeouts.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace qelect {

/// Thrown by CancelToken::throw_if_cancelled(); the campaign engine maps it
/// to the `timeout` outcome instead of `failed`.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
struct CancelState {
  std::atomic<bool> flag{false};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
};
}  // namespace detail

/// Read side: polled by workers.  Copyable, thread-safe.
class CancelToken {
 public:
  /// A token that never cancels.
  CancelToken() = default;

  /// True once the source cancelled or the deadline passed.
  bool cancelled() const {
    if (!state_) return false;
    if (state_->flag.load(std::memory_order_relaxed)) return true;
    return state_->has_deadline &&
           std::chrono::steady_clock::now() >= state_->deadline;
  }

  void throw_if_cancelled() const {
    if (cancelled()) throw Cancelled("task cancelled (deadline or stop)");
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::CancelState> state_;
};

/// Write side: owned by the orchestrator.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  /// A source whose tokens expire `seconds` from now (<= 0: no deadline).
  static CancelSource with_timeout(double seconds) {
    CancelSource src;
    if (seconds > 0) {
      src.state_->has_deadline = true;
      src.state_->deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
    }
    return src;
  }

  void cancel() { state_->flag.store(true, std::memory_order_relaxed); }

  CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace qelect
