// Coroutine plumbing for agent protocols.
//
// An agent protocol is a C++20 coroutine returning Behavior.  Each
// co_await on an AgentCtx primitive (move / board / wait_until / yield)
// suspends the agent with a *pending action*; the World executes the action
// atomically and resumes the agent.  The suspension points are exactly the
// model's atomicity boundaries: between two of an agent's actions, the
// scheduler may run any other agents (asynchrony), while a single board()
// call is indivisible (the fair mutual-exclusion assumption on whiteboards).
//
// Protocol subroutines (MAP-DRAWING, SYNCHRONIZE, AGENT-REDUCE, ...) are
// nested coroutines returning Task<T>.  A Task shares its root Behavior's
// action slot: wherever in the call chain an action is requested, it is
// parked in the root promise and the World resumes the deepest suspended
// coroutine (the `leaf`), so composition is free of trampolines.
//
// Exceptions take the same shortcut.  Whichever frame an exception escapes
// (a QELECT_CHECK tripping in a subroutine, say), it is stored on the root
// promise and control returns straight to the World, which rethrows it
// once.  The awaiting parents are never resumed: code after their co_await
// does not run, and a try/catch around a co_await in a protocol catches
// nothing.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>
#include <variant>

#include "qelect/graph/graph.hpp"
#include "qelect/sim/frame_pool.hpp"
#include "qelect/sim/inline_function.hpp"
#include "qelect/sim/whiteboard.hpp"
#include "qelect/util/assert.hpp"

namespace qelect::sim {

/// Pending atomic actions an agent can request from the runtime.  The
/// closures ride in InlineFunction so a typical protocol step allocates
/// nothing (see inline_function.hpp).
struct ActionMove {
  graph::PortId port;
};
struct ActionBoard {
  InlineFunction<void(Whiteboard&)> fn;
};
struct ActionWait {
  InlineFunction<bool(const Whiteboard&)> pred;
};
struct ActionYield {};

using PendingAction =
    std::variant<std::monostate, ActionMove, ActionBoard, ActionWait,
                 ActionYield>;

/// State shared by all coroutine frames of one agent: the root slot where
/// pending actions are parked, the deepest suspended frame to resume, and
/// the exception that escaped any of the agent's frames.
struct AgentPromiseBase {
  PendingAction pending;
  AgentPromiseBase* root = nullptr;     // the Behavior promise of this agent
  std::coroutine_handle<> leaf;         // meaningful on the root only
  std::exception_ptr exception;         // meaningful on the root only

  void unhandled_exception() { root->exception = std::current_exception(); }

  // All agent coroutine frames (Behavior and every nested Task) come from
  // the recycling FramePool instead of the raw heap.
  static void* operator new(std::size_t size) {
    return FramePool::allocate(size);
  }
  static void operator delete(void* p, std::size_t size) noexcept {
    FramePool::deallocate(p, size);
  }
};

/// The top-level coroutine type for agent protocols.
class Behavior {
 public:
  struct promise_type : AgentPromiseBase {
    promise_type() { root = this; }
    Behavior get_return_object() {
      return Behavior(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Behavior() = default;
  explicit Behavior(Handle handle) : handle_(handle) {}
  Behavior(Behavior&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Behavior& operator=(Behavior&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Behavior(const Behavior&) = delete;
  Behavior& operator=(const Behavior&) = delete;
  ~Behavior() { destroy(); }

  Handle handle() const { return handle_; }
  bool done() const { return !handle_ || handle_.done(); }

  /// The frame the World should resume next: the deepest suspended
  /// coroutine if a nested Task is active, the root otherwise.
  std::coroutine_handle<> resume_target() const {
    const auto leaf = handle_.promise().leaf;
    return leaf ? leaf : std::coroutine_handle<>(handle_);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_;
};

/// The awaiter all AgentCtx primitives return: parks the requested action in
/// the *root* promise, records the requesting frame as the leaf, and
/// suspends out to the World.
struct ActionAwaiter {
  PendingAction action;

  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  void await_suspend(std::coroutine_handle<Promise> h) {
    AgentPromiseBase* root = h.promise().root;
    QELECT_ASSERT(root != nullptr);
    root->pending = std::move(action);
    root->leaf = h;
  }
  void await_resume() const noexcept {}
};

namespace detail {

/// Transfers control back to the awaiting parent when a Task finishes, or
/// out to the World when an exception escaped it.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    if (h.promise().root->exception) return std::noop_coroutine();
    return h.promise().continuation;
  }
  void await_resume() const noexcept {}
};

struct TaskPromiseBase : AgentPromiseBase {
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
};

}  // namespace detail

/// A nested agent subroutine producing a T (or void).  Awaitable from a
/// Behavior or from another Task; must be co_awaited exactly once.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::TaskPromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> parent) {
    handle_.promise().root = parent.promise().root;
    handle_.promise().continuation = parent;
    return handle_;  // start (or resume into) the subroutine
  }
  T await_resume() {
    QELECT_ASSERT(handle_.promise().value.has_value());
    return std::move(*handle_.promise().value);
  }

 private:
  explicit Task(Handle handle) : handle_(handle) {}
  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::TaskPromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> parent) {
    handle_.promise().root = parent.promise().root;
    handle_.promise().continuation = parent;
    return handle_;
  }
  void await_resume() const noexcept {}

 private:
  explicit Task(Handle handle) : handle_(handle) {}
  Handle handle_;
};

}  // namespace qelect::sim
