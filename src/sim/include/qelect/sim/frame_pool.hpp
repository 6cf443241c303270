// FramePool: recycling allocator for coroutine frames.
//
// Every protocol subroutine (goto_node, barrier, searcher_round, ...) is a
// coroutine whose frame the compiler allocates on the heap -- HALO cannot
// elide the allocation through the scheduler's type-erased resume points.
// A single ELECT run creates and destroys dozens of frames, all of a small
// handful of sizes, so the frames are the last per-step heap churn left
// once actions and signs are inline.  FramePool gives them a thread-local,
// size-bucketed freelist: a destroyed frame's block is kept and handed to
// the next frame of the same size class, so steady-state runs allocate
// nothing.
//
// Concurrency: the freelists are thread_local, so allocation never
// synchronizes.  A frame freed on a different thread than it was allocated
// on (legal, e.g. a pooled World destroyed at campaign teardown) simply
// lands in the destroying thread's freelist -- blocks come from the global
// operator new, so ownership is transferable.  Each thread's cache is
// released back to operator delete at thread exit.
//
// Teardown: thread-local destructors run in reverse construction order,
// and a thread's pooled Worlds (campaign::WorldPool::local()) are built
// before its first frame builds the freelists, so those Worlds free their
// last run's frames after ~Lists.  ~Lists therefore sets a trivially
// destructible flag, and from then on the thread's frames go straight to
// operator delete instead of into a destroyed freelist.
#pragma once

#include <cstddef>
#include <new>

namespace qelect::sim {

class FramePool {
 public:
  static void* allocate(std::size_t size) {
    const std::size_t b = bucket(size);
    if (b >= kBuckets || torn_down_) return ::operator new(size);
    Lists& l = lists();
    if (void* p = l.head[b]) {
      l.head[b] = *static_cast<void**>(p);
      return p;
    }
    return ::operator new((b + 1) * kGranularity);
  }

  static void deallocate(void* p, std::size_t size) noexcept {
    const std::size_t b = bucket(size);
    if (b >= kBuckets || torn_down_) {
      ::operator delete(p);
      return;
    }
    Lists& l = lists();
    *static_cast<void**>(p) = l.head[b];
    l.head[b] = p;
  }

 private:
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kBuckets = 16;  // cache frames up to 1 KiB

  static std::size_t bucket(std::size_t size) {
    return (size + kGranularity - 1) / kGranularity - 1;
  }

  static inline thread_local bool torn_down_ = false;

  struct Lists {
    void* head[kBuckets] = {};
    ~Lists() {
      torn_down_ = true;
      for (void*& h : head) {
        while (h) {
          void* next = *static_cast<void**>(h);
          ::operator delete(h);
          h = next;
        }
      }
    }
  };

  static Lists& lists() {
    static thread_local Lists l;
    return l;
  }
};

}  // namespace qelect::sim
