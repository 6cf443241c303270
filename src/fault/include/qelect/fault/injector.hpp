// FaultInjector: the runtime half of a FaultPlan.
//
// One injector lives for one run.  Every decision is a Bernoulli roll on
// one axis stream: roll k of axis a is `Philox4x32::block(fault_seed, a, k)
// < rate * 2^64`, so the draw sequence is a pure function of (plan, roll
// index) -- independent of the scheduler RNG, wall clock, and memory
// layout.  Replaying a recorded schedule therefore re-fires every fault at
// the same step, which is what makes faulty runs replayable.
//
// A roll is only taken when its rate is nonzero (zero-rate axes consume no
// counter positions), and auxiliary draws (which sign to erase, where a
// wormhole lands) come from the same axis stream, so axes stay mutually
// independent under any rate change on another axis.
//
// The injector also keeps the run's fault log: per-kind counters plus the
// first kMaxLoggedFaultEvents events in firing order.  The log is what the
// first-violation diagnosis (diagnosis.hpp) joins against a trace's
// invariant report, and what the replay-identity tests compare.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <vector>

#include "qelect/fault/plan.hpp"
#include "qelect/graph/graph.hpp"
#include "qelect/util/rng.hpp"

namespace qelect::fault {

/// Concrete fault manifestations (each belongs to exactly one axis).
enum class FaultKind : std::uint8_t {
  AgentCrash = 0,         // crash axis: agent halted at a compute step
  SignLost = 1,           // board axis: a sign vanished after an access
  SignDuplicated = 2,     // board axis: a sign was posted twice
  MessageLost = 3,        // message axis: sent agent never arrives
  MessageDuplicated = 4,  // message axis: second delivery, absorbed
  MessageDelayed = 5,     // message axis: a scheduled delivery stalled
  EdgeCut = 6,            // edge axis: traversal failed, agent stayed
  EdgeWormhole = 7,       // edge axis: traversal left the graph
};
inline constexpr std::size_t kFaultKindCount = 8;

/// Stable lowercase kind name ("agent-crash", "sign-lost", ...).
const char* kind_name(FaultKind kind);

/// The axis a kind belongs to.
FaultAxis axis_of(FaultKind kind);

/// One applied fault, in firing order.
struct FaultEvent {
  std::uint64_t step = 0;   // global step index when the fault fired
  std::uint32_t agent = 0;  // the agent whose step it perturbed
  FaultKind kind = FaultKind::AgentCrash;
  graph::NodeId node = 0;   // where it manifested (observer view)

  bool operator==(const FaultEvent&) const = default;
};

/// Aggregate view of a run's faults (cheap to embed in RunResult).
struct FaultSummary {
  std::uint64_t total = 0;
  std::uint64_t by_kind[kFaultKindCount] = {};
  bool any = false;           // at least one fault fired
  FaultEvent first;           // earliest fault, when `any`

  std::uint64_t by_axis(FaultAxis axis) const;
  bool operator==(const FaultSummary&) const = default;
};

/// Events kept verbatim per run; later faults still count in the summary.
inline constexpr std::size_t kMaxLoggedFaultEvents = 4096;

class FaultInjector {
 public:
  /// A null plan (or a plan with every rate zero) never fires and never
  /// draws; the simulators additionally compile such runs down the
  /// fault-free path, so this constructor is off the hot loop.
  explicit FaultInjector(const FaultPlan* plan) {
    if (plan != nullptr) plan_ = *plan;
    for (std::size_t i = 0; i < std::size(kRateFields); ++i) {
      thresholds_[i] = threshold(plan_.*kRateFields[i].rate);
    }
  }

  const FaultPlan& plan() const { return plan_; }

  // Decision rolls.  Each consumes exactly one word of its axis stream iff
  // the corresponding rate is nonzero.
  bool roll_crash() { return roll(FaultAxis::Crash, thresholds_[0]); }
  bool roll_sign_loss() { return roll(FaultAxis::Board, thresholds_[1]); }
  bool roll_sign_dup() { return roll(FaultAxis::Board, thresholds_[2]); }
  bool roll_msg_loss() { return roll(FaultAxis::Message, thresholds_[3]); }
  bool roll_msg_dup() { return roll(FaultAxis::Message, thresholds_[4]); }
  bool roll_msg_delay() { return roll(FaultAxis::Message, thresholds_[5]); }
  bool roll_edge_cut() { return roll(FaultAxis::Edge, thresholds_[6]); }
  bool roll_edge_wormhole() { return roll(FaultAxis::Edge, thresholds_[7]); }

  /// Auxiliary draw on an axis stream (index / target selection for a
  /// fault that already fired).  Feed through qelect::bounded_draw.
  std::uint64_t word(FaultAxis axis) {
    const auto a = static_cast<std::size_t>(axis);
    return Philox4x32::block(plan_.fault_seed, a, counters_[a]++);
  }

  /// Records one *applied* fault (rolled true and actually manifested).
  void record(std::uint64_t step, std::uint32_t agent, FaultKind kind,
              graph::NodeId node) {
    const FaultEvent event{step, agent, kind, node};
    ++summary_.total;
    ++summary_.by_kind[static_cast<std::size_t>(kind)];
    if (!summary_.any) {
      summary_.any = true;
      summary_.first = event;
    }
    if (events_.size() < kMaxLoggedFaultEvents) events_.push_back(event);
  }

  /// Applied faults in firing order (truncated at kMaxLoggedFaultEvents).
  const std::vector<FaultEvent>& events() const { return events_; }
  const FaultSummary& summary() const { return summary_; }

 private:
  static std::uint64_t threshold(double rate) {
    if (rate <= 0) return 0;
    if (rate >= 1) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(rate * 18446744073709551616.0);
  }

  bool roll(FaultAxis axis, std::uint64_t thr) {
    if (thr == 0) return false;
    // rate >= 1 must always fire: `word < ~0` misses only word == ~0, so
    // compare inclusively at saturation.
    const std::uint64_t w = word(axis);
    return thr == ~std::uint64_t{0} ? true : w < thr;
  }

  FaultPlan plan_{};
  std::uint64_t thresholds_[std::size(kRateFields)] = {};
  std::uint64_t counters_[kFaultAxisCount] = {};
  FaultSummary summary_;
  std::vector<FaultEvent> events_;
};

/// Process-wide fault telemetry, surfaced by qelectd's STATS opcode: how
/// many faulted runs executed and how many faults each axis injected.
/// The simulators flush one injector's totals here at end of run (a few
/// relaxed atomics per run, never per event).
struct FaultStats {
  std::atomic<std::uint64_t> faulted_runs{0};
  std::atomic<std::uint64_t> events_by_axis[kFaultAxisCount]{};
};
FaultStats& fault_stats();

/// Adds `summary` (one finished faulted run) to fault_stats().
void flush_fault_stats(const FaultSummary& summary);

}  // namespace qelect::fault
