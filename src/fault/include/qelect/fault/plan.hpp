// FaultPlan: the declarative description of which model assumptions a run
// is allowed to break, and how often.
//
// The paper proves ELECT's guarantees for *reliable* agents on *static*
// graphs with *lossless* whiteboards; every field below relaxes exactly
// one of those assumptions, and the axes are orthogonal: each axis draws
// from its own Philox4x32 stream keyed (fault_seed, axis, event index), so
// enabling or re-rating one axis never perturbs another axis's draws, and
// any faulty run is a pure function of (plan, schedule) -- bit-reproducible
// and replayable through SchedulerPolicy::Replay (see docs/FAULTS.md).
//
//   * Crash axis   -- crash-stop agents: an agent may halt forever at any
//                     of its scheduled compute steps (a message lost in
//                     transit, a crash of the carried agent, belongs to
//                     the message axis).
//   * Board axis   -- whiteboard corruption: after an atomic access, a
//                     uniformly random sign on that board may be lost or
//                     duplicated.
//   * Message axis -- link faults of the Figure 1 message-passing reading
//                     (sim::RunConfig::message_passing, which a live
//                     message axis requires): loss (the sent agent never
//                     arrives), duplication (a second copy is delivered
//                     and absorbed), delay (a scheduled delivery stalls,
//                     realizing adversarial reordering).
//   * Edge axis    -- dynamic topology: a traversal may fail because the
//                     edge is transiently down (cut: the agent stays put,
//                     unaware), or traverse a transient edge that is not
//                     in G (wormhole: the agent lands at a uniformly
//                     random node).
//
// Rates are per-opportunity Bernoulli probabilities in [0, 1].  A plan
// with every rate zero is inert: attaching it to a RunConfig runs the
// byte-identical fault-free engine (the golden-sim digests gate this).
#pragma once

#include <cstddef>
#include <cstdint>

namespace qelect::fault {

/// The four independently seeded fault axes.  Values are stable: they are
/// the Philox stream ids and appear in campaign metrics.
enum class FaultAxis : std::uint8_t {
  Crash = 0,
  Board = 1,
  Message = 2,
  Edge = 3,
};
inline constexpr std::size_t kFaultAxisCount = 4;

/// Stable lowercase axis name ("crash", "board", "message", "edge").
const char* axis_name(FaultAxis axis);

struct FaultPlan {
  /// Base key of every axis stream.  Two runs with equal plans and equal
  /// schedules are identical; campaigns derive a per-task seed from
  /// (fault_seed, task key) so tasks draw independent streams.
  std::uint64_t fault_seed = 0;

  // Crash axis: probability that an agent crash-stops at a scheduled
  // compute step (drawn once per executed step of each agent).
  double crash_rate = 0;

  // Board axis: probabilities, drawn after each atomic board access, that
  // a uniformly random sign on that board is erased / duplicated.
  double sign_loss_rate = 0;
  double sign_dup_rate = 0;

  // Message axis (message-passing runs only): drawn at send (loss), at
  // delivery (duplication), and at every scheduled delivery attempt
  // (delay).
  double msg_loss_rate = 0;
  double msg_dup_rate = 0;
  double msg_delay_rate = 0;

  // Edge axis: drawn at every traversal attempt.  Cut wins over wormhole
  // when both fire.
  double edge_cut_rate = 0;
  double edge_wormhole_rate = 0;

  bool crash_enabled() const { return crash_rate > 0; }
  bool board_enabled() const { return sign_loss_rate > 0 || sign_dup_rate > 0; }
  bool message_enabled() const {
    return msg_loss_rate > 0 || msg_dup_rate > 0 || msg_delay_rate > 0;
  }
  bool edge_enabled() const {
    return edge_cut_rate > 0 || edge_wormhole_rate > 0;
  }

  /// True when any axis can fire.  The simulator dispatches on this: a
  /// disabled plan takes the exact fault-free code path.
  bool enabled() const {
    return crash_enabled() || board_enabled() || message_enabled() ||
           edge_enabled();
  }

  bool operator==(const FaultPlan&) const = default;
};

/// A FaultPlan rate and its key in a campaign spec's fault point and in a
/// trace's meta line.
struct RateField {
  const char* key;
  double FaultPlan::*rate;
};

/// Every rate of FaultPlan, in declaration order.
inline constexpr RateField kRateFields[] = {
    {"crash", &FaultPlan::crash_rate},
    {"sign_loss", &FaultPlan::sign_loss_rate},
    {"sign_dup", &FaultPlan::sign_dup_rate},
    {"msg_loss", &FaultPlan::msg_loss_rate},
    {"msg_dup", &FaultPlan::msg_dup_rate},
    {"msg_delay", &FaultPlan::msg_delay_rate},
    {"edge_cut", &FaultPlan::edge_cut_rate},
    {"edge_wormhole", &FaultPlan::edge_wormhole_rate}};

}  // namespace qelect::fault
