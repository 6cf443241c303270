// The simulation arena: anonymous network + whiteboards + scheduler.
//
// World hosts one run of a protocol on (G, p), in the mobile-agent reading
// or, with RunConfig::message_passing, in Figure 1's message-passing one.
// Faithfulness to Section 1.2:
//
//   * nodes are anonymous -- AgentCtx never exposes a node identity; an
//     agent observes only its color, the local degree, the port it entered
//     through, and the local whiteboard;
//   * every home-base is pre-marked with a home-base sign of the owner's
//     color (and, in quantitative worlds, the owner's integer label);
//   * agents are asynchronous: every co_await boundary is a point where the
//     scheduler may run other agents, and the scheduling policy (seeded
//     random, round-robin, or lockstep) is the adversary;
//   * whiteboard access is atomic (fair mutual exclusion).
//
// The runtime counts moves and whiteboard accesses per agent, which is how
// the benches check Theorem 3.1's O(r |E|) bound.  Deeper observability is
// the trace subsystem's job: attach a qelect::trace::TraceSink through
// RunConfig::sink and every executed step is streamed out (see
// docs/TRACING.md), including enough to re-execute the run step-for-step
// via SchedulerPolicy::Replay.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "qelect/fault/injector.hpp"
#include "qelect/graph/graph.hpp"
#include "qelect/graph/placement.hpp"
#include "qelect/sim/behavior.hpp"
#include "qelect/sim/color.hpp"
#include "qelect/sim/whiteboard.hpp"
#include "qelect/trace/event.hpp"

namespace qelect::trace {
class TraceSink;
struct Schedule;
}  // namespace qelect::trace

namespace qelect::sim {

/// Sign tag reserved by the runtime for home-base marks; protocol-defined
/// tags must be >= kFirstProtocolTag.
inline constexpr std::uint32_t kTagHomeBase = 1;
inline constexpr std::uint32_t kFirstProtocolTag = 100;

/// Terminal states an agent can declare (or, under fault injection, have
/// inflicted on it).
enum class AgentStatus {
  Running,           // not yet terminated (or protocol ended silently)
  Leader,            // declared itself elected
  Defeated,          // knows the leader's color
  FailureDetected,   // knows election is unsolvable on this input
  Crashed,           // crash-stopped by the fault injector; never set by
                     // the fault-free engine
};

/// What one agent can see and do.  Handed by reference to the protocol
/// coroutine; owned by the World.
class World;
class AgentCtx {
 public:
  /// The agent's own color (its only label in the qualitative world).
  const Color& self() const { return color_; }

  /// Degree of the node the agent currently occupies.
  std::size_t degree() const;

  /// The port through which the agent entered the current node; nullopt
  /// before the first move.
  std::optional<graph::PortId> entry_port() const { return entry_port_; }

  /// In quantitative worlds: the agent's comparable integer label.
  /// nullopt in the qualitative world.
  std::optional<std::int64_t> quantitative_id() const { return quant_id_; }

  /// Atomic actions (each one co_await = one step):
  ActionAwaiter move(graph::PortId port);
  /// Atomic read-modify-write of the local whiteboard under mutex.  The
  /// closure is stored inline in the pending action (no allocation) for
  /// captures up to InlineFunction's buffer size.
  template <typename Fn>
  ActionAwaiter board(Fn&& fn) {
    return ActionAwaiter{ActionBoard{
        InlineFunction<void(Whiteboard&)>(std::forward<Fn>(fn))}};
  }
  /// Suspends until the local whiteboard satisfies `pred`.  The predicate
  /// must be a pure function of the board: the runtime re-evaluates it
  /// only when the board mutates, not on every step.
  template <typename Pred>
  ActionAwaiter wait_until(Pred&& pred) {
    return ActionAwaiter{ActionWait{
        InlineFunction<bool(const Whiteboard&)>(std::forward<Pred>(pred))}};
  }
  /// Gives the scheduler an interleaving point without acting.
  ActionAwaiter yield();

  /// Terminal declarations (call once, then co_return).
  void declare_leader();
  void declare_defeated(const Color& leader);
  void declare_failure_detected();

  AgentStatus status() const { return status_; }
  const Color& leader_color() const { return leader_color_; }

 private:
  friend class World;
  Color color_;
  std::optional<std::int64_t> quant_id_;
  graph::NodeId position_ = 0;
  std::optional<graph::PortId> entry_port_;
  AgentStatus status_ = AgentStatus::Running;
  Color leader_color_;
  const graph::Graph* graph_ = nullptr;
  std::size_t moves_ = 0;
  std::size_t board_accesses_ = 0;
};

/// A protocol: a coroutine factory invoked once per agent.
using Protocol = std::function<Behavior(AgentCtx&)>;

/// Scheduling policies (the adversary).
enum class SchedulerPolicy {
  Random,      // uniformly random enabled agent each step (seeded)
  RoundRobin,  // cyclic over enabled agents
  Lockstep,    // synchronous rounds: every enabled agent steps once per round
  Replay,      // consume a recorded schedule (RunConfig::replay), exactly
  Counter,     // counter-based random (Philox4x32 keyed on (seed, replica));
               // draw i is a pure function of the key, so any replica's
               // schedule is reconstructible without replaying the stream
};

/// Stable lowercase name ("random", "round-robin", "lockstep", "replay",
/// "counter").
const char* policy_name(SchedulerPolicy policy);

/// Events are the trace subsystem's record type; the alias keeps existing
/// observer code compiling.
using TraceEvent = trace::TraceEvent;

struct RunConfig {
  SchedulerPolicy policy = SchedulerPolicy::Random;
  std::uint64_t seed = 1;
  /// Stream id for SchedulerPolicy::Counter: replica `r` of a batch run
  /// draws from the Philox stream keyed (seed, r), and a scalar run with
  /// the same (seed, replica) reproduces that exact schedule.  Ignored by
  /// the other policies.
  std::uint64_t replica = 0;
  std::size_t max_steps = 20'000'000;

  /// Streaming observability: when set, the runtime reports run metadata,
  /// one event per executed step, and a summary to this sink.  Null (the
  /// default) costs one branch per step and never allocates.
  trace::TraceSink* sink = nullptr;

  /// Required by SchedulerPolicy::Replay: the exact agent-pick sequence to
  /// re-execute (e.g. recorded by trace::ScheduleRecorder or loaded from a
  /// JSONL trace).  The run aborts with CheckError if the schedule ever
  /// names an agent that is not currently enabled (divergence).
  const trace::Schedule* replay = nullptr;

  /// Fault injection (src/fault): when set and any axis has a nonzero
  /// rate, the run executes with injection hooks live.  Null -- or a plan
  /// with every rate zero -- selects the exact fault-free instantiation of
  /// the hot loop, so attaching a disabled plan is byte-identical to
  /// attaching none.  The plan is read for the duration of the run.
  const fault::FaultPlan* faults = nullptr;
  /// Free-text instance label copied into trace::RunMetadata::label.
  std::string trace_label;

  /// The Figure 1 transformation: mobile agents as messages in an
  /// anonymous processor network.
  ///
  /// Theorem 2.1's proof converts any mobile-agent protocol into a
  /// distributed protocol for the same anonymous network: a processor's
  /// memory is its whiteboard, a *message* is an agent (program + memory),
  /// and "the agent moves through port i" becomes "send the message
  /// through port i".  When set, the run executes exactly this reading:
  ///
  ///   * an agent is either AT a processor (computing against the local
  ///     whiteboard) or IN TRANSIT on a link (a message);
  ///   * a move suspends the agent into the link (a Send event); a
  ///     separate, adversarially scheduled *delivery* step (Deliver) makes
  ///     it arrive -- so unlike the mobile reading, where a move is one
  ///     atomic step, transit has unpredictable duration and the network
  ///     state can change arbitrarily while an agent is nowhere;
  ///   * everything else (whiteboard atomicity, anonymity, color opacity)
  ///     is identical to the mobile reading.
  ///
  /// The protocols proven correct in the mobile model must remain correct
  /// here -- that is the content of the transformation -- and the test
  /// suite runs ELECT, gathering, the quantitative baseline, and the
  /// Petersen protocol in this reading to confirm it.  The scheduler picks
  /// among enabled compute steps *and* pending deliveries; Lockstep
  /// delivers and steps everything once per round.  Only this reading has
  /// links, so a FaultPlan whose message axis is live requires it.
  bool message_passing = false;
};

/// Per-agent outcome of a run.
struct AgentReport {
  Color color;
  AgentStatus status = AgentStatus::Running;
  Color leader_color;                 // meaningful for Defeated and Leader
  graph::NodeId final_position = 0;   // external observer data (tests only)
  std::size_t moves = 0;
  std::size_t board_accesses = 0;
  bool operator==(const AgentReport&) const = default;
};

/// Outcome of a run.
struct RunResult {
  bool completed = false;   // every agent's coroutine finished
  bool deadlock = false;    // live agents, none enabled
  bool step_limit = false;  // max_steps exhausted (or replay schedule
                            // exhausted with agents still live)
  std::size_t steps = 0;
  std::size_t total_moves = 0;
  std::size_t total_board_accesses = 0;
  std::vector<AgentReport> agents;  // in home-base order

  /// Fault-injection record (empty unless RunConfig::faults was enabled):
  /// aggregate counts plus the applied faults in firing order (capped at
  /// fault::kMaxLoggedFaultEvents).
  fault::FaultSummary fault_summary;
  std::vector<fault::FaultEvent> fault_events;

  /// Message-passing runs only (zero in the mobile reading): deliveries
  /// (the agents' total moves, plus one per duplicate the message axis
  /// injected) and the peak number of agents in flight at once.
  std::size_t messages_delivered = 0;
  std::size_t max_in_transit = 0;

  /// Number of agents that finished as Leader.
  std::size_t leader_count() const;
  /// Number of agents the injector crash-stopped.
  std::size_t crashed_count() const;
  /// True iff exactly one leader was elected and every other agent is
  /// Defeated and knows the leader's color.
  bool clean_election() const;
  /// True iff every agent finished in FailureDetected.
  bool clean_failure() const;
  /// Fault-tolerant reading of clean_election: among the agents that did
  /// NOT crash, exactly one is Leader and every other survivor is Defeated
  /// and knows the leader's color.  Equal to clean_election() on fault-free
  /// runs; the degradation campaigns count this as "correct".
  bool surviving_election() const;
};

/// One simulation arena.  Construct, then run a protocol.
class World {
 public:
  /// Qualitative world: agents get opaque colors minted from `color_seed`.
  World(graph::Graph g, graph::Placement p, std::uint64_t color_seed);

  /// Quantitative world: agents additionally carry distinct comparable
  /// integer labels (randomized from the same seed).
  static World quantitative(graph::Graph g, graph::Placement p,
                            std::uint64_t color_seed);

  const graph::Graph& graph() const { return graph_; }
  const graph::Placement& placement() const { return placement_; }
  const std::vector<Color>& agent_colors() const { return colors_; }

  /// Runs `protocol` for every agent under `config`, in the reading
  /// `config.message_passing` selects.  Resets whiteboards and agent state
  /// first, so a World can be run multiple times, in either reading;
  /// buffers (boards, contexts, scheduler state) are reused across runs,
  /// never reallocated.  Throws CheckError when `config.faults` has a live
  /// message axis and `config.message_passing` is false.
  RunResult run(const Protocol& protocol, const RunConfig& config);

  /// Drops all per-run state (signs, coroutine frames) while keeping every
  /// allocated buffer, and re-mints agent colors (and quantitative labels)
  /// from `color_seed` when it changed.  This is how campaign::WorldPool
  /// retargets a cached World at a new task: observationally identical to
  /// constructing World(g, p, color_seed).
  void reset(std::uint64_t color_seed);

  std::uint64_t color_seed() const { return color_seed_; }

  /// Post-run inspection (tests / external observer only).
  const Whiteboard& board_at(graph::NodeId node) const;

 private:
  World(graph::Graph g, graph::Placement p, std::uint64_t color_seed,
        bool quantitative);

  void mint_labels();

  template <bool kMessages, bool kTraced, bool kFaulted>
  RunResult run_impl(const Protocol& protocol, const RunConfig& config);

  graph::Graph graph_;
  graph::Placement placement_;
  bool quantitative_ = false;
  std::uint64_t color_seed_ = 0;
  std::vector<Color> colors_;              // per agent, home-base order
  std::vector<std::int64_t> quant_ids_;    // per agent if quantitative
  std::vector<Whiteboard> boards_;         // per node

  // Per-run working state, kept across runs so the hot loop never
  // allocates once the buffers reach steady size.  Contents are
  // meaningless between runs.
  struct Scratch {
    std::vector<AgentCtx> contexts;
    std::vector<Behavior> behaviors;
    std::vector<std::size_t> enabled;  // sorted; maintained incrementally
    std::vector<std::size_t> round;    // Lockstep round snapshot
    std::vector<std::uint8_t> waiting;   // agent parked on a wait_until
    std::vector<std::uint8_t> wait_sat;  // cached predicate value while parked
    std::vector<std::vector<std::uint32_t>> waiters;  // per node
    std::vector<std::uint8_t> crashed;   // faulted runs only
    std::vector<std::uint8_t> in_flight;   // message runs: agent on a link
    std::vector<graph::HalfEdge> arrival;  // far side it will arrive at
  };
  Scratch scratch_;
};

}  // namespace qelect::sim
