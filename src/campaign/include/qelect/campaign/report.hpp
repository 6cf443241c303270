// Reports: turning a result store back into the paper's tables.
//
// Reports are pure store consumers -- they read committed TaskRecords and
// never re-run anything, so `qelect report` on a finished (or half-
// finished) store is instant.  The folds take a CheckedStore and read each
// record's task (workload, graph, fault point) from its TaskSpace by
// task_index, never from the key, and they read the records in task
// order, so stores with equal exports give equal reports.  The Table 1
// matrix and the landscape table print the same layout as bench_table1 /
// bench_landscape, which is what lets those benches route through the
// campaign engine without changing their observable output.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "qelect/campaign/store.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/fault/injector.hpp"

namespace qelect::campaign {

/// A store whose every record has been checked against the spec in its
/// header: `space.fill(r.task_index, task)` is the task of record `r`.
struct CheckedStore {
  LoadedStore store;
  CampaignSpec spec;
  TaskSpace space;
};

/// Opens the store at `path` for a command that reads one (status,
/// report, export, compact): throws CheckError for a missing store, a
/// store without a campaign header, or a record check_store_records
/// refuses.  It lives with the reports, not in task.cpp, so binaries that
/// only run tasks (qelectd) link no store reader.
CheckedStore load_checked_store(const std::string& path);

/// The Table 1 feasibility matrix, folded out of a "table1" store.
struct Table1Matrix {
  bool anon_holds = false;       // lockstep indistinguishability verified
  bool k2_impossible = false;    // exhaustive labeling impossibility on K_2
  std::size_t cayley_checked = 0;
  std::size_t cayley_agreed = 0;
  std::size_t live_ok = 0;       // ELECT matches the gcd oracle
  std::size_t live_total = 0;
  std::size_t quant_ok = 0;      // quantitative protocol elects cleanly
  std::size_t quant_total = 0;
  std::uint64_t petersen_gcd = 0;
  bool petersen_elect_fails = false;
  bool petersen_adhoc_elects = false;
  std::size_t missing = 0;  // table1 records absent or non-ok in the store

  bool qualitative_cayley_yes() const {
    return cayley_agreed == cayley_checked && cayley_checked > 0 &&
           live_ok == live_total && live_total > 0;
  }
  bool quantitative_yes() const {
    return quant_ok == quant_total && quant_total > 0;
  }
};

/// Folds a table1 store's records into the matrix, each by its task's
/// cell workload.
Table1Matrix table1_matrix(const CheckedStore& checked);

/// Prints the narrative cell evidence plus the reproduced TextTable,
/// matching bench_table1's layout verdict for verdict.
void print_table1(const Table1Matrix& m);

/// One per-n row of the landscape classification table.
struct LandscapeRow {
  std::size_t n = 0;
  std::size_t graphs = 0;     // distinct isomorphism classes seen
  std::size_t instances = 0;  // ok-classified (G, p) pairs
  std::size_t elect = 0;
  std::size_t imposs_cayley = 0;
  std::size_t imposs_labeling = 0;
  std::size_t open = 0;
  std::size_t violations = 0;
  std::size_t failed = 0;  // records with a non-ok outcome
};

/// Groups an analyze store's records by node count: the n metric, or for
/// a failed record (which has no metrics) its task's graph.  Rows come
/// back sorted by n.
std::vector<LandscapeRow> landscape_rows(const CheckedStore& checked);

/// Prints the landscape classification table (bench_landscape's layout,
/// plus a failures column when any task failed).
void print_landscape(const std::vector<LandscapeRow>& rows);

/// One (graph, fault point) cell of the degradation survival matrix.
struct DegradationRow {
  std::string graph;   // graph label, e.g. "ring(6)"
  std::string fault;   // fault point label, e.g. "crash-0.01"
  std::size_t tasks = 0;       // ok records folded into this cell
  std::size_t failed = 0;      // records with a non-ok outcome
  std::size_t completed = 0;
  std::size_t correct = 0;     // survivor-oracle match (see workloads.cpp)
  std::size_t violated = 0;    // invariant checker flagged the trace
  std::size_t crashed = 0;     // crash-stopped agents, summed
  std::size_t faults_injected = 0;
  double mean_inflation = 0;   // mean moves / Theorem 3.1 budget
  double max_inflation = 0;
  /// First-violation histogram: violations whose diagnosed cause was fault
  /// kind k (fault::kind_name order); `cause_none` counts violations with
  /// no injected fault to blame (genuine model bugs).
  std::size_t cause_hist[fault::kFaultKindCount] = {};
  std::size_t cause_none = 0;

  double survival() const {
    return tasks == 0 ? 0 : static_cast<double>(correct) /
                                static_cast<double>(tasks);
  }
};

/// Folds a degradation store's records into survival-matrix rows, one per
/// (graph label, fault label) of their tasks, sorted by that pair.  Sums
/// run in task order, so the means do not depend on commit order.
std::vector<DegradationRow> degradation_rows(const CheckedStore& checked);

/// Prints the survival matrix as a TextTable plus a first-violation
/// histogram line per row that has violations.
void print_degradation(const std::vector<DegradationRow>& rows);

/// The survival matrix as canonical JSON (one object with a "rows" array;
/// what `qelect report --json` writes).
std::string degradation_json(const std::string& campaign,
                             const std::vector<DegradationRow>& rows);

/// Prints a progress/outcome summary for any store: spec identity, task
/// counts by outcome, retries, pending count against the re-expanded spec.
/// A missing store prints that the campaign has not started; any other
/// opens through load_checked_store, and its failures list in task order.
void print_status(const std::string& store_path);

/// Prints the workload-appropriate report for the store: the Table 1
/// matrix for "table1" campaigns, the landscape table for "analyze", a
/// per-graph moves-vs-budget table for "moves", the survival matrix for
/// "degradation", and an outcome summary for everything else.  Opens the
/// store through load_checked_store, and also throws CheckError (nonzero
/// `qelect` exit) when the store's embedded spec no longer matches its
/// recorded hash or the current built-in definition of the campaign -- a
/// report over a stale store would silently mis-group.
/// Non-empty `json_path` additionally writes the degradation survival
/// matrix as JSON (degradation stores only).
void print_report(const std::string& store_path,
                  const std::string& json_path = {});

}  // namespace qelect::campaign
