#include "qelect/campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "qelect/campaign/builtin.hpp"
#include "qelect/campaign/json.hpp"
#include "qelect/campaign/spec.hpp"
#include "qelect/campaign/task.hpp"
#include "qelect/campaign/workloads.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/table.hpp"

namespace qelect::campaign {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Key segment between the workload prefix and the placement suffix, e.g.
/// "analyze/all-connected(5,12)/p=0.3/s=1" -> "all-connected(5,12)".
std::string graph_label_of(const std::string& key) {
  const std::size_t first = key.find('/');
  if (first == std::string::npos) return {};
  const std::size_t second = key.find('/', first + 1);
  if (second == std::string::npos) return key.substr(first + 1);
  return key.substr(first + 1, second - first - 1);
}

/// Trailing fault-point label: ".../f=crash-0.01" -> "crash-0.01"; empty
/// for fault-free keys.
std::string fault_label_of(const std::string& key) {
  const std::size_t pos = key.rfind("/f=");
  if (pos == std::string::npos) return {};
  return key.substr(pos + 3);
}

/// First integer inside the label's parens: "ring(6)" -> 6,
/// "all-connected(5,12)" -> 5.  Returns 0 when unparseable.
std::size_t label_n(const std::string& label) {
  const std::size_t open = label.find('(');
  if (open == std::string::npos) return 0;
  std::size_t n = 0, i = open + 1;
  while (i < label.size() && label[i] >= '0' && label[i] <= '9') {
    n = n * 10 + static_cast<std::size_t>(label[i] - '0');
    ++i;
  }
  return n;
}

}  // namespace

Table1Matrix table1_matrix(const LoadedStore& store) {
  Table1Matrix m;
  for (const TaskRecord& r : store.records) {
    if (!starts_with(r.key, "table1/")) continue;
    if (!r.ok()) {
      ++m.missing;
      continue;
    }
    if (starts_with(r.key, "table1/anonymous")) {
      m.anon_holds = r.metric_or("holds", 0) == 1;
    } else if (starts_with(r.key, "table1/k2")) {
      m.k2_impossible = r.metric_or("impossible", 0) == 1;
    } else if (starts_with(r.key, "table1/petersen")) {
      m.petersen_gcd =
          static_cast<std::uint64_t>(r.metric_or("final_gcd", 0));
      m.petersen_elect_fails = r.metric_or("elect_fails", 0) == 1;
      m.petersen_adhoc_elects = r.metric_or("adhoc_elects", 0) == 1;
    } else if (starts_with(r.key, "table1/cayley/")) {
      if (r.metric_or("is_cayley", 0) == 1) {
        ++m.cayley_checked;
        if (r.metric_or("agrees", 0) == 1) ++m.cayley_agreed;
      }
    } else if (starts_with(r.key, "table1/elect/")) {
      ++m.live_total;
      if (r.metric_or("matches_oracle", 0) == 1) ++m.live_ok;
    } else if (starts_with(r.key, "table1/quant/")) {
      ++m.quant_total;
      if (r.metric_or("clean_election", 0) == 1) ++m.quant_ok;
    }
  }
  return m;
}

void print_table1(const Table1Matrix& m) {
  std::printf(
      "[anonymous] C_3/1-agent vs C_6/2-antipodal lockstep histories "
      "identical: %s\n"
      "  => no universal and no effectual anonymous protocol (rings are "
      "Cayley, so the Cayley column is No too)\n",
      m.anon_holds ? "yes" : "NO (unexpected)");
  std::printf(
      "[qualitative] K_2 both-agents impossible by exhaustive labelings: "
      "%s => not universal\n",
      m.k2_impossible ? "yes" : "NO (unexpected)");
  std::printf(
      "[qualitative] Cayley dichotomy (gcd>1 <=> translation obstruction): "
      "%zu/%zu instances agree\n",
      m.cayley_agreed, m.cayley_checked);
  std::printf(
      "[qualitative] live ELECT matches the oracle on %zu/%zu instances\n",
      m.live_ok, m.live_total);
  std::printf(
      "[qualitative] Petersen{0,5}: gcd=%llu, ELECT %s, ad-hoc protocol "
      "%s => ELECT is not effectual beyond Cayley graphs ('?' cell)\n",
      static_cast<unsigned long long>(m.petersen_gcd),
      m.petersen_elect_fails ? "fails" : "?",
      m.petersen_adhoc_elects ? "elects" : "?");
  std::printf(
      "[quantitative] universal protocol elects on %zu/%zu instances "
      "(including every qualitatively-impossible one)\n\n",
      m.quant_ok, m.quant_total);
  if (m.missing > 0) {
    std::printf("WARNING: %zu table1 task(s) failed or timed out; the "
                "matrix below may be incomplete\n\n",
                m.missing);
  }

  TextTable table("Table 1 (reproduced)",
                  {"Agents", "Universal", "effectual/arbitrary",
                   "effectual/Cayley"});
  table.add_row({"Anonymous", m.anon_holds ? "No" : "??",
                 m.anon_holds ? "No" : "??", m.anon_holds ? "No" : "??"});
  table.add_row({"Qualitative", m.k2_impossible ? "No" : "??", "?",
                 m.qualitative_cayley_yes() ? "Yes" : "??"});
  table.add_row({"Quantitative", m.quantitative_yes() ? "Yes" : "??",
                 m.quantitative_yes() ? "Yes" : "??",
                 m.quantitative_yes() ? "Yes" : "??"});
  table.print();
}

std::vector<LandscapeRow> landscape_rows(const LoadedStore& store) {
  std::map<std::size_t, LandscapeRow> by_n;
  std::map<std::size_t, std::set<std::string>> labels_by_n;
  for (const TaskRecord& r : store.records) {
    if (!starts_with(r.key, "analyze/")) continue;
    const std::string label = graph_label_of(r.key);
    // Failed records carry no metrics; fall back to the n encoded in the
    // graph label so failures still land in the right row.
    const std::size_t n = r.ok()
                              ? static_cast<std::size_t>(r.metric_or("n", 0))
                              : label_n(label);
    LandscapeRow& row = by_n[n];
    row.n = n;
    labels_by_n[n].insert(label);
    if (!r.ok()) {
      ++row.failed;
      continue;
    }
    ++row.instances;
    const double cls = r.metric_or("class", -1);
    if (cls == kClassElect) {
      ++row.elect;
    } else if (cls == kClassImpossCayley) {
      ++row.imposs_cayley;
    } else if (cls == kClassImpossLabeling) {
      ++row.imposs_labeling;
    } else if (cls == kClassOpen) {
      ++row.open;
    } else if (cls == kClassViolation) {
      ++row.violations;
    }
  }
  std::vector<LandscapeRow> rows;
  rows.reserve(by_n.size());
  for (auto& [n, row] : by_n) {
    row.graphs = labels_by_n[n].size();
    rows.push_back(row);
  }
  return rows;
}

void print_landscape(const std::vector<LandscapeRow>& rows) {
  bool any_failed = false;
  for (const LandscapeRow& row : rows) any_failed |= row.failed > 0;
  std::vector<std::string> headers = {"n",     "graphs",
                                      "instances", "elect",
                                      "imposs-cayley", "imposs-labeling",
                                      "open",  "violations"};
  if (any_failed) headers.push_back("failed");
  TextTable table("classification of all (connected G, placement p)",
                  headers);
  for (const LandscapeRow& row : rows) {
    std::vector<std::string> cells = {
        std::to_string(row.n),
        std::to_string(row.graphs),
        std::to_string(row.instances),
        std::to_string(row.elect),
        std::to_string(row.imposs_cayley),
        std::to_string(row.imposs_labeling),
        std::to_string(row.open),
        std::to_string(row.violations)};
    if (any_failed) cells.push_back(std::to_string(row.failed));
    table.add_row(cells);
  }
  table.print();
}

namespace {

struct Outcomes {
  std::size_t ok = 0, failed = 0, timeout = 0, retried = 0;
};

Outcomes count_outcomes(const LoadedStore& store) {
  Outcomes out;
  for (const TaskRecord& r : store.records) {
    if (r.outcome == "ok") {
      ++out.ok;
    } else if (r.outcome == "timeout") {
      ++out.timeout;
    } else {
      ++out.failed;
    }
    out.retried += static_cast<std::size_t>(std::max(0, r.attempts - 1));
  }
  return out;
}

void print_failures(const LoadedStore& store, std::size_t limit) {
  std::size_t shown = 0;
  for (const TaskRecord& r : store.records) {
    if (r.ok()) continue;
    if (shown == limit) {
      std::printf("  ... (further failures omitted)\n");
      return;
    }
    std::printf("  %s %s: %s\n", r.outcome.c_str(), r.key.c_str(),
                r.error.c_str());
    ++shown;
  }
}

/// Per-graph moves-vs-budget table for the Theorem 3.1 campaigns.
void print_moves(const LoadedStore& store) {
  struct Agg {
    std::size_t tasks = 0, completed = 0, within = 0;
    double max_moves = 0, max_ratio = 0;
    std::size_t edges = 0;
  };
  std::map<std::string, Agg> by_label;
  for (const TaskRecord& r : store.records) {
    if (!starts_with(r.key, "moves/") || !r.ok()) continue;
    Agg& a = by_label[graph_label_of(r.key)];
    ++a.tasks;
    a.edges = static_cast<std::size_t>(r.metric_or("edges", 0));
    if (r.metric_or("completed", 0) == 1) ++a.completed;
    a.max_moves = std::max(a.max_moves, r.metric_or("moves", 0));
    const double ratio = r.metric_or("moves_per_budget", 0);
    a.max_ratio = std::max(a.max_ratio, ratio);
    if (ratio <= 1.0) ++a.within;
  }
  TextTable table("moves vs the O(r|E|) Theorem 3.1 budget",
                  {"graph", "edges", "tasks", "completed", "max moves",
                   "max moves/budget", "within budget"});
  for (const auto& [label, a] : by_label) {
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.3f", a.max_ratio);
    table.add_row({label, std::to_string(a.edges), std::to_string(a.tasks),
                   std::to_string(a.completed),
                   std::to_string(static_cast<std::size_t>(a.max_moves)),
                   ratio,
                   std::to_string(a.within) + "/" +
                       std::to_string(a.tasks)});
  }
  table.print();
}

/// Accumulator behind degradation_rows (sums before the mean is taken).
struct DegradationAgg {
  DegradationRow row;
  double inflation_sum = 0;
};

/// Oracle-agreement summary for elect campaigns.
void print_elect(const LoadedStore& store) {
  std::size_t total = 0, matches = 0, elected = 0;
  for (const TaskRecord& r : store.records) {
    if (!r.ok()) continue;
    ++total;
    if (r.metric_or("matches_oracle", 0) == 1) ++matches;
    if (r.metric_or("clean_election", 0) == 1) ++elected;
  }
  std::printf(
      "live ELECT: %zu tasks, %zu clean elections, oracle agreement "
      "%zu/%zu\n",
      total, elected, matches, total);
}

}  // namespace

std::vector<DegradationRow> degradation_rows(const LoadedStore& store) {
  std::map<std::pair<std::string, std::string>, DegradationAgg> cells;
  for (const TaskRecord& r : store.records) {
    if (!starts_with(r.key, "degradation/")) continue;
    const std::string graph = graph_label_of(r.key);
    const std::string fault = fault_label_of(r.key);
    DegradationAgg& agg = cells[{graph, fault}];
    agg.row.graph = graph;
    agg.row.fault = fault;
    if (!r.ok()) {
      ++agg.row.failed;
      continue;
    }
    ++agg.row.tasks;
    if (r.metric_or("completed", 0) == 1) ++agg.row.completed;
    if (r.metric_or("correct", 0) == 1) ++agg.row.correct;
    agg.row.crashed += static_cast<std::size_t>(r.metric_or("crashed", 0));
    agg.row.faults_injected +=
        static_cast<std::size_t>(r.metric_or("faults_total", 0));
    const double inflation = r.metric_or("move_inflation", 0);
    agg.inflation_sum += inflation;
    agg.row.max_inflation = std::max(agg.row.max_inflation, inflation);
    if (r.metric_or("violated", 0) == 1) {
      ++agg.row.violated;
      const double cause = r.metric_or("cause_kind", -1);
      if (cause >= 0 && cause < fault::kFaultKindCount) {
        ++agg.row.cause_hist[static_cast<std::size_t>(cause)];
      } else {
        ++agg.row.cause_none;
      }
    }
  }
  std::vector<DegradationRow> rows;
  rows.reserve(cells.size());
  for (auto& [key, agg] : cells) {
    (void)key;
    if (agg.row.tasks > 0) {
      agg.row.mean_inflation =
          agg.inflation_sum / static_cast<double>(agg.row.tasks);
    }
    rows.push_back(std::move(agg.row));
  }
  return rows;
}

void print_degradation(const std::vector<DegradationRow>& rows) {
  bool any_failed = false;
  for (const DegradationRow& row : rows) any_failed |= row.failed > 0;
  std::vector<std::string> headers = {
      "graph",   "fault",    "tasks",          "P(correct)", "completed",
      "crashed", "injected", "mean infl", "max infl",   "violated"};
  if (any_failed) headers.push_back("failed");
  TextTable table("degradation survival matrix (vs Theorem 3.1 budget)",
                  headers);
  for (const DegradationRow& row : rows) {
    char survival[32], mean_i[32], max_i[32];
    std::snprintf(survival, sizeof survival, "%.2f", row.survival());
    std::snprintf(mean_i, sizeof mean_i, "%.3f", row.mean_inflation);
    std::snprintf(max_i, sizeof max_i, "%.3f", row.max_inflation);
    std::vector<std::string> cells = {row.graph,
                                      row.fault.empty() ? "-" : row.fault,
                                      std::to_string(row.tasks),
                                      survival,
                                      std::to_string(row.completed),
                                      std::to_string(row.crashed),
                                      std::to_string(row.faults_injected),
                                      mean_i,
                                      max_i,
                                      std::to_string(row.violated)};
    if (any_failed) cells.push_back(std::to_string(row.failed));
    table.add_row(cells);
  }
  table.print();
  for (const DegradationRow& row : rows) {
    if (row.violated == 0) continue;
    std::printf("first violated assumption [%s %s]:", row.graph.c_str(),
                row.fault.c_str());
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      if (row.cause_hist[k] == 0) continue;
      std::printf(" %s=%zu", fault::kind_name(static_cast<fault::FaultKind>(k)),
                  row.cause_hist[k]);
    }
    if (row.cause_none > 0) std::printf(" unattributed=%zu", row.cause_none);
    std::printf("\n");
  }
}

std::string degradation_json(const std::string& campaign,
                             const std::vector<DegradationRow>& rows) {
  std::ostringstream out;
  out << "{\"campaign\":" << json_quote(campaign) << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DegradationRow& r = rows[i];
    if (i > 0) out << ',';
    out << "{\"graph\":" << json_quote(r.graph)
        << ",\"fault\":" << json_quote(r.fault) << ",\"tasks\":" << r.tasks
        << ",\"failed\":" << r.failed << ",\"completed\":" << r.completed
        << ",\"correct\":" << r.correct
        << ",\"survival\":" << json_number(r.survival())
        << ",\"violated\":" << r.violated << ",\"crashed\":" << r.crashed
        << ",\"faults_injected\":" << r.faults_injected
        << ",\"mean_inflation\":" << json_number(r.mean_inflation)
        << ",\"max_inflation\":" << json_number(r.max_inflation)
        << ",\"first_violation\":{";
    bool first = true;
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      if (r.cause_hist[k] == 0) continue;
      if (!first) out << ',';
      first = false;
      out << json_quote(fault::kind_name(static_cast<fault::FaultKind>(k)))
          << ':' << r.cause_hist[k];
    }
    if (r.cause_none > 0) {
      if (!first) out << ',';
      out << "\"unattributed\":" << r.cause_none;
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

void print_status(const std::string& store_path) {
  const LoadedStore store = load_store(store_path);
  if (!store.exists) {
    std::printf("%s: no store (campaign not started)\n", store_path.c_str());
    return;
  }
  QELECT_CHECK(store.has_header,
               "store " + store_path + " has no campaign header");
  const CampaignSpec spec =
      CampaignSpec::from_json_text(store.header.spec_json);
  const std::size_t total = TaskSpace(spec).size();
  const std::size_t done = store.by_key().size();
  const Outcomes out = count_outcomes(store);
  std::printf("campaign   %s\n", store.header.name.c_str());
  std::printf("store      %s%s\n", store_path.c_str(),
              store.torn_tail ? " (torn tail; will be truncated on resume)"
                              : "");
  std::printf("format     WAL generation %llu, %zu records from snapshot, "
              "%zu replayed from log%s\n",
              static_cast<unsigned long long>(store.generation),
              store.snapshot_records,
              store.records.size() - std::min(store.snapshot_records,
                                              store.records.size()),
              store.pending_compaction
                  ? " (compaction interrupted; reopen completes it)"
                  : "");
  std::printf("spec hash  %016llx\n",
              static_cast<unsigned long long>(store.header.spec_hash));
  std::printf("low water  %zu (every task below this index is done)\n",
              store.low_water);
  std::printf("progress   %zu/%zu tasks (%zu pending)\n", done, total,
              total - std::min(done, total));
  std::printf("outcomes   %zu ok, %zu failed, %zu timeout, %zu retries\n",
              out.ok, out.failed, out.timeout, out.retried);
  if (out.failed + out.timeout > 0) print_failures(store, 10);
}

void print_report(const std::string& store_path,
                  const std::string& json_path) {
  const LoadedStore store = load_store(store_path);
  QELECT_CHECK(store.exists, "no store at " + store_path);
  QELECT_CHECK(store.has_header,
               "store " + store_path + " has no campaign header");
  const CampaignSpec spec =
      CampaignSpec::from_json_text(store.header.spec_json);
  // A report over a stale store silently mis-groups, so mismatches are
  // hard errors (nonzero qelect exit), not warnings.
  QELECT_CHECK(
      spec_json_hash(store.header.spec_json) == store.header.spec_hash,
      "store " + store_path +
          ": embedded spec does not hash to the recorded spec hash (the "
          "header was edited or corrupted); re-run the campaign into a "
          "fresh store");
  if (is_builtin(store.header.name)) {
    QELECT_CHECK(
        builtin_spec(store.header.name).spec_hash() == store.header.spec_hash,
        "store " + store_path + ": campaign '" + store.header.name +
            "' no longer matches the registered built-in definition (the "
            "catalog changed since this store was written); re-run the "
            "campaign into a fresh store, or report it under a different "
            "name");
  }
  QELECT_CHECK(json_path.empty() || spec.workload == "degradation",
               "--json is only supported for degradation campaigns");
  if (spec.workload == "table1") {
    print_table1(table1_matrix(store));
  } else if (spec.workload == "analyze") {
    print_landscape(landscape_rows(store));
  } else if (spec.workload == "moves") {
    print_moves(store);
  } else if (spec.workload == "elect") {
    print_elect(store);
  } else if (spec.workload == "degradation") {
    const std::vector<DegradationRow> rows = degradation_rows(store);
    print_degradation(rows);
    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::trunc);
      QELECT_CHECK(out.good(), "cannot open " + json_path + " for writing");
      out << degradation_json(store.header.name, rows) << '\n';
      out.close();
      QELECT_CHECK(out.good(), "failed writing " + json_path);
      std::printf("survival matrix JSON written to %s\n", json_path.c_str());
    }
  } else {
    const Outcomes out = count_outcomes(store);
    std::printf("%zu records: %zu ok, %zu failed, %zu timeout\n",
                store.records.size(), out.ok, out.failed, out.timeout);
  }
  const Outcomes out = count_outcomes(store);
  if (out.failed + out.timeout > 0) {
    std::printf("\n%zu task(s) did not complete cleanly:\n",
                out.failed + out.timeout);
    print_failures(store, 10);
  }
}

}  // namespace qelect::campaign
