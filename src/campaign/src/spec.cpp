#include "qelect/campaign/spec.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string_view>

#include "qelect/campaign/json.hpp"
#include "qelect/util/assert.hpp"
#include "qelect/util/hash.hpp"

namespace qelect::campaign {

namespace {

const char* mode_name(PlacementAxis::Mode mode) {
  switch (mode) {
    case PlacementAxis::Mode::Enumerate:
      return "enumerate";
    case PlacementAxis::Mode::Random:
      return "random";
    case PlacementAxis::Mode::Fixed:
      return "fixed";
  }
  return "?";
}

PlacementAxis::Mode mode_from_name(const std::string& name) {
  if (name == "enumerate") return PlacementAxis::Mode::Enumerate;
  if (name == "random") return PlacementAxis::Mode::Random;
  if (name == "fixed") return PlacementAxis::Mode::Fixed;
  throw CheckError("campaign spec: unknown placement mode '" + name + "'");
}

template <typename T>
void append_number_array(std::ostringstream& out, const std::vector<T>& xs) {
  out << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out << ',';
    out << static_cast<unsigned long long>(xs[i]);
  }
  out << ']';
}

/// An integer field's value as T.  A negative value, or one T cannot hold,
/// is a CheckError naming the field: a cast would wrap it into another
/// (valid-looking) spec.
template <typename T>
T integer_field(const JsonValue& v, const char* field) {
  const std::int64_t x = v.as_int();
  constexpr std::uint64_t kMax = std::min<std::uint64_t>(
      std::numeric_limits<T>::max(), std::numeric_limits<std::int64_t>::max());
  QELECT_CHECK(x >= 0 && static_cast<std::uint64_t>(x) <= kMax,
               std::string("campaign spec: '") + field +
                   "' must be an integer in [0, " + std::to_string(kMax) +
                   "], got " + std::to_string(x));
  return static_cast<T>(x);
}

template <typename T>
std::vector<T> number_array(const JsonValue& v, const char* field) {
  std::vector<T> out;
  for (const JsonValue& x : v.as_array()) {
    out.push_back(integer_field<T>(x, field));
  }
  return out;
}

template <typename T>
T integer_or(const JsonValue& obj, const char* field, T fallback) {
  const JsonValue* v = obj.find(field);
  return v == nullptr ? fallback : integer_field<T>(*v, field);
}

void check_known_keys(const JsonValue& obj,
                      const std::vector<std::string_view>& known,
                      const std::string& where) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    QELECT_CHECK(std::find(known.begin(), known.end(), key) != known.end(),
                 "campaign spec: unknown key '" + key + "' in " + where);
  }
}

}  // namespace

std::string CampaignSpec::to_json() const {
  std::ostringstream out;
  out << "{\"name\":" << json_quote(name)
      << ",\"workload\":" << json_quote(workload) << ",\"graphs\":[";
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const GraphAxis& a = graphs[i];
    if (i > 0) out << ',';
    out << "{\"family\":" << json_quote(a.family) << ",\"n\":[" << a.n_min
        << ',' << a.n_max << "],\"params\":";
    append_number_array(out, a.params);
    out << '}';
  }
  out << "],\"placements\":{\"mode\":" << json_quote(mode_name(placements.mode))
      << ",\"agents\":[" << placements.agents_min << ','
      << placements.agents_max << "],\"seeds\":" << placements.seeds
      << ",\"fixed\":";
  append_number_array(out, placements.fixed);
  out << "},\"color_seeds\":";
  append_number_array(out, color_seeds);
  out << ",\"scheduler\":" << json_quote(scheduler)
      << ",\"max_steps\":" << max_steps << ",\"retries\":" << retries
      << ",\"timeout_seconds\":" << json_number(timeout_seconds)
      << ",\"labeling_budget\":" << json_number(labeling_budget)
      << ",\"inject\":{\"match\":" << json_quote(inject.match)
      << ",\"fail_attempts\":" << inject.fail_attempts << '}';
  // Emitted only when non-empty so pre-fault spec JSON (and its hash,
  // which gates store resume) is byte-identical.
  if (!faults.empty()) {
    out << ",\"faults\":[";
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const FaultPoint& f = faults[i];
      if (i > 0) out << ',';
      out << "{\"label\":" << json_quote(f.label)
          << ",\"seed\":" << f.plan.fault_seed;
      for (const fault::RateField& r : fault::kRateFields) {
        out << ",\"" << r.key << "\":" << json_number(f.plan.*r.rate);
      }
      out << '}';
    }
    out << ']';
  }
  out << '}';
  return out.str();
}

std::uint64_t spec_json_hash(const std::string& json) {
  return util::fnv1a64(json);
}

std::uint64_t CampaignSpec::spec_hash() const {
  return spec_json_hash(to_json());
}

CampaignSpec CampaignSpec::from_json_text(const std::string& text) {
  const JsonValue root = parse_json(text);
  check_known_keys(root,
                   {"name", "workload", "graphs", "placements", "color_seeds",
                    "scheduler", "backend", "max_steps", "retries",
                    "timeout_seconds", "labeling_budget", "inject", "faults"},
                   "spec");
  CampaignSpec spec;
  spec.name = root.require("name").as_string();
  spec.workload = root.require("workload").as_string();
  if (const JsonValue* graphs = root.find("graphs")) {
    for (const JsonValue& g : graphs->as_array()) {
      check_known_keys(g, {"family", "n", "params"}, "graph axis");
      GraphAxis axis;
      axis.family = g.require("family").as_string();
      if (const JsonValue* n = g.find("n")) {
        const auto& range = n->as_array();
        QELECT_CHECK(range.size() == 2,
                     "campaign spec: graph 'n' must be [min, max]");
        axis.n_min = integer_field<std::size_t>(range[0], "n");
        axis.n_max = integer_field<std::size_t>(range[1], "n");
      }
      if (const JsonValue* params = g.find("params")) {
        axis.params = number_array<std::size_t>(*params, "params");
      }
      spec.graphs.push_back(std::move(axis));
    }
  }
  if (const JsonValue* p = root.find("placements")) {
    check_known_keys(*p, {"mode", "agents", "seeds", "fixed"}, "placements");
    spec.placements.mode = mode_from_name(p->string_or("mode", "enumerate"));
    if (const JsonValue* agents = p->find("agents")) {
      const auto& range = agents->as_array();
      QELECT_CHECK(range.size() == 2,
                   "campaign spec: placement 'agents' must be [min, max]");
      spec.placements.agents_min =
          integer_field<std::size_t>(range[0], "agents");
      spec.placements.agents_max =
          integer_field<std::size_t>(range[1], "agents");
    }
    spec.placements.seeds = integer_or<std::uint64_t>(*p, "seeds", 1);
    if (const JsonValue* fixed = p->find("fixed")) {
      spec.placements.fixed = number_array<graph::NodeId>(*fixed, "fixed");
    }
  }
  if (const JsonValue* seeds = root.find("color_seeds")) {
    spec.color_seeds = number_array<std::uint64_t>(*seeds, "color_seeds");
  }
  QELECT_CHECK(!spec.color_seeds.empty(),
               "campaign spec: color_seeds must be non-empty");
  spec.scheduler = root.string_or("scheduler", "random");
  spec.max_steps = integer_or<std::size_t>(root, "max_steps", 0);
  spec.retries = integer_or<int>(root, "retries", 1);
  spec.timeout_seconds = root.number_or("timeout_seconds", 0);
  spec.labeling_budget =
      root.number_or("labeling_budget", kDefaultLabelingBudget);
  if (const JsonValue* inject = root.find("inject")) {
    check_known_keys(*inject, {"match", "fail_attempts"}, "inject");
    spec.inject.match = inject->string_or("match", "");
    spec.inject.fail_attempts = integer_or<int>(*inject, "fail_attempts", 0);
  }
  if (const JsonValue* faults = root.find("faults")) {
    // A fault point's keys, as to_json writes them.
    std::vector<std::string_view> known = {"label", "seed"};
    for (const fault::RateField& r : fault::kRateFields) known.push_back(r.key);
    for (const JsonValue& f : faults->as_array()) {
      check_known_keys(f, known, "fault point");
      FaultPoint point;
      point.label = f.require("label").as_string();
      QELECT_CHECK(!point.label.empty(),
                   "campaign spec: fault point label must be non-empty");
      point.plan.fault_seed = integer_or<std::uint64_t>(f, "seed", 0);
      for (const fault::RateField& r : fault::kRateFields) {
        point.plan.*r.rate = f.number_or(r.key, 0);
      }
      spec.faults.push_back(std::move(point));
    }
  }
  return spec;
}

}  // namespace qelect::campaign
