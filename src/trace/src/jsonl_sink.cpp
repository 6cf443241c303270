#include "qelect/trace/jsonl_sink.hpp"

#include <charconv>
#include <cstdio>
#include <string_view>

#include "qelect/util/assert.hpp"

namespace qelect::trace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(path, std::ios::trunc), out_(&owned_) {
  QELECT_CHECK(owned_.is_open(), "JsonlSink: cannot open " + path);
}

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

void JsonlSink::begin_run(const RunMetadata& meta) {
  events_written_ = 0;
  std::ostream& o = *out_;
  o << "{\"type\":\"meta\",\"label\":\"" << json_escape(meta.label)
    << "\",\"nodes\":" << meta.node_count << ",\"edges\":" << meta.edge_count
    << ",\"agents\":" << meta.agent_count << ",\"home_bases\":[";
  for (std::size_t i = 0; i < meta.home_bases.size(); ++i) {
    if (i > 0) o << ',';
    o << meta.home_bases[i];
  }
  o << "],\"policy\":\"" << json_escape(meta.policy)
    << "\",\"seed\":" << meta.seed << ",\"max_steps\":" << meta.max_steps
    << ",\"quantitative\":" << (meta.quantitative ? "true" : "false")
    << ",\"message_passing\":" << (meta.message_passing ? "true" : "false");
  if (!meta.fault_rates.empty()) {
    o << ",\"faults\":{\"seed\":" << meta.fault_seed;
    for (const auto& [name, rate] : meta.fault_rates) {
      // Shortest round-trip form: a replay needs the exact rate.
      char buf[32];
      const auto end = std::to_chars(buf, buf + sizeof(buf), rate).ptr;
      o << ",\"" << json_escape(name) << "\":" << std::string_view(buf, end);
    }
    o << '}';
  }
  o << ",\"config_hash\":\"";
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(meta.config_hash()));
  o << hash << "\"}\n";
}

void JsonlSink::on_event(const TraceEvent& event) {
  std::ostream& o = *out_;
  o << "{\"type\":\"event\",\"step\":" << event.step
    << ",\"agent\":" << event.agent << ",\"kind\":\"" << kind_name(event.kind)
    << "\",\"node\":" << event.node;
  if (event.port != kNoPort) o << ",\"port\":" << event.port;
  o << "}\n";
  ++events_written_;
}

void JsonlSink::end_run(const RunSummary& summary) {
  std::ostream& o = *out_;
  o << "{\"type\":\"summary\",\"steps\":" << summary.steps
    << ",\"moves\":" << summary.total_moves
    << ",\"board_accesses\":" << summary.total_board_accesses
    << ",\"completed\":" << (summary.completed ? "true" : "false")
    << ",\"deadlock\":" << (summary.deadlock ? "true" : "false")
    << ",\"step_limit\":" << (summary.step_limit ? "true" : "false") << "}\n";
  o.flush();
}

}  // namespace qelect::trace
