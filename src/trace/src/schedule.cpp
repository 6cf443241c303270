#include "qelect/trace/schedule.hpp"

#include <cctype>
#include <charconv>
#include <fstream>

#include "qelect/util/assert.hpp"

namespace qelect::trace {
namespace {

/// The agent index after `"agent":` in event record `line`, the `line_no`th
/// line of the stream (1-based).  Minimal on purpose: the sink controls
/// the schema, so a field-name lookup and a digit run suffice.  A missing
/// field, anything but decimal digits (a sign, a string, a fraction) or a
/// value past uint32_t is a CheckError naming the line.
std::uint32_t agent_field(const std::string& line, std::size_t line_no) {
  static const std::string needle = "\"agent\":";
  const auto where = [line_no] {
    return "load_schedule_jsonl: line " + std::to_string(line_no) + ": ";
  };
  const std::size_t at = line.find(needle);
  QELECT_CHECK(at != std::string::npos,
               where() + "event record without agent field");
  const char* begin = line.data() + at + needle.size();
  const char* end = line.data() + line.size();
  std::uint32_t agent = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, agent);
  const bool ends_value = ptr == end || *ptr == ',' || *ptr == '}' ||
                          std::isspace(static_cast<unsigned char>(*ptr));
  QELECT_CHECK(ec == std::errc() && ends_value,
               where() + "agent must be an integer in [0, 4294967295]");
  return agent;
}

}  // namespace

Schedule load_schedule_jsonl(std::istream& in) {
  Schedule schedule;
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.find("\"type\":\"event\"") == std::string::npos) continue;
    schedule.picks.push_back(agent_field(line, line_no));
  }
  return schedule;
}

Schedule load_schedule_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  QELECT_CHECK(in.is_open(), "load_schedule_jsonl_file: cannot open " + path);
  return load_schedule_jsonl(in);
}

}  // namespace qelect::trace
