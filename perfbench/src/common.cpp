#include "common.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double self_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double self_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

double proc_cpu_seconds(int pid) {
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(task_dir.c_str());
  if (dir == nullptr) {
    throw std::runtime_error("cannot read " + task_dir);
  }
  std::uint64_t ns = 0;
  bool any = false;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::string text;
    if (!read_file(task_dir + "/" + entry->d_name + "/schedstat", &text)) {
      continue;  // the thread exited meanwhile
    }
    ns += std::stoull(text);  // first field: time spent on the CPU
    any = true;
  }
  closedir(dir);
  if (!any) {
    throw std::runtime_error("no readable " + task_dir +
                             "/*/schedstat (kernel without schedstat?)");
  }
  return static_cast<double>(ns) * 1e-9;
}

double proc_peak_rss_mib(int pid) {
  std::string text;
  if (!read_file("/proc/" + std::to_string(pid) + "/status", &text)) return -1;
  const auto at = text.find("VmHWM:");
  if (at == std::string::npos) return -1;
  return std::stod(text.substr(at + 6)) / 1024.0;  // kB
}

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu"
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;  // user nice system idle iowait irq softirq steal
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& before, const HostTicks& after) {
  const double total = static_cast<double>(after.total - before.total);
  if (total <= 0) return 0;
  return static_cast<double>(after.steal - before.steal) / total;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double SplitMix::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  SplitMix m(a ^ (b * 0xD6E8FEB86659FD93ull));
  m.next();
  return m.next();
}

std::int64_t SpanRecorder::open(const char* name, std::int64_t parent,
                                std::int64_t id, const char* cls) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.id = id;
  s.cls = cls;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int64_t SpanRecorder::add(const Span& span) {
  if (!enabled_) return -1;
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::write_jsonl(const std::string& path,
                               std::int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%lld,\"id\":%lld",
                 i, s.name, static_cast<double>(s.start_ns - origin_ns) * 1e-9,
                 static_cast<double>(s.end_ns - origin_ns) * 1e-9,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.id));
    if (s.cls != nullptr) std::fprintf(f, ",\"class\":\"%s\"", s.cls);
    std::fputs("}\n", f);
  }
  std::fclose(f);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

JsonObject& JsonObject::num(const std::string& key, double value) {
  char buf[40];
  if (!std::isfinite(value)) value = 0;
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  std::string quoted(1, '"');
  quoted += json_escape(value);
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
  return *this;
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(fields_[i].first);
    out += "\":";
    out += fields_[i].second;
  }
  out += '}';
  return out;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void make_dirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
}

std::uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace perfbench
