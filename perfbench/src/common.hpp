// Shared plumbing of the benchmark probe: clocks, CPU and memory probes,
// an in-memory span recorder, a seeded RNG and a one-line JSON writer.
//
// Everything here measures the program from outside: spans wrap calls
// into public functions, CPU comes from getrusage or /proc, and nothing
// reaches into the libraries' internals.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// User+system CPU of this process, in seconds (getrusage).
double self_cpu_seconds();
/// Peak resident set of this process, in MiB (ru_maxrss).
double self_peak_rss_mib();

/// On-CPU time of every live thread of `pid`, in seconds: the sum of
/// /proc/<pid>/task/*/schedstat run times (nanosecond counters).  Steal
/// is not charged.  Throws if the process is gone or the kernel has no
/// schedstat files.
double proc_cpu_seconds(int pid);
/// VmHWM of `pid` in MiB, or -1.
double proc_peak_rss_mib(int pid);

/// Aggregate /proc/stat CPU counters, for the steal share of a phase.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostTicks host_ticks();
double steal_share(const HostTicks& before, const HostTicks& after);

/// Number of fdatasync/fsync calls made by this process (sync_counter.cpp).
std::uint64_t sync_calls();
/// True when a sync on the store's file system was skipped because it is
/// not memory-backed (see sync_counter.cpp).
bool syncs_elided();

/// splitmix64: a tiny, portable, seedable generator.  Every random input
/// the benchmark makes comes from one of these, so inputs depend only on
/// the seed, never on the platform's <random> implementation.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Mixes two words into one (for deriving sub-seeds).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// One traced interval.  `parent` is the index of the enclosing span in
/// the recorder (or -1), `id` the operation it belongs to (task index or
/// request id; spans of one operation share it), `cls` an optional class
/// label (the opcode for serve requests).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t id = -1;
  const char* cls = nullptr;
};

/// Spans stay in memory while the workload runs and are written out as
/// JSONL once it is over, so recording costs a clock read and a push.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span now; returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::int64_t parent = -1,
                    std::int64_t id = -1, const char* cls = nullptr);
  void close(std::int64_t index);
  /// Adds a finished span with explicit times.
  std::int64_t add(const Span& span);


  /// One JSON object per line: name, start, end (seconds since `origin_ns`),
  /// parent, id, and class when set.
  void write_jsonl(const std::string& path, std::int64_t origin_ns) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::int64_t parent = -1,
             std::int64_t id = -1)
      : rec_(rec), index_(rec.open(name, parent, id)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t index() const { return index_; }

 private:
  SpanRecorder& rec_;
  std::int64_t index_;
};

/// Flat JSON object builder with insertion order; values are rendered
/// when added.  Numbers keep all their digits (%.17g).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::int64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  JsonObject& object(const std::string& key, const JsonObject& value) {
    return raw(key, value.dump());
  }
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Removes a directory tree (best effort; used for per-run scratch dirs).
void remove_tree(const std::string& path);
/// Creates a directory and its parents.
void make_dirs(const std::string& path);
/// Bytes of a regular file, or 0.
std::uint64_t file_bytes(const std::string& path);

}  // namespace perfbench
