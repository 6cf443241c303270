// Machine-readable bench output: every bench_* binary emits a
// BENCH_<name>.json next to its stdout report, so CI can archive perf
// numbers and tools/bench_summary.py can aggregate them without scraping
// text tables.
//
// Shape of the file:
//
//   {
//     "bench": "canon",
//     "smoke": false,
//     "config_hash": "5c1e7a90f3b2d841",
//     "cases": [
//       { "name": "canon_ring_32",
//         "median_seconds": 1.2e-4,
//         "best_seconds": 1.1e-4,            // min-time sample
//         "samples_seconds": [...],          // one wall time per sample
//         "iterations_per_sample": 83,
//         "counters": {"leaves": 4.0, "speedup_vs_seed": 3.1} }
//     ]
//   }
//
// Timing protocol: each case is auto-calibrated (a pilot run sizes the
// inner iteration count so one sample costs >= ~10 ms), then N samples are
// taken and the *median* is reported -- robust to scheduler noise on the
// shared CI runners.  Setting QELECT_BENCH_SMOKE=1 drops to 1 iteration
// x 1 sample per case so the whole suite finishes in seconds while still
// producing schema-complete JSON.
//
// The config hash folds in the compiler, optimization level, assertion
// setting, and pointer width: comparing medians across files with
// different hashes is comparing different builds, and bench_summary.py
// warns when it happens.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "qelect/util/hash.hpp"

namespace qelect::benchjson {

/// Keeps `value` observable so the optimizer cannot delete a timed
/// computation (the usual DoNotOptimize device).
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

inline bool smoke_mode() {
  const char* v = std::getenv("QELECT_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

inline std::string config_hash() {
  std::uint64_t h = util::kFnvBasis;
#if defined(__VERSION__)
  h = util::fnv1a64("cc=" __VERSION__, h);
#endif
#if defined(__OPTIMIZE__)
  h = util::fnv1a64("opt=1", h);
#else
  h = util::fnv1a64("opt=0", h);
#endif
#if defined(NDEBUG)
  h = util::fnv1a64("ndebug=1", h);
#else
  h = util::fnv1a64("ndebug=0", h);
#endif
  h = util::fnv1a64("ptr=" + std::to_string(sizeof(void*) * 8), h);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

class Reporter {
 public:
  explicit Reporter(std::string bench_name)
      : name_(std::move(bench_name)), smoke_(smoke_mode()) {}

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  ~Reporter() {
    if (!written_) write();
  }

  bool smoke() const { return smoke_; }

  /// Times fn and records a case: calibrates an iteration count so one
  /// sample costs >= min_sample_seconds, takes `samples` samples, stores
  /// the per-iteration median.  Returns the median seconds (pilot time in
  /// smoke mode).  `samples` <= 0 uses the default (7, or 1 in smoke).
  template <typename Fn>
  double bench(const std::string& case_name, Fn&& fn, int samples = 0) {
    constexpr double kMinSample = 0.01;
    const int n = samples > 0 ? samples : 7;
    Case c;
    c.name = case_name;
    const double pilot = time_once(fn);
    if (smoke_) {
      c.iterations = 1;
      c.samples.push_back(pilot);
      c.median = pilot;
      c.best = pilot;
    } else {
      c.iterations =
          pilot >= kMinSample
              ? 1
              : static_cast<std::size_t>(kMinSample / std::max(pilot, 1e-9)) +
                    1;
      for (int s = 0; s < n; ++s) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < c.iterations; ++i) fn();
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        c.samples.push_back(dt.count() / static_cast<double>(c.iterations));
      }
      std::vector<double> sorted = c.samples;
      std::sort(sorted.begin(), sorted.end());
      c.median = sorted[sorted.size() / 2];
      c.best = sorted.front();
    }
    cases_.push_back(std::move(c));
    return cases_.back().median;
  }

  /// Best (min-time) sample of the most recent case named `case_name`,
  /// or 0 when no such case was benched.  The best sample filters the
  /// one-sided noise on shared runners: a run can only ever be slowed
  /// down, so the minimum is the least-contended measurement.
  double best_of(const std::string& case_name) const {
    for (auto it = cases_.rbegin(); it != cases_.rend(); ++it) {
      if (it->name == case_name) return it->best;
    }
    return 0.0;
  }

  /// Imports a fully formed case (used to carry cases from an existing
  /// BENCH_<name>.json through a partial re-run, e.g. bench_sim_batch
  /// merging its cases into the file bench_sim_throughput wrote).
  void import_case(const std::string& case_name, double median, double best,
                   std::vector<double> samples, std::size_t iterations,
                   std::vector<std::pair<std::string, double>> counters) {
    Case c;
    c.name = case_name;
    c.median = median;
    c.best = best;
    c.samples = std::move(samples);
    c.iterations = iterations;
    c.counters = std::move(counters);
    cases_.push_back(std::move(c));
  }

  bool has_case(const std::string& case_name) const {
    for (const Case& c : cases_) {
      if (c.name == case_name) return true;
    }
    return false;
  }

  /// Attaches a counter to the most recently benched case with `name`
  /// (adds an un-timed case if none exists, so pure-counter benches work).
  void counter(const std::string& case_name, const std::string& key,
               double value) {
    for (auto it = cases_.rbegin(); it != cases_.rend(); ++it) {
      if (it->name == case_name) {
        it->counters.emplace_back(key, value);
        return;
      }
    }
    Case c;
    c.name = case_name;
    c.counters.emplace_back(key, value);
    cases_.push_back(std::move(c));
  }

  /// Writes BENCH_<name>.json into the current directory.
  void write() {
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"smoke\": %s,\n",
                 name_.c_str(), smoke_ ? "true" : "false");
    std::fprintf(f, "  \"config_hash\": \"%s\",\n  \"cases\": [",
                 config_hash().c_str());
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      std::fprintf(f, "%s\n    { \"name\": \"%s\",", i == 0 ? "" : ",",
                   c.name.c_str());
      std::fprintf(f, "\n      \"median_seconds\": %.9g,", c.median);
      std::fprintf(f, "\n      \"best_seconds\": %.9g,", c.best);
      std::fprintf(f, "\n      \"samples_seconds\": [");
      for (std::size_t s = 0; s < c.samples.size(); ++s) {
        std::fprintf(f, "%s%.9g", s == 0 ? "" : ", ", c.samples[s]);
      }
      std::fprintf(f, "],\n      \"iterations_per_sample\": %zu,",
                   c.iterations);
      std::fprintf(f, "\n      \"counters\": {");
      for (std::size_t k = 0; k < c.counters.size(); ++k) {
        std::fprintf(f, "%s\"%s\": %.9g", k == 0 ? "" : ", ",
                     c.counters[k].first.c_str(), c.counters[k].second);
      }
      std::fprintf(f, "} }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu cases%s)\n", path.c_str(), cases_.size(),
                smoke_ ? ", smoke" : "");
  }

 private:
  struct Case {
    std::string name;
    double median = 0.0;
    double best = 0.0;
    std::vector<double> samples;
    std::size_t iterations = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  template <typename Fn>
  static double time_once(Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count();
  }

  std::string name_;
  bool smoke_;
  bool written_ = false;
  std::vector<Case> cases_;
};

}  // namespace qelect::benchjson
