// Shared helpers of the repo benchmark: wall-clock stamps, medians,
// peak memory, the metric sink that prints the result line, and the
// correctness ledger every check reports into.

#ifndef XBENCH_COMMON_H_
#define XBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace xbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a sample (mean of the middle two for even sizes); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Peak resident set size of this process so far, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Ordered metric list for the result line; every value is also echoed as
/// a human-readable "metric" line as it is recorded.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    std::printf("metric %-44s %16.6f %s\n", name.c_str(), value, unit.c_str());
    entries_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Collects correctness failures; any failure makes the benchmark exit
/// non-zero without printing a result line.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    ++failures_;
  }
  bool ok() const { return failures_ == 0; }

 private:
  size_t failures_ = 0;
};

}  // namespace xbench

#endif  // XBENCH_COMMON_H_
