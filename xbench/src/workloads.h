// The benchmark's workloads and the two ways each one is run: the timed
// end-to-end run (public engine calls only, tracing off) and the traced run
// that splits a deal's cost across the layers.

#ifndef XBENCH_WORKLOADS_H_
#define XBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace xbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON);
  /// empty = keep them in memory only.
  std::string trace_out;
};

/// Deals the run attempted and how many of them did not commit (shed,
/// aborted or violating deals all count as failed).
struct RunCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

bool IsKnownWorkload(const std::string& name);

/// Runs one workload: end-to-end metrics when !args.trace, per-layer
/// metrics when args.trace. Every correctness check reports into `checks`.
RunCounts RunWorkload(const RunArgs& args, Metrics* metrics, Checks* checks);

}  // namespace xbench

#endif  // XBENCH_WORKLOADS_H_
