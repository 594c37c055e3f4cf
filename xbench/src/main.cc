// xbench: the repo benchmark. Runs one workload from one seed and prints
// every metric by name with its unit, then one JSON result line:
//
//   xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--trace_out <path>]
//
// --trace 0 times public engine calls with tracing off and reports the
// end-to-end metrics; --trace 1 runs the traced per-layer split instead.
// Any failed correctness check exits 1 without a result line; bad
// arguments exit 2. See README.md next to this file for the workloads.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "xbench: %s\nusage: xbench --workload <cbc-sharded|"
               "default-stagger|service-restore> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace_out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0 || args.seconds > 120) {
        return Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace_out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!xbench::IsKnownWorkload(args.workload)) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::printf("xbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  xbench::Metrics metrics;
  xbench::Checks checks;
  xbench::RunCounts counts = xbench::RunWorkload(args, &metrics, &checks);
  if (!checks.ok() || counts.attempted == 0) {
    std::printf("xbench: correctness check failed; no result\n");
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(counts.attempted),
              static_cast<unsigned long long>(counts.failed),
              metrics.ToJson().c_str());
  return 0;
}
