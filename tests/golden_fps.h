// Golden fingerprints shared by every suite that asserts bit-for-bit
// reproduction of the legacy engine.
//
// The two traffic constants are the repo's backward-compatibility contract: any
// refactor of the traffic engine, broker pool, sharded CBC service, or
// observation API must still produce them from the exact seed/workload
// pairs below. They were captured from the pre-ProtocolDriver engine (PR
// 2's traffic_engine.cc, direct TimelockRun/CbcRun dispatch, single shared
// CBC chain) and have survived every redesign since.
//
// If a change legitimately alters the fingerprint (i.e. the observable
// wire traffic changed on purpose), update the constants HERE — once —
// and say why in the commit message. Never fork a private copy in a test.

#ifndef XDEAL_TESTS_GOLDEN_FPS_H_
#define XDEAL_TESTS_GOLDEN_FPS_H_

#include <cstdint>

namespace xdeal {

/// seed 101, 40 deals, 6 chains, default protocol mix, stock options.
inline constexpr uint64_t kGoldenFpMixedSeed101 = 0xf2e05a9b400cccdeULL;

/// seed 202, 30 deals, 4 chains, all-kCbc mix, stock options.
inline constexpr uint64_t kGoldenFpCbcSeed202 = 0x0c2664eed3179051ULL;

/// The seeded conformance sweep: DefaultSweepAxes() at base_seed 1, the
/// 804-scenario matrix bench_sweep runs. Pins every sampled outcome of the
/// sweep's runner (timelock and CBC through the explorer's one-run builder,
/// HTLC rings on their own) and the Property 1-3 verdicts on them.
inline constexpr uint64_t kGoldenFpSweepSeed1 = 0x09e22febc0880916ULL;

}  // namespace xdeal

#endif  // XDEAL_TESTS_GOLDEN_FPS_H_
