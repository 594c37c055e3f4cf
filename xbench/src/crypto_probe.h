// Crypto-layer probe: per-call cost of the primitives every deal leans on,
// timed on fixed inputs, with self-checks that fail the benchmark when a
// primitive returns a wrong answer (so a broken fast path cannot "win").

#ifndef XBENCH_CRYPTO_PROBE_H_
#define XBENCH_CRYPTO_PROBE_H_

#include "common.h"

namespace xbench {

/// Median per-call times of the crypto primitives.
struct CryptoTimes {
  double mulmod_ns = 0;
  double powmod_us = 0;
  double keygen_us = 0;
  double sign_us = 0;
  double verify_us = 0;
  double batch_verify5_us = 0;
  double sha256_64B_ns = 0;
};

/// Runs the self-checks (into `checks`), then times each primitive for
/// about `seconds_each` seconds and reports per-call medians over batches.
CryptoTimes ProbeCrypto(double seconds_each, Checks* checks);

}  // namespace xbench

#endif  // XBENCH_CRYPTO_PROBE_H_
