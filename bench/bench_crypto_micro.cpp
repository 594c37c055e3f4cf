// Micro-benchmark: per-signature vs batched Schnorr verification for CBC
// status certificates.
//
// A CBC status certificate carries 2f+1 validator signatures over the same
// status message; every escrow "decide" call verifies all of them. The
// classic path is 2f+1 independent Verify() calls (one joint modular
// exponentiation each); the batched path (crypto/schnorr.h BatchVerify)
// reduces the whole certificate to ONE combined check evaluated as a single
// shared-squaring multi-exponentiation. This bench measures both paths at
// f ∈ {1, 2, 4} (k = 2f+1 signatures) over a population of distinct
// certificates, checks they agree — including a corrupted certificate that
// must fall back and name the culprit — and emits the costs into the BENCH
// JSON family (crypto_* metrics; wall-clock, so never baseline-gated — the
// conformance_ok bit is the exact-gated part).
//
// Three same-run ratios compare the fast paths with their references on the
// same inputs: crypto_field_mulmod_speedup (MulMod's fold reduction for p vs
// U512::Mul(a, b).Mod(p)), crypto_verify_speedup (Verify's one joint
// exponentiation vs the two-PowMod equation g^s == r·y^e) and
// crypto_sign_speedup (the fixed-base comb behind PowMod(g, k, p) vs a
// square-and-multiply ladder). Results must agree; a mismatch fails
// conformance_ok. The ratios use 1000·certs chained multiplies, 2·certs
// signatures (half of them tampered) and 10·certs nonces.
//
// Every timed path runs kRepeats times, alternating with the path it is
// compared against, and reports its median time, so one noisy pass moves no
// ratio.
//
// Usage:  bench_crypto_micro [--fs=1,2,4] [--certs=200]
//                            [--json=BENCH_crypto_micro.json] [--seed=1]

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "crypto/schnorr.h"

namespace xdeal {
namespace {

constexpr int kRepeats = 5;

template <typename Path>
double TimeMs(Path& path) {
  const auto start = std::chrono::steady_clock::now();
  path();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Runs paths `a` and `b` kRepeats times each, alternating so that both see
/// the same host noise; returns the median wall time of one run of each, ms.
template <typename A, typename B>
std::pair<double, double> MedianMs(A a, B b) {
  std::vector<double> a_ms;
  std::vector<double> b_ms;
  for (int i = 0; i < kRepeats; ++i) {
    a_ms.push_back(TimeMs(a));
    b_ms.push_back(TimeMs(b));
  }
  std::sort(a_ms.begin(), a_ms.end());
  std::sort(b_ms.begin(), b_ms.end());
  return {a_ms[kRepeats / 2], b_ms[kRepeats / 2]};
}

/// One synthetic status certificate: k validators, each signing the same
/// status message — exactly the shape VerifyQuorum batches.
struct Cert {
  std::vector<BatchItem> items;
};

std::vector<Cert> MakeCerts(size_t num_certs, size_t k, size_t f,
                            uint64_t seed) {
  // Keys model a fixed validator committee: derived once per f, shared by
  // every certificate, like a CbcService shard's committee.
  std::vector<KeyPair> committee;
  committee.reserve(k);
  for (size_t v = 0; v < k; ++v) {
    committee.push_back(KeyPair::FromSeed("crypto-micro-" +
                                          std::to_string(seed) + "-f" +
                                          std::to_string(f) + "-v" +
                                          std::to_string(v)));
  }
  std::vector<Cert> certs(num_certs);
  for (size_t c = 0; c < num_certs; ++c) {
    std::string message = "status-cert-" + std::to_string(seed) + "-f" +
                          std::to_string(f) + "-" + std::to_string(c);
    Bytes bytes(message.begin(), message.end());
    certs[c].items.reserve(k);
    for (size_t v = 0; v < k; ++v) {
      certs[c].items.push_back(
          {committee[v].public_key(), bytes, committee[v].Sign(bytes)});
    }
  }
  return certs;
}

bool RunMicro(size_t f, size_t num_certs, uint64_t seed,
              bench::JsonReport* json) {
  const size_t k = 2 * f + 1;
  std::vector<Cert> certs = MakeCerts(num_certs, k, f, seed);

  // Path 1: per-signature verification, 2f+1 Verify() calls per cert.
  // Path 2: one BatchVerify per cert.
  size_t per_sig_valid = 0;
  size_t batch_valid = 0;
  size_t fallbacks = 0;
  auto per_cert = [&] {
    per_sig_valid = 0;
    for (const Cert& cert : certs) {
      bool all = true;
      for (const BatchItem& item : cert.items) {
        all = Verify(item.key, item.message, item.sig) && all;
      }
      if (all) ++per_sig_valid;
    }
  };
  auto batch = [&] {
    batch_valid = 0;
    fallbacks = 0;
    for (const Cert& cert : certs) {
      BatchVerifyResult verdict = BatchVerify(cert.items);
      if (verdict.ok) ++batch_valid;
      if (verdict.used_fallback) ++fallbacks;
    }
  };
  const auto [per_cert_ms, batch_ms] = MedianMs(per_cert, batch);

  bool ok = true;
  if (per_sig_valid != num_certs || batch_valid != num_certs ||
      fallbacks != 0) {
    std::printf("CRYPTO MICRO FAILURE: f=%zu valid per-sig %zu batch %zu "
                "fallbacks %zu (want %zu/%zu/0)\n",
                f, per_sig_valid, batch_valid, fallbacks, num_certs,
                num_certs);
    ok = false;
  }

  // Equivalence under corruption: flip one signature in the middle of a
  // cert; the batch must fail, report the fallback ran, and name exactly
  // that index.
  Cert corrupted = certs[0];
  const int bad_index = static_cast<int>(k / 2);
  corrupted.items[bad_index].sig.s =
      corrupted.items[bad_index].sig.s.Add(U256(1));
  BatchVerifyResult verdict = BatchVerify(corrupted.items);
  if (verdict.ok || !verdict.used_fallback || verdict.first_bad != bad_index) {
    std::printf("CRYPTO MICRO FAILURE: f=%zu corrupted cert verdict ok=%d "
                "fallback=%d first_bad=%d (want 0/1/%d)\n",
                f, verdict.ok ? 1 : 0, verdict.used_fallback ? 1 : 0,
                verdict.first_bad, bad_index);
    ok = false;
  }

  double sigs = static_cast<double>(num_certs * k);
  double per_cert_sigs_per_sec = sigs / (per_cert_ms / 1000.0);
  double batch_sigs_per_sec = sigs / (batch_ms / 1000.0);
  double speedup = batch_ms > 0.0 ? per_cert_ms / batch_ms : 0.0;
  std::printf("%3zu %3zu %7zu %14.1f %14.1f %11.0f %11.0f %8.2fx\n", f, k,
              num_certs, per_cert_ms, batch_ms, per_cert_sigs_per_sec,
              batch_sigs_per_sec, speedup);

  bench::JsonReport::Labels labels = {{"f", std::to_string(f)}};
  json->AddMetric("crypto_percert_wall_ms", per_cert_ms, "ms", labels);
  json->AddMetric("crypto_batch_wall_ms", batch_ms, "ms", labels);
  json->AddMetric("crypto_percert_sigs_per_sec", per_cert_sigs_per_sec,
                  "1/s", labels);
  json->AddMetric("crypto_batch_sigs_per_sec", batch_sigs_per_sec, "1/s",
                  labels);
  json->AddMetric("crypto_batch_speedup", speedup, "x", labels);
  return ok;
}

/// Chained a <- a·b mod p, through `mul`; returns the last a.
template <typename Mul>
U256 MulModChain(size_t iters, const U256& seed, const U256& b, Mul mul) {
  U256 a = seed;
  for (size_t i = 0; i < iters; ++i) a = mul(a, b);
  return a;
}

/// The verification equation before the joint form: g^s == r·y^e (mod p),
/// as two PowMods and a MulMod.
bool TwoPowVerify(const PublicKey& key, const Bytes& message,
                  const Signature& sig) {
  const U256& p = SchnorrGroup::P();
  if (sig.r.IsZero() || key.y.IsZero()) return false;
  if (sig.r >= p || key.y >= p) return false;
  U256 e = SchnorrChallenge(sig.r, key, message);
  U256 lhs = U256::PowMod(SchnorrGroup::G(), sig.s, p);
  U256 rhs = U256::MulMod(sig.r, U256::PowMod(key.y, e, p), p);
  return lhs == rhs;
}

/// g^k mod p by the left-to-right square-and-multiply ladder: one squaring
/// per bit of k, and a doubling for each set bit.
U256 LadderPowG(const U256& k) {
  const U256& p = SchnorrGroup::P();
  U256 result(1);
  for (int i = k.BitLength() - 1; i >= 0; --i) {
    result = U256::MulMod(result, result, p);
    if (k.Bit(i)) result = U256::AddMod(result, result, p);
  }
  return result;
}

/// Same-run ratios of the fast field paths over their references.
bool RunFieldMicro(size_t mulmods, size_t num_sigs, size_t num_nonces,
                   uint64_t seed, bench::JsonReport* json) {
  const U256& p = SchnorrGroup::P();
  const U256 a0 = U256::FromHash(Sha256Digest(ToBytes(
      "field-micro-a-" + std::to_string(seed))));
  const U256 b = U256::FromHash(Sha256Digest(ToBytes(
      "field-micro-b-" + std::to_string(seed))));

  U256 fast;
  U256 oracle;
  auto fast_chain = [&] {
    fast = MulModChain(mulmods, a0, b, [&](const U256& x, const U256& y) {
      return U256::MulMod(x, y, p);
    });
  };
  auto oracle_chain = [&] {
    oracle = MulModChain(mulmods, a0, b, [&](const U256& x, const U256& y) {
      return U512::Mul(x, y).Mod(p);
    });
  };
  const auto [fast_ms, oracle_ms] = MedianMs(fast_chain, oracle_chain);

  // Valid signatures, each also tampered once, so both verdicts occur.
  std::vector<BatchItem> sigs;
  for (size_t i = 0; i < num_sigs; ++i) {
    KeyPair kp = KeyPair::FromSeed("field-micro-" + std::to_string(seed) +
                                   "-" + std::to_string(i));
    Bytes msg = ToBytes("field-micro-msg-" + std::to_string(i));
    Signature sig = kp.Sign(msg);
    sigs.push_back({kp.public_key(), msg, sig});
    sig.s = sig.s.Add(U256(1));
    sigs.push_back({kp.public_key(), msg, sig});
  }
  std::vector<bool> joint(sigs.size());
  std::vector<bool> two_pow(sigs.size());
  auto joint_verify = [&] {
    for (size_t i = 0; i < sigs.size(); ++i) {
      joint[i] = Verify(sigs[i].key, sigs[i].message, sigs[i].sig);
    }
  };
  auto two_pow_verify = [&] {
    for (size_t i = 0; i < sigs.size(); ++i) {
      two_pow[i] = TwoPowVerify(sigs[i].key, sigs[i].message, sigs[i].sig);
    }
  };
  const auto [joint_ms, two_pow_ms] = MedianMs(joint_verify, two_pow_verify);

  // Nonces shaped like Sign's k = H(x || m) mod n, raised to g both ways.
  std::vector<U256> nonces;
  for (size_t i = 0; i < num_nonces; ++i) {
    nonces.push_back(U256::Mod(
        U256::FromHash(Sha256Digest(ToBytes(
            "field-micro-k-" + std::to_string(seed) + "-" +
            std::to_string(i)))),
        SchnorrGroup::N()));
  }
  std::vector<U256> comb(nonces.size());
  std::vector<U256> ladder(nonces.size());
  auto comb_pow = [&] {
    for (size_t i = 0; i < nonces.size(); ++i) {
      comb[i] = U256::PowMod(SchnorrGroup::G(), nonces[i], p);
    }
  };
  auto ladder_pow = [&] {
    for (size_t i = 0; i < nonces.size(); ++i) {
      ladder[i] = LadderPowG(nonces[i]);
    }
  };
  const auto [comb_ms, ladder_ms] = MedianMs(comb_pow, ladder_pow);

  bool ok = true;
  if (fast != oracle) {
    std::printf("CRYPTO MICRO FAILURE: fast MulMod chain %s != oracle %s\n",
                fast.ToHex().c_str(), oracle.ToHex().c_str());
    ok = false;
  }
  if (joint != two_pow) {
    std::printf("CRYPTO MICRO FAILURE: joint Verify disagrees with the "
                "two-PowMod equation\n");
    ok = false;
  }
  if (comb != ladder) {
    std::printf("CRYPTO MICRO FAILURE: comb g^k disagrees with the "
                "square-and-multiply ladder\n");
    ok = false;
  }

  double mulmod_speedup = fast_ms > 0.0 ? oracle_ms / fast_ms : 0.0;
  double verify_speedup = joint_ms > 0.0 ? two_pow_ms / joint_ms : 0.0;
  double sign_speedup = comb_ms > 0.0 ? ladder_ms / comb_ms : 0.0;
  std::printf("MulMod mod p: %zu chained, fold %.1f ns vs Knuth %.1f ns "
              "(%.2fx)\n",
              mulmods, 1e6 * fast_ms / mulmods, 1e6 * oracle_ms / mulmods,
              mulmod_speedup);
  std::printf("Verify: %zu signatures, joint %.1f us vs two-PowMod %.1f us "
              "(%.2fx)\n",
              sigs.size(), 1e3 * joint_ms / sigs.size(),
              1e3 * two_pow_ms / sigs.size(), verify_speedup);
  std::printf("g^k: %zu nonces, comb %.1f us vs ladder %.1f us (%.2fx)\n",
              nonces.size(), 1e3 * comb_ms / nonces.size(),
              1e3 * ladder_ms / nonces.size(), sign_speedup);
  json->AddMetric("crypto_field_mulmod_speedup", mulmod_speedup, "x");
  json->AddMetric("crypto_verify_speedup", verify_speedup, "x");
  json->AddMetric("crypto_sign_speedup", sign_speedup, "x");
  return ok;
}

}  // namespace
}  // namespace xdeal

int main(int argc, char** argv) {
  using namespace xdeal;
  const char* json_path = bench::FlagValue(argc, argv, "json");
  const char* seed_flag = bench::FlagValue(argc, argv, "seed");
  const char* certs_flag = bench::FlagValue(argc, argv, "certs");
  uint64_t seed =
      seed_flag != nullptr ? std::strtoull(seed_flag, nullptr, 10) : 1;
  size_t num_certs =
      certs_flag != nullptr ? std::strtoull(certs_flag, nullptr, 10) : 200;
  if (num_certs == 0) num_certs = 1;
  std::vector<size_t> fs = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "fs"), {1, 2, 4});

  bench::JsonReport json("crypto_micro");
  json.AddConfig("seed", seed);
  json.AddConfig("certs", static_cast<uint64_t>(num_certs));

  std::printf("=== Schnorr certificate verification: per-signature vs one "
              "batched multi-exponentiation ===\n");
  std::printf("%3s %3s %7s %14s %14s %11s %11s %9s\n", "f", "k", "certs",
              "per-cert (ms)", "batched (ms)", "sigs/s", "batch sigs/s",
              "speedup");
  bool ok = true;
  for (size_t f : fs) {
    if (f == 0) continue;
    ok = RunMicro(f, num_certs, seed, &json) && ok;
  }
  std::printf("\n=== Field arithmetic for p = 2^255 - 19: fast paths vs "
              "references ===\n");
  ok = RunFieldMicro(1000 * num_certs, num_certs, 10 * num_certs, seed,
                     &json) &&
       ok;
  // The exact-gated conformance bit: both paths agreed on every cert and
  // blame attribution worked. The wall-clock metrics above are advisory.
  json.AddMetric("conformance_ok", ok ? 1 : 0);

  if (json_path != nullptr && !json.WriteFile(json_path)) ok = false;
  if (!ok) std::printf("CRYPTO MICRO FAILED\n");
  return ok ? 0 : 1;
}
