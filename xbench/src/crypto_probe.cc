#include "crypto_probe.h"

#include <string>
#include <vector>

#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "crypto/u256.h"

namespace xbench {

using xdeal::BatchItem;
using xdeal::BatchVerifyResult;
using xdeal::Bytes;
using xdeal::KeyPair;
using xdeal::SchnorrGroup;
using xdeal::Signature;
using xdeal::U256;

namespace {

// Fixed operands: arbitrary 255-bit values below p, not special in any way.
const U256 kA = U256::FromLimbsBigEndian(
    0x3a1f5c7e9b2d4f60ULL, 0x8e6d4c2b1a0f9e8dULL, 0x7c6b5a4938271605ULL,
    0xf4e3d2c1b0a99887ULL);
const U256 kB = U256::FromLimbsBigEndian(
    0x1b3d5f7092a4c6e8ULL, 0x0f1e2d3c4b5a6978ULL, 0x8796a5b4c3d2e1f0ULL,
    0x0123456789abcdefULL);

Bytes MessageOf(int i) {
  std::string s = "xbench-probe-message-" + std::to_string(i);
  return Bytes(s.begin(), s.end());
}

/// Times `body` (which performs `ops_per_batch` calls) in batches until
/// `seconds` have passed; returns the median per-call time in ns.
template <typename Body>
double TimePerCallNs(double seconds, int ops_per_batch, Body body) {
  std::vector<double> per_call;
  const Clock::time_point start = Clock::now();
  do {
    int64_t t0 = NowNs();
    body();
    int64_t t1 = NowNs();
    per_call.push_back(static_cast<double>(t1 - t0) / ops_per_batch);
  } while (SecondsSince(start) < seconds || per_call.size() < 5);
  return Median(per_call);
}

void SelfCheck(const std::vector<KeyPair>& keys, Checks* checks) {
  const U256& p = SchnorrGroup::P();
  const U256 one(1);

  // Field arithmetic against independent paths: the binary-GCD inverse,
  // Fermat's little theorem, and squaring through PowMod.
  U256 ab = U256::MulMod(kA, kB, p);
  checks->Expect(ab == U256::MulMod(kB, kA, p), "crypto: MulMod commutes");
  checks->Expect(U256::MulMod(kA, U256::InvMod(kA, p), p) == one,
                 "crypto: MulMod(a, InvMod(a)) == 1");
  checks->Expect(U256::MulMod(ab, U256::InvMod(kB, p), p) == kA,
                 "crypto: (a*b)/b == a");
  checks->Expect(U256::PowMod(kA, p.Sub(one), p) == one,
                 "crypto: a^(p-1) == 1 (Fermat)");
  checks->Expect(U256::PowMod(kA, U256(2), p) == U256::MulMod(kA, kA, p),
                 "crypto: PowMod(a, 2) == MulMod(a, a)");
  checks->Expect(U256::MulMod(p.Sub(one), p.Sub(one), p) == one,
                 "crypto: (p-1)^2 == 1");

  // SHA-256 known answer (FIPS 180-2, "abc").
  checks->Expect(
      U256::FromHash(xdeal::Sha256Digest(std::string_view("abc"))).ToHex() ==
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
      "crypto: SHA-256(\"abc\") known answer");

  // Sign -> Verify, and rejection of a corrupted signature or message.
  std::vector<BatchItem> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    Bytes msg = MessageOf(static_cast<int>(i));
    Signature sig = keys[i].Sign(msg);
    checks->Expect(xdeal::Verify(keys[i].public_key(), msg, sig),
                   "crypto: Verify accepts a fresh signature");
    Signature bad = sig;
    bad.s = U256::AddMod(bad.s, one, SchnorrGroup::N());
    checks->Expect(!xdeal::Verify(keys[i].public_key(), msg, bad),
                   "crypto: Verify rejects a corrupted signature");
    checks->Expect(!xdeal::Verify(keys[i].public_key(), MessageOf(-1), sig),
                   "crypto: Verify rejects a signature on another message");
    batch.push_back(BatchItem{keys[i].public_key(), msg, sig});
  }

  // BatchVerify must agree with per-signature Verify and blame the culprit.
  BatchVerifyResult good = xdeal::BatchVerify(batch);
  checks->Expect(good.ok && good.first_bad == -1,
                 "crypto: BatchVerify accepts a valid batch");
  for (size_t bad_at = 0; bad_at < batch.size(); ++bad_at) {
    std::vector<BatchItem> corrupted = batch;
    corrupted[bad_at].sig.r =
        U256::MulMod(corrupted[bad_at].sig.r, U256(2), SchnorrGroup::P());
    bool individually_ok = true;
    for (const BatchItem& item : corrupted) {
      individually_ok =
          individually_ok && xdeal::Verify(item.key, item.message, item.sig);
    }
    BatchVerifyResult r = xdeal::BatchVerify(corrupted);
    checks->Expect(!individually_ok && r.ok == individually_ok,
                   "crypto: BatchVerify agrees with per-signature Verify");
    checks->Expect(r.first_bad == static_cast<int>(bad_at),
                   "crypto: BatchVerify blames the corrupted item");
  }
}

}  // namespace

CryptoTimes ProbeCrypto(double seconds_each, Checks* checks) {
  std::vector<KeyPair> keys;
  for (int i = 0; i < 5; ++i) {
    keys.push_back(KeyPair::FromSeed("xbench-probe-key-" + std::to_string(i)));
  }
  SelfCheck(keys, checks);

  const U256& p = SchnorrGroup::P();
  CryptoTimes t;
  // Each timed body feeds its result into the next call, so no call can be
  // hoisted or dropped; `sink` keeps the last result observable.
  volatile uint64_t sink = 0;

  U256 acc = kA;
  t.mulmod_ns = TimePerCallNs(seconds_each, 2000, [&] {
    for (int i = 0; i < 2000; ++i) acc = U256::MulMod(acc, kB, p);
  });
  sink = sink + acc.Low64();

  U256 base = kB;
  t.powmod_us = 1e-3 * TimePerCallNs(seconds_each, 8, [&] {
    for (int i = 0; i < 8; ++i) base = U256::PowMod(base, kA, p);
  });
  sink = sink + base.Low64();

  int key_counter = 0;
  t.keygen_us = 1e-3 * TimePerCallNs(seconds_each, 8, [&] {
    for (int i = 0; i < 8; ++i) {
      KeyPair kp = KeyPair::FromSeed("keygen-" + std::to_string(key_counter++));
      sink = sink + kp.public_key().y.Low64();
    }
  });

  const Bytes msg = MessageOf(7);
  t.sign_us = 1e-3 * TimePerCallNs(seconds_each, 8, [&] {
    for (int i = 0; i < 8; ++i) {
      sink = sink + keys[static_cast<size_t>(i) % keys.size()].Sign(msg).s.Low64();
    }
  });

  const Signature sig = keys[0].Sign(msg);
  bool all_ok = true;
  t.verify_us = 1e-3 * TimePerCallNs(seconds_each, 4, [&] {
    for (int i = 0; i < 4; ++i) {
      all_ok = all_ok && xdeal::Verify(keys[0].public_key(), msg, sig);
    }
  });
  checks->Expect(all_ok, "crypto: Verify stays true under timing");

  std::vector<BatchItem> batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    Bytes m = MessageOf(static_cast<int>(i) + 100);
    batch.push_back(BatchItem{keys[i].public_key(), m, keys[i].Sign(m)});
  }
  bool batch_ok = true;
  t.batch_verify5_us = 1e-3 * TimePerCallNs(seconds_each, 2, [&] {
    for (int i = 0; i < 2; ++i) batch_ok = batch_ok && xdeal::BatchVerify(batch).ok;
  });
  checks->Expect(batch_ok, "crypto: BatchVerify stays true under timing");

  Bytes block(64, 0x5a);
  t.sha256_64B_ns = TimePerCallNs(seconds_each, 4000, [&] {
    for (int i = 0; i < 4000; ++i) {
      xdeal::Hash256 h = xdeal::Sha256Digest(block);
      block[0] = h.bytes[0];
    }
  });
  sink = sink + block[0];
  (void)sink;
  return t;
}

}  // namespace xbench
