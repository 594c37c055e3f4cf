// Schnorr signature round-trips, forgery rejection, determinism,
// serialization, and keygen/Sign from worker threads on a cold comb table.

#include "crypto/schnorr.h"

#include <gtest/gtest.h>

#include "sim/worker_pool.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace xdeal {
namespace {

TEST(SchnorrTest, SignVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed("alice");
  Bytes msg = ToBytes("transfer 100 coins to bob");
  Signature sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

TEST(SchnorrTest, WrongMessageRejected) {
  KeyPair kp = KeyPair::FromSeed("alice");
  Signature sig = kp.Sign(ToBytes("message one"));
  EXPECT_FALSE(Verify(kp.public_key(), ToBytes("message two"), sig));
}

TEST(SchnorrTest, WrongKeyRejected) {
  KeyPair alice = KeyPair::FromSeed("alice");
  KeyPair bob = KeyPair::FromSeed("bob");
  Bytes msg = ToBytes("a vote");
  Signature sig = alice.Sign(msg);
  EXPECT_FALSE(Verify(bob.public_key(), msg, sig));
}

TEST(SchnorrTest, TamperedSignatureRejected) {
  KeyPair kp = KeyPair::FromSeed("carol");
  Bytes msg = ToBytes("commit deal 42");
  Signature sig = kp.Sign(msg);

  Signature bad_r = sig;
  bad_r.r = U256::AddMod(bad_r.r, U256(1), SchnorrGroup::P());
  EXPECT_FALSE(Verify(kp.public_key(), msg, bad_r));

  Signature bad_s = sig;
  bad_s.s = U256::AddMod(bad_s.s, U256(1), SchnorrGroup::N());
  EXPECT_FALSE(Verify(kp.public_key(), msg, bad_s));
}

TEST(SchnorrTest, DegenerateValuesRejected) {
  KeyPair kp = KeyPair::FromSeed("dave");
  Bytes msg = ToBytes("m");
  Signature zero_sig{U256(), U256()};
  EXPECT_FALSE(Verify(kp.public_key(), msg, zero_sig));

  PublicKey zero_key{U256()};
  EXPECT_FALSE(Verify(zero_key, msg, kp.Sign(msg)));

  // r >= p must be rejected.
  Signature big_r = kp.Sign(msg);
  big_r.r = SchnorrGroup::P();
  EXPECT_FALSE(Verify(kp.public_key(), msg, big_r));
}

TEST(SchnorrTest, DeterministicKeysAndSignatures) {
  KeyPair a1 = KeyPair::FromSeed("seed-x");
  KeyPair a2 = KeyPair::FromSeed("seed-x");
  EXPECT_EQ(a1.public_key(), a2.public_key());

  Bytes msg = ToBytes("hello");
  EXPECT_EQ(a1.Sign(msg), a2.Sign(msg));

  KeyPair b = KeyPair::FromSeed("seed-y");
  EXPECT_FALSE(a1.public_key() == b.public_key());
}

TEST(SchnorrTest, SerializationRoundTrip) {
  KeyPair kp = KeyPair::FromSeed("erin");
  Signature sig = kp.Sign(ToBytes("payload"));
  Bytes wire = sig.Serialize();
  ASSERT_EQ(wire.size(), 64u);
  auto parsed = Signature::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), sig);
  EXPECT_TRUE(Verify(kp.public_key(), ToBytes("payload"), parsed.value()));
}

TEST(SchnorrTest, DeserializeBadLength) {
  EXPECT_FALSE(Signature::Deserialize(Bytes(63)).ok());
  EXPECT_FALSE(Signature::Deserialize(Bytes(65)).ok());
}

TEST(SchnorrTest, ManyKeysManyMessages) {
  Rng rng(2024);
  for (int i = 0; i < 10; ++i) {
    KeyPair kp = KeyPair::FromSeed("party-" + std::to_string(i));
    for (int j = 0; j < 3; ++j) {
      Bytes msg(16);
      for (auto& b : msg) b = static_cast<uint8_t>(rng.Below(256));
      Signature sig = kp.Sign(msg);
      EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
      msg[0] ^= 0xFF;
      EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
    }
  }
}

TEST(SchnorrTest, FingerprintStable) {
  KeyPair kp = KeyPair::FromSeed("frank");
  EXPECT_EQ(kp.public_key().Fingerprint(), kp.public_key().Fingerprint());
  EXPECT_EQ(kp.public_key().Fingerprint().size(), 8u);
}

// --- batched verification ---

std::vector<BatchItem> MakeBatch(size_t k, const std::string& prefix) {
  std::vector<BatchItem> items;
  for (size_t i = 0; i < k; ++i) {
    KeyPair kp = KeyPair::FromSeed(prefix + "-signer-" + std::to_string(i));
    Bytes msg = ToBytes(prefix + "-msg-" + std::to_string(i % 3));
    items.push_back({kp.public_key(), msg, kp.Sign(msg)});
  }
  return items;
}

TEST(SchnorrBatchTest, EmptyBatchVerifiesTrivially) {
  BatchVerifyResult verdict = BatchVerify({});
  EXPECT_TRUE(verdict.ok);
  EXPECT_FALSE(verdict.used_fallback);
  EXPECT_EQ(verdict.first_bad, -1);
}

TEST(SchnorrBatchTest, ValidBatchesMatchIndividualVerification) {
  // Every batch size from 1 to 11, so the windowed multi-exponentiation
  // runs 3 to 23 terms: the combined check must accept exactly when every
  // item verifies alone, without running the fallback, and one tampered
  // item must fail both ways.
  for (size_t k = 1; k <= 11; ++k) {
    std::vector<BatchItem> items = MakeBatch(k, "ok-" + std::to_string(k));
    for (const BatchItem& item : items) {
      ASSERT_TRUE(Verify(item.key, item.message, item.sig));
    }
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_TRUE(verdict.ok) << "k=" << k;
    EXPECT_FALSE(verdict.used_fallback) << "k=" << k;
    EXPECT_EQ(verdict.first_bad, -1) << "k=" << k;

    const size_t bad = k / 2;
    items[bad].sig.s = items[bad].sig.s.Add(U256(1));
    EXPECT_FALSE(Verify(items[bad].key, items[bad].message, items[bad].sig));
    verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok) << "k=" << k;
    EXPECT_EQ(verdict.first_bad, static_cast<int>(bad)) << "k=" << k;
  }
}

TEST(SchnorrBatchTest, CorruptedBatchFallsBackAndNamesTheCulprit) {
  // Whichever single item is corrupted — tampered s, tampered r, wrong
  // message, swapped key — the combined check fails, the per-signature
  // fallback runs, and first_bad is exactly the corrupted index.
  for (size_t bad : {0u, 2u, 4u}) {
    std::vector<BatchItem> items = MakeBatch(5, "bad-s");
    items[bad].sig.s = U256::AddMod(items[bad].sig.s, U256(1),
                                    SchnorrGroup::N());
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok) << "bad=" << bad;
    EXPECT_TRUE(verdict.used_fallback) << "bad=" << bad;
    EXPECT_EQ(verdict.first_bad, static_cast<int>(bad));
  }
  {
    std::vector<BatchItem> items = MakeBatch(5, "bad-msg");
    items[3].message = ToBytes("a different message");
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_TRUE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 3);
  }
  {
    std::vector<BatchItem> items = MakeBatch(5, "bad-key");
    items[1].key = KeyPair::FromSeed("impostor").public_key();
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_TRUE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 1);
  }
}

TEST(SchnorrBatchTest, MultipleBadItemsReportTheFirst) {
  std::vector<BatchItem> items = MakeBatch(7, "multi-bad");
  items[2].sig.s = U256::AddMod(items[2].sig.s, U256(1), SchnorrGroup::N());
  items[5].sig.s = U256::AddMod(items[5].sig.s, U256(1), SchnorrGroup::N());
  BatchVerifyResult verdict = BatchVerify(items);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.used_fallback);
  EXPECT_EQ(verdict.first_bad, 2);
}

TEST(SchnorrBatchTest, DegenerateValuesRejectedBeforeTheCombinedCheck) {
  // Zero r, zero y, and out-of-range r are caught by the pre-checks (the
  // combined equation would misbehave on them), attributed without running
  // the fallback path.
  {
    std::vector<BatchItem> items = MakeBatch(3, "degen-r");
    items[1].sig.r = U256();
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 1);
  }
  {
    std::vector<BatchItem> items = MakeBatch(3, "degen-y");
    items[2].key = PublicKey{U256()};
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 2);
  }
  {
    std::vector<BatchItem> items = MakeBatch(3, "degen-range");
    items[0].sig.r = SchnorrGroup::P();
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 0);
  }
}

// The i-th batch coefficient z_i as derived from a Fiat-Shamir seed over
// (r, y, m) of every item but not s.
U256 CoefficientFromSeedWithoutS(const std::vector<BatchItem>& items,
                                 uint64_t index) {
  ByteWriter seed_writer;
  seed_writer.Str("xdeal-batch-seed-v1");
  for (const BatchItem& item : items) {
    seed_writer.Raw(item.sig.r.ToBytes());
    seed_writer.Raw(item.key.y.ToBytes());
    seed_writer.Blob(item.message);
  }
  Hash256 seed = Sha256Digest(seed_writer.bytes());
  ByteWriter w;
  w.Str("xdeal-batch-z-v1");
  w.Raw(seed.bytes.data(), seed.bytes.size());
  w.U64(index);
  U256 z = U256::FromHash(Sha256Digest(w.bytes()));
  z = U256::FromLimbsBigEndian(0, 0, z.limb(1), z.limb(0));
  if (!z.IsOdd()) z = z.Add(U256(1));
  return z;
}

TEST(SchnorrBatchTest, ShiftingSValuesAgainstTheCoefficientsIsCaught) {
  // With z_i fixed before s is, s_0 += δ·z_1 and s_1 -= δ·z_0 (mod n)
  // leave Σ z_i·s_i unchanged: the combined equation would still hold while
  // both signatures fail alone. Seeding the coefficients with s as well
  // makes the batch verdict match per-signature verification again.
  const U256& n = SchnorrGroup::N();
  std::vector<BatchItem> items = MakeBatch(3, "malleable");
  U256 z0 = CoefficientFromSeedWithoutS(items, 0);
  U256 z1 = CoefficientFromSeedWithoutS(items, 1);
  const U256 delta(0x5eed);
  items[0].sig.s = U256::AddMod(items[0].sig.s, U256::MulMod(delta, z1, n), n);
  items[1].sig.s = U256::SubMod(items[1].sig.s, U256::MulMod(delta, z0, n), n);
  ASSERT_FALSE(Verify(items[0].key, items[0].message, items[0].sig));
  ASSERT_FALSE(Verify(items[1].key, items[1].message, items[1].sig));
  ASSERT_TRUE(Verify(items[2].key, items[2].message, items[2].sig));

  BatchVerifyResult verdict = BatchVerify(items);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.used_fallback);
  EXPECT_EQ(verdict.first_bad, 0);
}

TEST(SchnorrBatchTest, QuorumShapedBatchesAgreeWithPerSigOverManySeeds) {
  // Randomized differential sweep shaped like status certificates (same
  // message, 2f+1 distinct signers), occasionally corrupted: BatchVerify's
  // verdict must equal per-signature verification every time.
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    size_t f = 1 + rng.Below(4);
    size_t k = 2 * f + 1;
    Bytes msg(24);
    for (auto& b : msg) b = static_cast<uint8_t>(rng.Below(256));
    std::vector<BatchItem> items;
    for (size_t v = 0; v < k; ++v) {
      KeyPair kp = KeyPair::FromSeed("sweep-" + std::to_string(round) + "-" +
                                     std::to_string(v));
      items.push_back({kp.public_key(), msg, kp.Sign(msg)});
    }
    int corrupted = -1;
    if (rng.Below(2) == 0) {
      corrupted = static_cast<int>(rng.Below(k));
      items[corrupted].sig.s = U256::AddMod(items[corrupted].sig.s, U256(1),
                                            SchnorrGroup::N());
    }
    bool all_valid = true;
    int first_bad = -1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!Verify(items[i].key, items[i].message, items[i].sig)) {
        all_valid = false;
        if (first_bad < 0) first_bad = static_cast<int>(i);
      }
    }
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_EQ(verdict.ok, all_valid) << "round " << round;
    EXPECT_EQ(verdict.first_bad, first_bad) << "round " << round;
    EXPECT_EQ(verdict.used_fallback, corrupted >= 0) << "round " << round;
  }
}

TEST(SchnorrConcurrencyTest, ColdCombTableFromFourWorkerPoolThreads) {
  // ctest runs each test case in its own process, so the fixed-base comb
  // table for g = 2 is still unbuilt when the four workers first reach it
  // through keygen and Sign. Their results must match a single-threaded
  // rerun, computed afterwards so it cannot warm the table first.
  constexpr size_t kParties = 64;
  const auto seed = [](size_t i) { return "cold-comb-" + std::to_string(i); };
  const auto message = [](size_t i) {
    return ToBytes("cold comb vote " + std::to_string(i));
  };
  std::vector<PublicKey> keys(kParties);
  std::vector<Signature> sigs(kParties);
  {
    WorkerPool pool(4);
    pool.ParallelFor(kParties, [&](size_t i) {
      KeyPair kp = KeyPair::FromSeed(seed(i));
      keys[i] = kp.public_key();
      sigs[i] = kp.Sign(message(i));
    });
  }
  for (size_t i = 0; i < kParties; ++i) {
    KeyPair kp = KeyPair::FromSeed(seed(i));
    EXPECT_EQ(keys[i], kp.public_key()) << "party " << i;
    EXPECT_EQ(sigs[i], kp.Sign(message(i))) << "party " << i;
    EXPECT_TRUE(Verify(keys[i], message(i), sigs[i])) << "party " << i;
  }
}

}  // namespace
}  // namespace xdeal
