// U256 arithmetic: hex round-trips, comparison, add/sub/mul/mod identities,
// Knuth-division cross-checked against __int128 for small values and against
// algebraic identities for full-width values; the fold reduction for the
// Schnorr prime, the fixed-base comb for 2, the 4-bit windowed
// multi-exponentiation and the joint Verify cross-checked against
// square-and-multiply on U512::Mul(a, b).Mod(m).

#include "crypto/u256.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "crypto/schnorr.h"
#include "util/rng.h"

namespace xdeal {
namespace {

U256 RandomU256(Rng* rng) {
  return U256::FromLimbsBigEndian(rng->Next64(), rng->Next64(), rng->Next64(),
                                  rng->Next64());
}

TEST(U256Test, HexRoundTrip) {
  bool ok = false;
  U256 v = U256::FromHex(
      "00112233445566778899aabbccddeeff0123456789abcdef0fedcba987654321", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v.ToHex(),
            "00112233445566778899aabbccddeeff0123456789abcdef0fedcba987654321");
}

TEST(U256Test, HexShortAndPrefix) {
  bool ok = false;
  EXPECT_EQ(U256::FromHex("ff", &ok), U256(255));
  EXPECT_TRUE(ok);
  EXPECT_EQ(U256::FromHex("0x10", &ok), U256(16));
  EXPECT_TRUE(ok);
  U256::FromHex("zz", &ok);
  EXPECT_FALSE(ok);
  U256::FromHex("", &ok);
  EXPECT_FALSE(ok);
}

TEST(U256Test, BytesRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    U256 v = RandomU256(&rng);
    Bytes b = v.ToBytes();
    ASSERT_EQ(b.size(), 32u);
    Hash256 h;
    std::copy(b.begin(), b.end(), h.bytes.begin());
    EXPECT_EQ(U256::FromHash(h), v);
  }
}

TEST(U256Test, CompareBasic) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_GT(U256::FromLimbsBigEndian(1, 0, 0, 0), U256(0xFFFFFFFFFFFFFFFFULL));
  EXPECT_EQ(U256(5).Compare(U256(5)), 0);
}

TEST(U256Test, AddSubInverse) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = RandomU256(&rng);
    EXPECT_EQ(a.Add(b).Sub(b), a);
    EXPECT_EQ(a.Sub(b).Add(b), a);
  }
}

TEST(U256Test, AddCarryPropagates) {
  U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  uint64_t carry = 0;
  U256 sum = max.AddWithCarry(U256(1), &carry);
  EXPECT_TRUE(sum.IsZero());
  EXPECT_EQ(carry, 1u);
}

TEST(U256Test, ShiftIdentities) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    U256 a = RandomU256(&rng);
    unsigned s = static_cast<unsigned>(rng.Below(256));
    // (a << s) >> s recovers the low bits of a.
    U256 masked = a.ShiftLeft(s).ShiftRight(s);
    U256 expect = s == 0 ? a
                         : a.ShiftLeft(s).ShiftRight(s);  // self-consistent
    EXPECT_EQ(masked, expect);
    // Shifting by >= 256 yields zero.
    EXPECT_TRUE(a.ShiftLeft(256).IsZero());
    EXPECT_TRUE(a.ShiftRight(256).IsZero());
  }
  EXPECT_EQ(U256(1).ShiftLeft(64), U256::FromLimbsBigEndian(0, 0, 1, 0));
  EXPECT_EQ(U256::FromLimbsBigEndian(0, 0, 1, 0).ShiftRight(64), U256(1));
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256().BitLength(), 0);
  EXPECT_EQ(U256(1).BitLength(), 1);
  EXPECT_EQ(U256(255).BitLength(), 8);
  EXPECT_EQ(U256::FromLimbsBigEndian(1, 0, 0, 0).BitLength(), 193);
}

TEST(U256Test, MulModSmallMatchesInt128) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next64();
    uint64_t b = rng.Next64();
    uint64_t m = rng.Next64() | 1;  // nonzero
    __uint128_t expect = (static_cast<__uint128_t>(a) * b) % m;
    U256 got = U256::MulMod(U256(a), U256(b), U256(m));
    EXPECT_EQ(got, U256(static_cast<uint64_t>(expect)));
  }
}

TEST(U256Test, ModSmallMatchesNative) {
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next64();
    uint64_t m = rng.Next64() | 1;
    EXPECT_EQ(U256::Mod(U256(a), U256(m)), U256(a % m));
  }
}

TEST(U256Test, ModIdentityFullWidth) {
  // For random full-width a and m: r = a mod m satisfies r < m, and
  // (a - r) mod m == 0 via AddMod reconstruction.
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    U256 a = RandomU256(&rng);
    U256 m = RandomU256(&rng);
    if (m.IsZero()) m = U256(1);
    U256 r = U256::Mod(a, m);
    EXPECT_LT(r, m);
    EXPECT_TRUE(U256::SubMod(a, r, m).IsZero());
  }
}

TEST(U256Test, ModAtTheModulusBoundary) {
  // Inputs below m come back as they are; m itself and everything above it
  // still reduce. U512::Mod always divides, so it is the reference.
  Rng rng(29);
  const U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  for (const U256& m : {U256(1), U256(7), SchnorrGroup::P(), SchnorrGroup::N(),
                        RandomU256(&rng)}) {
    std::vector<U256> values = {U256(),           U256(1), m.Sub(U256(1)), m,
                                m.Add(U256(1)),   max,     RandomU256(&rng)};
    uint64_t carry = 0;
    U256 twice_less_one = m.AddWithCarry(m.Sub(U256(1)), &carry);
    if (carry == 0) values.push_back(twice_less_one);
    for (const U256& a : values) {
      EXPECT_EQ(U256::Mod(a, m), U512::Mul(a, U256(1)).Mod(m))
          << a.ToHex() << " mod " << m.ToHex();
    }
    EXPECT_TRUE(U256::Mod(m, m).IsZero());
  }
}

TEST(U256Test, MulModAlgebra) {
  // Distributivity and commutativity mod a full-width modulus.
  Rng rng(29);
  for (int i = 0; i < 60; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = RandomU256(&rng);
    U256 c = RandomU256(&rng);
    U256 m = RandomU256(&rng);
    if (m.IsZero()) m = U256(97);
    EXPECT_EQ(U256::MulMod(a, b, m), U256::MulMod(b, a, m));
    // a*(b+c) == a*b + a*c (mod m)
    U256 lhs = U256::MulMod(a, U256::AddMod(b, c, m), m);
    U256 rhs = U256::AddMod(U256::MulMod(a, b, m), U256::MulMod(a, c, m), m);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(U256Test, PowModSmall) {
  EXPECT_EQ(U256::PowMod(U256(2), U256(10), U256(1000000007)), U256(1024));
  EXPECT_EQ(U256::PowMod(U256(3), U256(0), U256(7)), U256(1));
  EXPECT_EQ(U256::PowMod(U256(0), U256(5), U256(7)), U256(0));
  // Fermat: a^(p-1) = 1 mod p for prime p.
  EXPECT_EQ(U256::PowMod(U256(123456789), U256(1000000006), U256(1000000007)),
            U256(1));
}

TEST(U256Test, PowModExponentLaws) {
  // g^(a+b) == g^a * g^b mod p over the Schnorr prime.
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    U256 a = U256::Mod(RandomU256(&rng), n);
    U256 b = U256::Mod(RandomU256(&rng), n);
    U256 lhs = U256::PowMod(U256(2), U256::AddMod(a, b, n), p);
    U256 rhs = U256::MulMod(U256::PowMod(U256(2), a, p),
                            U256::PowMod(U256(2), b, p), p);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(U256Test, FermatOnSchnorrPrime) {
  // 2^255-19 is prime: a^(p-1) == 1 (mod p) for a not divisible by p.
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();  // p - 1
  Rng rng(37);
  for (int i = 0; i < 5; ++i) {
    U256 a = U256::Mod(RandomU256(&rng), p);
    if (a.IsZero()) a = U256(2);
    EXPECT_EQ(U256::PowMod(a, n, p), U256(1));
  }
}

TEST(U256Test, InvModPrime) {
  const U256& p = SchnorrGroup::P();
  Rng rng(41);
  for (int i = 0; i < 10; ++i) {
    U256 a = U256::Mod(RandomU256(&rng), p);
    if (a.IsZero()) a = U256(3);
    U256 inv = U256::InvMod(a, p);
    EXPECT_EQ(U256::MulMod(a, inv, p), U256(1));
  }
}

TEST(U256Test, InvModNonInvertible) {
  // gcd(6, 9) = 3, not invertible.
  EXPECT_TRUE(U256::InvMod(U256(6), U256(9)).IsZero());
}

TEST(U256Test, U512MulMatchesInt128) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t a = rng.Next64();
    uint64_t b = rng.Next64();
    U512 prod = U512::Mul(U256(a), U256(b));
    __uint128_t expect = static_cast<__uint128_t>(a) * b;
    EXPECT_EQ(prod.limbs[0], static_cast<uint64_t>(expect));
    EXPECT_EQ(prod.limbs[1], static_cast<uint64_t>(expect >> 64));
    for (int j = 2; j < 8; ++j) EXPECT_EQ(prod.limbs[j], 0u);
  }
}

TEST(U256Test, U512ModReconstruction) {
  // For a,b full width: (a*b) mod m computed two ways must agree:
  // direct U512 path vs iterated AddMod over the binary expansion of b.
  Rng rng(47);
  for (int i = 0; i < 10; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = U256(rng.Below(1 << 20));  // keep the slow path cheap
    U256 m = RandomU256(&rng);
    if (m.IsZero()) m = U256(101);

    U256 fast = U256::MulMod(a, b, m);

    U256 slow;
    U256 addend = U256::Mod(a, m);
    uint64_t bits = b.Low64();
    while (bits > 0) {
      if (bits & 1) slow = U256::AddMod(slow, addend, m);
      addend = U256::AddMod(addend, addend, m);
      bits >>= 1;
    }
    EXPECT_EQ(fast, slow);
  }
}

// ---------------------------------------------------------------------------
// Fast p = 2^255 - 19 path vs the Knuth-division oracle.
// ---------------------------------------------------------------------------

U256 OracleMulMod(const U256& a, const U256& b, const U256& m) {
  return U512::Mul(a, b).Mod(m);
}

// Left-to-right square-and-multiply on the oracle multiply.
U256 OraclePowMod(const U256& base, const U256& exp, const U256& m) {
  U256 result = U256::Mod(U256(1), m);
  for (int i = exp.BitLength() - 1; i >= 0; --i) {
    result = OracleMulMod(result, result, m);
    if (exp.Bit(i)) result = OracleMulMod(result, base, m);
  }
  return result;
}

const U256 kMax256 = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);

// 0, 1, 2, p-1, p, p+1, 2^255, 2^256-1: operands at and above p included.
std::vector<U256> EdgeOperands() {
  const U256& p = SchnorrGroup::P();
  return {U256(),         U256(1), U256(2),
          p.Sub(U256(1)), p,       p.Add(U256(1)),
          U256(1).ShiftLeft(255), kMax256};
}

// The fold of a·b = hi·2^256 + lo into lo + 38·hi = c·2^256 + r. Reports
// whether r lands in [p, 2^256) with c == 0 (the fold needs a final
// subtraction), and whether folding c in as 38·c carries past 2^256 again.
void ClassifyFold(const U256& a, const U256& b, bool* lands_at_or_above_p,
                  bool* carries_again) {
  U512 t = U512::Mul(a, b);
  U256 lo = U256::FromLimbsBigEndian(t.limbs[3], t.limbs[2], t.limbs[1],
                                     t.limbs[0]);
  U256 hi = U256::FromLimbsBigEndian(t.limbs[7], t.limbs[6], t.limbs[5],
                                     t.limbs[4]);
  U512 scaled = U512::Mul(hi, U256(38));
  U256 scaled_lo = U256::FromLimbsBigEndian(scaled.limbs[3], scaled.limbs[2],
                                            scaled.limbs[1], scaled.limbs[0]);
  uint64_t add_carry = 0;
  U256 r = lo.AddWithCarry(scaled_lo, &add_carry);
  uint64_t c = scaled.limbs[4] + add_carry;
  uint64_t again = 0;
  r.AddWithCarry(U256(38 * c), &again);
  *lands_at_or_above_p = c == 0 && r >= SchnorrGroup::P();
  *carries_again = again != 0;
}

TEST(U256FastPathTest, MulModMatchesOracleOnEdgesAndRandom) {
  const U256& p = SchnorrGroup::P();
  std::vector<U256> operands = EdgeOperands();
  Rng rng(53);
  for (int i = 0; i < 24; ++i) operands.push_back(RandomU256(&rng));
  for (const U256& a : operands) {
    for (const U256& b : operands) {
      EXPECT_EQ(U256::MulMod(a, b, p), OracleMulMod(a, b, p))
          << a.ToHex() << " * " << b.ToHex();
    }
  }
  for (int i = 0; i < 2000; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = RandomU256(&rng);
    ASSERT_EQ(U256::MulMod(a, b, p), OracleMulMod(a, b, p))
        << a.ToHex() << " * " << b.ToHex();
  }
}

TEST(U256FastPathTest, MulModFoldLandingAtOrAboveP) {
  // Products below 2^256 fold to themselves; these sit in [p, 2^256), the
  // last ones in [2p, 2^256) where two subtractions of p are needed.
  const U256& p = SchnorrGroup::P();
  const U256 low128 = U256::FromLimbsBigEndian(0, 0, ~0ULL, ~0ULL);
  std::vector<std::pair<U256, U256>> cases = {
      {low128, low128},
      {U256(1), p},
      {U256(1), p.Add(U256(1))},
      {U256(1), kMax256.Sub(U256(38))},
      {U256(1), kMax256.Sub(U256(37))},
      {U256(1), kMax256},
      {U256(2), p.Sub(U256(1))},
  };
  for (const auto& [a, b] : cases) {
    bool above_p = false;
    bool carries_again = false;
    ClassifyFold(a, b, &above_p, &carries_again);
    EXPECT_TRUE(above_p) << a.ToHex() << " * " << b.ToHex();
    EXPECT_EQ(U256::MulMod(a, b, p), OracleMulMod(a, b, p))
        << a.ToHex() << " * " << b.ToHex();
  }
}

TEST(U256FastPathTest, MulModCarryFoldThatCarriesAgain) {
  // (2^256 - x)(2^256 - y) folds to 38·2^256 + xy - 38(x + y); the carry
  // fold wraps again exactly when (x - 38)(y - 38) lies in [38, 1444).
  const U256& p = SchnorrGroup::P();
  const std::vector<std::pair<uint64_t, uint64_t>> offsets = {
      {39, 76}, {76, 39}, {50, 50}, {75, 75}, {40, 57}, {39, 1481}};
  for (const auto& [x, y] : offsets) {
    U256 a = kMax256.Sub(U256(x - 1));
    U256 b = kMax256.Sub(U256(y - 1));
    bool above_p = false;
    bool carries_again = false;
    ClassifyFold(a, b, &above_p, &carries_again);
    EXPECT_TRUE(carries_again) << "x=" << x << " y=" << y;
    EXPECT_EQ(U256::MulMod(a, b, p), OracleMulMod(a, b, p))
        << "x=" << x << " y=" << y;
  }
}

TEST(U256FastPathTest, ModuliNextToPTakeTheGenericPath) {
  const U256& p = SchnorrGroup::P();
  Rng rng(59);
  for (const U256& m : {p.Sub(U256(1)), p.Add(U256(1)), p.Add(U256(2))}) {
    for (int i = 0; i < 50; ++i) {
      U256 a = RandomU256(&rng);
      U256 b = RandomU256(&rng);
      EXPECT_EQ(U256::MulMod(a, b, m), OracleMulMod(a, b, m));
    }
  }
}

TEST(U256FastPathTest, PowModBaseTwoMatchesOracle) {
  // PowMod(2, e, p) is the fixed-base comb, for every 256-bit e.
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();
  std::vector<U256> exps = {U256(),          U256(1),  U256(2),
                            U256(15),        U256(16), U256(255),
                            U256(256),       n.Sub(U256(1)), n,
                            p.Sub(U256(1)),  p,        U256(1).ShiftLeft(255),
                            kMax256};
  // 2^(4k) ± 1: the nibble boundaries, where the comb changes row.
  for (unsigned k = 1; k < 64; ++k) {
    exps.push_back(U256(1).ShiftLeft(4 * k).Add(U256(1)));
    exps.push_back(U256(1).ShiftLeft(4 * k).Sub(U256(1)));
  }
  // Every single-nibble pattern j·16^i: each comb entry on its own.
  for (unsigned i = 0; i < 64; ++i) {
    for (uint64_t j = 1; j < 16; ++j) {
      exps.push_back(U256(j).ShiftLeft(4 * i));
    }
  }
  Rng rng(61);
  for (int i = 0; i < 2000; ++i) exps.push_back(RandomU256(&rng));
  for (const U256& e : exps) {
    ASSERT_EQ(U256::PowMod(U256(2), e, p), OraclePowMod(U256(2), e, p))
        << e.ToHex();
  }
  // A base that reduces to 2 takes the comb too.
  U256 e = RandomU256(&rng);
  EXPECT_EQ(U256::PowMod(p.Add(U256(2)), e, p), OraclePowMod(U256(2), e, p));
}

// The product of oracle powers Π base_i^{e_i} mod m, each base reduced.
U256 OracleMultiExp(const std::vector<std::pair<U256, U256>>& terms,
                    const U256& m) {
  U256 expect = U256::Mod(U256(1), m);
  for (const auto& [base, e] : terms) {
    expect = OracleMulMod(
        expect, OraclePowMod(OracleMulMod(base, U256(1), m), e, m), m);
  }
  return expect;
}

std::string TermsToString(const std::vector<std::pair<U256, U256>>& terms) {
  std::string out;
  for (const auto& [base, e] : terms) {
    out += "(" + base.ToHex() + ", " + e.ToHex() + ") ";
  }
  return out;
}

TEST(U256FastPathTest, PowModAndMultiExpOtherBasesMatchOracle) {
  // Every call but the single term 2^e mod p runs the 4-bit windows.
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();
  Rng rng(67);
  for (int i = 0; i < 6; ++i) {
    U256 base = RandomU256(&rng);
    U256 e = RandomU256(&rng);
    U256 reduced = OracleMulMod(base, U256(1), p);
    EXPECT_EQ(U256::PowMod(base, e, p), OraclePowMod(reduced, e, p));
  }
  // Bases: 0, 1, the base 2, p - 1 (order 2), bases at and above p (p + 2
  // reduces to 2), and random ones on either side of p.
  auto pick_base = [&]() -> U256 {
    switch (rng.Next64() % 9) {
      case 0: return U256();
      case 1: return U256(1);
      case 2: return U256(2);
      case 3: return p.Add(U256(2));
      case 4: return p;
      case 5: return p.Add(RandomU256(&rng).ShiftRight(200));
      case 6: return p.Sub(U256(1));
      default: return RandomU256(&rng);
    }
  };
  // Exponents: 0, 255-bit e below n, 128-bit z, full 256-bit values, and
  // short ones whose upper windows are all leading zero nibbles.
  auto pick_exp = [&]() -> U256 {
    switch (rng.Next64() % 6) {
      case 0: return U256();
      case 1: return U256::Mod(RandomU256(&rng), n);
      case 2: return RandomU256(&rng).ShiftRight(128);
      case 3: return RandomU256(&rng);
      case 4: return U256(rng.Next64() & 0xFFFFF);
      default: return RandomU256(&rng).ShiftRight(rng.Next64() % 256);
    }
  };
  const std::vector<U256> moduli = {
      p, n, p.Add(U256(2)), RandomU256(&rng).ShiftRight(1).Add(U256(1))};
  for (const U256& m : moduli) {
    for (size_t k = 1; k <= 11; ++k) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<std::pair<U256, U256>> terms;
        for (size_t t = 0; t < k; ++t) {
          U256 base = pick_base();
          terms.emplace_back(base, pick_exp());
        }
        ASSERT_EQ(U256::MultiExpMod(terms, m), OracleMultiExp(terms, m))
            << "m=" << m.ToHex() << " terms " << TermsToString(terms);
      }
    }
  }
  // The Verify and BatchVerify shapes: base 2 beside other bases, a 128-bit
  // exponent beside 255-bit ones, and p + 2 standing in for 2.
  const U256 y = RandomU256(&rng).ShiftRight(1);
  const U256 r = RandomU256(&rng).ShiftRight(1);
  const U256 z = RandomU256(&rng).ShiftRight(128);
  const U256 e = U256::Mod(RandomU256(&rng), n);
  const std::vector<std::vector<std::pair<U256, U256>>> shapes = {
      {{U256(2), e}, {y, n.Sub(e)}},
      {{p.Add(U256(2)), e}, {y, z}},
      {{r, z}, {y, e}, {U256(2), n.Sub(z)}},
      {{U256(2), z}, {U256(2), e}},
      {{U256(2), U256()}, {y, U256()}},
      {{U256(), e}, {U256(1), e}, {U256(2), U256(1)}}};
  for (const auto& terms : shapes) {
    EXPECT_EQ(U256::MultiExpMod(terms, p), OracleMultiExp(terms, p))
        << TermsToString(terms);
  }
  EXPECT_EQ(U256::MultiExpMod({}, p), U256(1));
  EXPECT_EQ(U256::MultiExpMod({{y, e}}, U256(1)), U256());
}

// The verification equation before the joint form: g^s == r · y^e, with
// both powers on the oracle.
bool TwoPowVerify(const PublicKey& key, const Bytes& message,
                  const Signature& sig) {
  const U256& p = SchnorrGroup::P();
  if (sig.r.IsZero() || key.y.IsZero()) return false;
  if (sig.r >= p || key.y >= p) return false;
  U256 e = SchnorrChallenge(sig.r, key, message);
  U256 lhs = OraclePowMod(SchnorrGroup::G(), sig.s, p);
  U256 rhs = OracleMulMod(sig.r, OraclePowMod(key.y, e, p), p);
  return lhs == rhs;
}

TEST(U256FastPathTest, JointVerifyMatchesTwoPowEquation) {
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();
  struct Case {
    PublicKey key;
    Bytes message;
    Signature sig;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 4; ++i) {
    KeyPair kp = KeyPair::FromSeed("joint-" + std::to_string(i));
    Bytes msg = ToBytes("joint verify " + std::to_string(i));
    Signature sig = kp.Sign(msg);
    const PublicKey& y = kp.public_key();
    const PublicKey other = KeyPair::FromSeed("x").public_key();
    const U256 r2 = U256::MulMod(sig.r, U256(2), p);
    cases.push_back({y, msg, sig});                              // valid
    cases.push_back({y, ToBytes("other"), sig});                 // message
    cases.push_back({other, msg, sig});                          // key
    cases.push_back({y, msg, {sig.r, sig.s.Add(U256(1))}});      // s + 1
    cases.push_back({y, msg, {r2, sig.s}});                      // 2r
    cases.push_back({y, msg, {sig.r, sig.s.Add(n)}});            // s >= n
    cases.push_back({y, msg, {sig.r, U256()}});                  // s = 0
    cases.push_back({y, msg, {sig.r, kMax256}});                 // s max
    cases.push_back({y, msg, {U256(), sig.s}});                  // r = 0
    cases.push_back({y, msg, {p, sig.s}});                       // r = p
    cases.push_back({y, msg, {p.Sub(U256(1)), sig.s}});          // r = p-1
    cases.push_back({PublicKey{U256()}, msg, sig});              // y = 0
    cases.push_back({PublicKey{p}, msg, sig});                   // y = p
    cases.push_back({PublicKey{U256(1)}, msg, {U256(1), U256()}});  // 1 = 1
    cases.push_back({PublicKey{p.Sub(U256(1))}, msg, sig});      // order 2
  }
  int valid = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    bool expect = TwoPowVerify(c.key, c.message, c.sig);
    EXPECT_EQ(Verify(c.key, c.message, c.sig), expect) << "case " << i;
    if (expect) ++valid;
  }
  // The valid, s >= n and (y = 1, r = 1, s = 0) shapes verify; the rest
  // do not.
  EXPECT_EQ(valid, 12);
}

}  // namespace
}  // namespace xdeal
