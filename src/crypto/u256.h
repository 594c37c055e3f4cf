// U256: fixed-width 256-bit unsigned integer arithmetic.
//
// Built from scratch on 64-bit limbs (little-endian limb order) with a
// 512-bit intermediate for multiplication. This is the numeric substrate for
// the Schnorr signature scheme (schnorr.h): modular exponentiation over the
// prime field of p = 2^255 - 19.
//
// Reduction is chosen from the modulus value. For m == p, every multiply in
// MulMod, PowMod and MultiExpMod folds the high half of the product in with
// 2^256 ≡ 38 (mod p). Knuth Algorithm D division serves every other modulus
// (n = p - 1 in particular), the one-off reductions of Mod/AddMod/SubMod/
// InvMod on inputs that are not yet below m, and U512::Mod, which stays the
// reference the fast path is tested against.
//
// Exponentiation is chosen from the base and modulus values too:
//   - 2^e mod p alone (keygen's y = g^x and Sign's r = g^k) multiplies one
//     entry per nonzero 4-bit nibble of e out of a fixed-base comb table
//     (Brickell-Gordon-McCurley-Wilson), 2^(j·16^i) mod p for i < 64 and
//     j < 16: 32 KB built once on first use, then at most 63 multiplies and
//     no squarings for any 256-bit e;
//   - everything else runs 4-bit fixed windows over one shared squaring
//     chain, with a 15-entry power table per base; mod p the base 2 needs
//     no table, as multiplying by 2^nibble is a shift and a fold.

#ifndef XDEAL_CRYPTO_U256_H_
#define XDEAL_CRYPTO_U256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace xdeal {

/// 256-bit unsigned integer. Value semantics; all operations are constant
/// size (no allocation). Overflow wraps mod 2^256 for Add/Sub/Mul unless the
/// wide variants are used.
class U256 {
 public:
  /// Zero.
  constexpr U256() : limbs_{0, 0, 0, 0} {}

  /// From a 64-bit value.
  constexpr explicit U256(uint64_t v) : limbs_{v, 0, 0, 0} {}

  /// From four 64-bit limbs, most-significant first (reads like hex).
  static constexpr U256 FromLimbsBigEndian(uint64_t l3, uint64_t l2,
                                           uint64_t l1, uint64_t l0) {
    U256 out;
    out.limbs_ = {l0, l1, l2, l3};
    return out;
  }

  /// Parses a hex string of up to 64 digits (no 0x prefix required).
  /// Returns zero on malformed input paired with `ok=false`.
  static U256 FromHex(std::string_view hex, bool* ok = nullptr);

  /// Interprets a 32-byte big-endian buffer (e.g. a Hash256) as an integer.
  static U256 FromHash(const Hash256& h);

  /// Big-endian 32-byte encoding.
  Bytes ToBytes() const;

  /// 64 hex digits, most significant first.
  std::string ToHex() const;

  /// True for the value 0.
  bool IsZero() const {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  /// True when bit 0 is set.
  bool IsOdd() const { return limbs_[0] & 1; }

  /// The i-th 64-bit limb, i in [0, 4), limb 0 least significant.
  uint64_t limb(int i) const { return limbs_[i]; }
  /// Limb 0.
  uint64_t Low64() const { return limbs_[0]; }

  /// Comparison.
  int Compare(const U256& o) const;
  /// Equality, limb by limb (no library call on the hot modulus checks).
  bool operator==(const U256& o) const {
    return ((limbs_[0] ^ o.limbs_[0]) | (limbs_[1] ^ o.limbs_[1]) |
            (limbs_[2] ^ o.limbs_[2]) | (limbs_[3] ^ o.limbs_[3])) == 0;
  }
  bool operator!=(const U256& o) const { return !(*this == o); }
  bool operator<(const U256& o) const { return Compare(o) < 0; }
  bool operator<=(const U256& o) const { return Compare(o) <= 0; }
  bool operator>(const U256& o) const { return Compare(o) > 0; }
  bool operator>=(const U256& o) const { return Compare(o) >= 0; }

  /// Wrapping arithmetic mod 2^256. AddWithCarry reports the carry-out.
  U256 Add(const U256& o) const;
  /// Add that stores the carry-out (0 or 1) in `*carry_out` when non-null.
  U256 AddWithCarry(const U256& o, uint64_t* carry_out) const;
  /// this - o mod 2^256 (wraps on underflow).
  U256 Sub(const U256& o) const;
  /// Logical left shift; a shift by 256 or more yields zero.
  U256 ShiftLeft(unsigned bits) const;
  /// Logical right shift; a shift by 256 or more yields zero.
  U256 ShiftRight(unsigned bits) const;

  /// Number of significant bits (0 for zero).
  int BitLength() const;
  /// Bit i, i in [0, 256), bit 0 least significant.
  bool Bit(int i) const {
    return (limbs_[i / 64] >> (i % 64)) & 1;
  }

  // Modular arithmetic. `m` must be nonzero; results are in [0, m).

  /// (a + b) mod m.
  static U256 AddMod(const U256& a, const U256& b, const U256& m);
  /// (a - b) mod m.
  static U256 SubMod(const U256& a, const U256& b, const U256& m);
  /// (a · b) mod m, for any a, b (operands need not be reduced). Folds by
  /// 38 when m is the Schnorr prime, otherwise reduces by Knuth division.
  static U256 MulMod(const U256& a, const U256& b, const U256& m);
  /// base^exp mod m: MultiExpMod with the single term (base, exp). For
  /// base ≡ 2 and m == p this is the fixed-base comb (at most 63 multiplies).
  static U256 PowMod(const U256& base, const U256& exp, const U256& m);
  /// a mod m: `a` itself when a < m, otherwise by Knuth division.
  static U256 Mod(const U256& a, const U256& m);

  /// Simultaneous multi-exponentiation: Π base_i^{exp_i} mod m over all
  /// (base, exp) pairs in `terms`, via 4-bit fixed windows that share ONE
  /// squaring chain across every term (Shamir's trick generalized to k
  /// bases). Each base gets a table of its powers 1..15 (14 multiplies, 512
  /// bytes); each window of the longest exponent then costs 4 squarings
  /// plus one table multiply per term whose nibble there is nonzero. For k
  /// terms of b-bit exponents that is about b squarings + k·(14 + b/4)
  /// multiplies instead of k·b squarings — the kernel behind Schnorr
  /// verification, single and batched. Mod p, a base of 2 needs no table:
  /// multiplying by 2^nibble is a shift and a fold by 38. The single term
  /// 2^e mod p takes the fixed-base comb instead (see the file comment).
  /// `m` must be nonzero; an empty `terms` yields 1 mod m.
  static U256 MultiExpMod(const std::vector<std::pair<U256, U256>>& terms,
                          const U256& m);

  /// Modular inverse via extended binary GCD; returns zero if gcd(a,m) != 1.
  static U256 InvMod(const U256& a, const U256& m);

 private:
  // limbs_[0] is least significant.
  std::array<uint64_t, 4> limbs_;
};

/// 512-bit product of two U256 values plus remainder operations; exposed for
/// testing the division kernel.
struct U512 {
  std::array<uint64_t, 8> limbs{};  // little-endian

  /// The full 512-bit product a · b (schoolbook on 64-bit limbs).
  static U512 Mul(const U256& a, const U256& b);

  /// Remainder of this 512-bit value modulo a nonzero 256-bit modulus,
  /// via Knuth Algorithm D with 32-bit digits, for every modulus alike.
  /// `U512::Mul(a, b).Mod(m)` is the test oracle for MulMod's fast path.
  U256 Mod(const U256& m) const;
};

}  // namespace xdeal

#endif  // XDEAL_CRYPTO_U256_H_
