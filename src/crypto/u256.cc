#include "crypto/u256.h"

#include <algorithm>
#include <cstring>

namespace xdeal {

namespace {

// ---------------------------------------------------------------------------
// Digit-level division kernel (Knuth TAOCP vol 2, Algorithm D), base 2^32.
//
// Divides u (un digits, little-endian) by v (vn digits, v[vn-1] != 0),
// producing quotient q (un - vn + 1 digits) and remainder r (vn digits).
// Requires un >= vn. Adapted from the classic divmnu reference code.
// ---------------------------------------------------------------------------

constexpr int kMaxU = 17;  // 512 bits = 16 digits, +1 for normalization
constexpr int kMaxV = 8;   // 256 bits

void DivRemDigits(const uint32_t* u_in, int un, const uint32_t* v_in, int vn,
                  uint32_t* q, uint32_t* r) {
  const uint64_t kBase = 1ULL << 32;

  if (vn == 1) {
    uint64_t rem = 0;
    const uint32_t d = v_in[0];
    for (int j = un - 1; j >= 0; --j) {
      uint64_t acc = (rem << 32) | u_in[j];
      q[j] = static_cast<uint32_t>(acc / d);
      rem = acc % d;
    }
    r[0] = static_cast<uint32_t>(rem);
    return;
  }

  // D1: normalize so the divisor's top digit has its high bit set.
  const int s = __builtin_clz(v_in[vn - 1]);  // 0..31
  uint32_t v[kMaxV];
  uint32_t u[kMaxU];
  for (int i = vn - 1; i > 0; --i) {
    v[i] = (v_in[i] << s) | (s ? (v_in[i - 1] >> (32 - s)) : 0);
  }
  v[0] = v_in[0] << s;
  u[un] = s ? (u_in[un - 1] >> (32 - s)) : 0;
  for (int i = un - 1; i > 0; --i) {
    u[i] = (u_in[i] << s) | (s ? (u_in[i - 1] >> (32 - s)) : 0);
  }
  u[0] = u_in[0] << s;

  // D2..D7: main loop over quotient digits.
  for (int j = un - vn; j >= 0; --j) {
    // D3: estimate qhat from the top two digits.
    uint64_t num =
        (static_cast<uint64_t>(u[j + vn]) << 32) | u[j + vn - 1];
    uint64_t qhat = num / v[vn - 1];
    uint64_t rhat = num % v[vn - 1];
    while (qhat >= kBase ||
           qhat * v[vn - 2] >
               ((rhat << 32) | u[j + vn - 2])) {
      --qhat;
      rhat += v[vn - 1];
      if (rhat >= kBase) break;
    }

    // D4: multiply and subtract.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (int i = 0; i < vn; ++i) {
      uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u[i + j]) -
                  static_cast<int64_t>(p & 0xFFFFFFFFULL) - borrow;
      u[i + j] = static_cast<uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    int64_t t = static_cast<int64_t>(u[j + vn]) -
                static_cast<int64_t>(carry) - borrow;
    u[j + vn] = static_cast<uint32_t>(t);
    q[j] = static_cast<uint32_t>(qhat);

    // D6: rare over-estimate — add the divisor back.
    if (t < 0) {
      --q[j];
      uint64_t c = 0;
      for (int i = 0; i < vn; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<uint32_t>(sum);
        c = sum >> 32;
      }
      u[j + vn] = static_cast<uint32_t>(u[j + vn] + c);
    }
  }

  // D8: denormalize the remainder.
  for (int i = 0; i < vn - 1; ++i) {
    r[i] = (u[i] >> s) |
           (s ? static_cast<uint32_t>(static_cast<uint64_t>(u[i + 1])
                                      << (32 - s))
              : 0);
  }
  r[vn - 1] = u[vn - 1] >> s;
}

// Splits 64-bit limbs into 32-bit digits (little-endian).
void ToDigits(const uint64_t* limbs, int nlimbs, uint32_t* digits) {
  for (int i = 0; i < nlimbs; ++i) {
    digits[2 * i] = static_cast<uint32_t>(limbs[i]);
    digits[2 * i + 1] = static_cast<uint32_t>(limbs[i] >> 32);
  }
}

int SignificantDigits(const uint32_t* digits, int n) {
  while (n > 0 && digits[n - 1] == 0) --n;
  return n;
}

U256 FromDigits(const uint32_t* digits, int n) {
  uint64_t limbs[4] = {0, 0, 0, 0};
  for (int i = 0; i < n && i < 8; ++i) {
    limbs[i / 2] |= static_cast<uint64_t>(digits[i]) << (32 * (i % 2));
  }
  return U256::FromLimbsBigEndian(limbs[3], limbs[2], limbs[1], limbs[0]);
}

// Generic remainder: value given as digits (up to 16), modulus as U256.
U256 ModDigits(const uint32_t* val_digits, int val_n, const U256& m) {
  uint32_t vd[kMaxV];
  uint64_t mlimbs[4] = {m.limb(0), m.limb(1), m.limb(2), m.limb(3)};
  ToDigits(mlimbs, 4, vd);
  int vn = SignificantDigits(vd, 8);
  int un = SignificantDigits(val_digits, val_n);
  if (un < vn) return FromDigits(val_digits, un);
  uint32_t q[kMaxU];
  uint32_t r[kMaxV];
  DivRemDigits(val_digits, un, vd, vn, q, r);
  return FromDigits(r, vn);
}

// Full division of two U256 values: a = q*b + r.
void DivRem256(const U256& a, const U256& b, U256* q_out, U256* r_out) {
  uint32_t ud[kMaxU];
  uint32_t vd[kMaxV];
  uint64_t al[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  uint64_t bl[4] = {b.limb(0), b.limb(1), b.limb(2), b.limb(3)};
  ToDigits(al, 4, ud);
  ToDigits(bl, 4, vd);
  int un = SignificantDigits(ud, 8);
  int vn = SignificantDigits(vd, 8);
  if (un < vn) {
    *q_out = U256();
    *r_out = a;
    return;
  }
  uint32_t q[kMaxU] = {0};
  uint32_t r[kMaxV] = {0};
  DivRemDigits(ud, un, vd, vn, q, r);
  *q_out = FromDigits(q, un - vn + 1);
  *r_out = FromDigits(r, vn);
}

// ---------------------------------------------------------------------------
// Fast reduction for the Schnorr group prime p = 2^255 - 19 (schnorr.h).
//
// 2^256 = 2p + 38, so 2^256 ≡ 38 (mod p): the high half of a 512-bit value
// folds into the low half with one 64x64 multiply per limb. The small carry
// out of that fold and bit 255 then fold in together as 19 per 2^255
// (2^255 ≡ 19), and one branch-free conditional subtraction of p finishes.
// Every other modulus keeps the generic Knuth division above.
// ---------------------------------------------------------------------------

constexpr uint64_t kLow255 = 0x7FFFFFFFFFFFFFFFULL;
constexpr U256 kP25519 =
    U256::FromLimbsBigEndian(kLow255, ~0ULL, ~0ULL, 0xFFFFFFFFFFFFFFEDULL);

// Reduces c·2^256 + r mod p, for r < 2^256 and c <= 38. Folding c and bit
// 255 as 19·(2c + bit) leaves r < 2^255 + 19·77, and r >= p exactly when
// r + 19 reaches 2^255, in which case clearing that bit of r + 19 is r - p.
U256 ReduceP25519(uint64_t r0, uint64_t r1, uint64_t r2, uint64_t r3,
                  uint64_t c) {
  const uint64_t k = ((c << 1) | (r3 >> 63)) * 19;
  r3 &= kLow255;
  __uint128_t acc = static_cast<__uint128_t>(r0) + k;
  r0 = static_cast<uint64_t>(acc);
  acc = static_cast<__uint128_t>(r1) + static_cast<uint64_t>(acc >> 64);
  r1 = static_cast<uint64_t>(acc);
  acc = static_cast<__uint128_t>(r2) + static_cast<uint64_t>(acc >> 64);
  r2 = static_cast<uint64_t>(acc);
  r3 += static_cast<uint64_t>(acc >> 64);

  acc = static_cast<__uint128_t>(r0) + 19;
  const uint64_t s0 = static_cast<uint64_t>(acc);
  acc = static_cast<__uint128_t>(r1) + static_cast<uint64_t>(acc >> 64);
  const uint64_t s1 = static_cast<uint64_t>(acc);
  acc = static_cast<__uint128_t>(r2) + static_cast<uint64_t>(acc >> 64);
  const uint64_t s2 = static_cast<uint64_t>(acc);
  const uint64_t s3 = r3 + static_cast<uint64_t>(acc >> 64);
  const uint64_t take_s = 0 - (s3 >> 63);  // all ones when r >= p
  return U256::FromLimbsBigEndian((s3 & kLow255 & take_s) | (r3 & ~take_s),
                                  (s2 & take_s) | (r2 & ~take_s),
                                  (s1 & take_s) | (r1 & ~take_s),
                                  (s0 & take_s) | (r0 & ~take_s));
}

// a·b mod p for any a, b < 2^256: lo + 38·hi < 39·2^256, so the carry out
// of the fold is at most 38.
U256 MulModP25519(const U256& a, const U256& b) {
  const U512 t = U512::Mul(a, b);
  uint64_t r[4];
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t acc = static_cast<__uint128_t>(t.limbs[i + 4]) * 38 +
                      t.limbs[i] + carry;
    r[i] = static_cast<uint64_t>(acc);
    carry = static_cast<uint64_t>(acc >> 64);
  }
  return ReduceP25519(r[0], r[1], r[2], r[3], carry);
}

// 2^shift · a mod p for a < p and shift in [1, 4]: how MultiExpMod
// multiplies in the base 2. The bits shifted past 2^256 (fewer than 8, as
// a < 2^255) fold back in as 38 each.
U256 ShiftModP25519(const U256& a, unsigned shift) {
  const unsigned back = 64 - shift;
  return ReduceP25519(a.limb(0) << shift,
                      (a.limb(1) << shift) | (a.limb(0) >> back),
                      (a.limb(2) << shift) | (a.limb(1) >> back),
                      (a.limb(3) << shift) | (a.limb(2) >> back),
                      a.limb(3) >> back);
}

// Nibble i of e, i in [0, 64), nibble 0 least significant.
unsigned Nibble(const U256& e, int i) {
  return (e.limb(i / 16) >> (4 * (i % 16))) & 0xF;
}

// The fixed-base comb for g = 2 (Brickell, Gordon, McCurley and Wilson,
// "Fast exponentiation with precomputation", EUROCRYPT '92):
// row i holds 2^(j·16^i) mod p for j in [0, 16). 64 rows of 16 U256 are
// 32 KB, built on first use (a function-local static, so thread-safe) from
// 4 squarings and 14 multiplies per row.
using CombTable = std::array<std::array<U256, 16>, 64>;

const CombTable& CombP25519() {
  static const CombTable table = [] {
    CombTable t;
    U256 row_base(2);  // 2^(16^i)
    for (int i = 0; i < 64; ++i) {
      t[i][0] = U256(1);
      t[i][1] = row_base;
      for (int j = 2; j < 16; ++j) {
        t[i][j] = MulModP25519(t[i][j - 1], row_base);
      }
      for (int s = 0; s < 4; ++s) row_base = MulModP25519(row_base, row_base);
    }
    return t;
  }();
  return table;
}

// 2^e mod p for any 256-bit e = Σ nibble_i(e)·16^i, as the product of one
// comb entry per nonzero nibble: at most 63 multiplies and no squarings.
U256 CombPowTwoP25519(const U256& e) {
  const CombTable& comb = CombP25519();
  U256 result = comb[0][Nibble(e, 0)];
  for (int i = 1; i < 64; ++i) {
    const unsigned nibble = Nibble(e, i);
    if (nibble != 0) result = MulModP25519(result, comb[i][nibble]);
  }
  return result;
}

}  // namespace

U256 U256::FromHex(std::string_view hex, bool* ok) {
  if (ok) *ok = false;
  U256 out;
  if (hex.size() > 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  if (hex.empty() || hex.size() > 64) return out;
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return U256();
    }
    out = out.ShiftLeft(4);
    out.limbs_[0] |= static_cast<uint64_t>(v);
  }
  if (ok) *ok = true;
  return out;
}

U256 U256::FromHash(const Hash256& h) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = 0;
    for (int j = 0; j < 8; ++j) {
      limb = (limb << 8) | h.bytes[i * 8 + j];
    }
    out.limbs_[3 - i] = limb;
  }
  return out;
}

Bytes U256::ToBytes() const {
  Bytes out(32);
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = limbs_[3 - i];
    for (int j = 0; j < 8; ++j) {
      out[i * 8 + j] = static_cast<uint8_t>(limb >> (56 - 8 * j));
    }
  }
  return out;
}

std::string U256::ToHex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(64, '0');
  for (int i = 0; i < 64; ++i) {
    int limb = (63 - i) / 16;
    int shift = ((63 - i) % 16) * 4;
    out[i] = kDigits[(limbs_[limb] >> shift) & 0xF];
  }
  return out;
}

int U256::Compare(const U256& o) const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] < o.limbs_[i]) return -1;
    if (limbs_[i] > o.limbs_[i]) return 1;
  }
  return 0;
}

U256 U256::AddWithCarry(const U256& o, uint64_t* carry_out) const {
  U256 out;
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t sum = static_cast<__uint128_t>(limbs_[i]) + o.limbs_[i] + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  if (carry_out) *carry_out = carry;
  return out;
}

U256 U256::Add(const U256& o) const { return AddWithCarry(o, nullptr); }

U256 U256::Sub(const U256& o) const {
  U256 out;
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t diff = static_cast<__uint128_t>(limbs_[i]) - o.limbs_[i] - borrow;
    out.limbs_[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
  return out;
}

U256 U256::ShiftLeft(unsigned bits) const {
  if (bits >= 256) return U256();
  U256 out;
  unsigned limb_shift = bits / 64;
  unsigned bit_shift = bits % 64;
  for (int i = 3; i >= 0; --i) {
    uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) {
      v = limbs_[src] << bit_shift;
      if (bit_shift != 0 && src - 1 >= 0) {
        v |= limbs_[src - 1] >> (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

U256 U256::ShiftRight(unsigned bits) const {
  if (bits >= 256) return U256();
  U256 out;
  unsigned limb_shift = bits / 64;
  unsigned bit_shift = bits % 64;
  for (int i = 0; i < 4; ++i) {
    uint64_t v = 0;
    unsigned src = i + limb_shift;
    if (src < 4) {
      v = limbs_[src] >> bit_shift;
      if (bit_shift != 0 && src + 1 < 4) {
        v |= limbs_[src + 1] << (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

int U256::BitLength() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] != 0) {
      return 64 * i + (64 - __builtin_clzll(limbs_[i]));
    }
  }
  return 0;
}

U512 U512::Mul(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      __uint128_t cur = static_cast<__uint128_t>(a.limb(i)) * b.limb(j) +
                        out.limbs[i + j] + carry;
      out.limbs[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limbs[i + 4] = carry;
  }
  return out;
}

U256 U512::Mod(const U256& m) const {
  uint32_t digits[16];
  ToDigits(limbs.data(), 8, digits);
  return ModDigits(digits, 16, m);
}

U256 U256::Mod(const U256& a, const U256& m) {
  if (a < m) return a;
  uint32_t digits[8];
  uint64_t al[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  ToDigits(al, 4, digits);
  return ModDigits(digits, 8, m);
}

U256 U256::AddMod(const U256& a, const U256& b, const U256& m) {
  // Inputs are reduced first so the carry logic below is exact.
  U256 ar = Mod(a, m);
  U256 br = Mod(b, m);
  uint64_t carry = 0;
  U256 sum = ar.AddWithCarry(br, &carry);
  if (carry || sum >= m) {
    // With a virtual carry bit, (sum - m) mod 2^256 is the true a+b-m.
    sum = sum.Sub(m);
  }
  return sum;
}

U256 U256::SubMod(const U256& a, const U256& b, const U256& m) {
  U256 ar = Mod(a, m);
  U256 br = Mod(b, m);
  if (ar >= br) return ar.Sub(br);
  return m.Sub(br.Sub(ar));
}

U256 U256::MulMod(const U256& a, const U256& b, const U256& m) {
  if (m == kP25519) return MulModP25519(a, b);
  return U512::Mul(a, b).Mod(m);
}

U256 U256::PowMod(const U256& base, const U256& exp, const U256& m) {
  return MultiExpMod({{base, exp}}, m);
}

U256 U256::MultiExpMod(const std::vector<std::pair<U256, U256>>& terms,
                       const U256& m) {
  if (m == U256(1)) return U256();
  const bool mod_p = m == kP25519;
  const size_t k = terms.size();
  if (mod_p && k == 1 && Mod(terms[0].first, m) == U256(2)) {
    return CombPowTwoP25519(terms[0].second);
  }

  // Per term, the powers 1..15 of the reduced base; mod p the base 2 needs
  // none, as multiplying it in is a shift.
  std::vector<std::array<U256, 16>> tables(k);
  std::vector<bool> shifts(k);
  int bits = 0;
  for (size_t t = 0; t < k; ++t) {
    const U256 base = Mod(terms[t].first, m);
    bits = std::max(bits, terms[t].second.BitLength());
    shifts[t] = mod_p && base == U256(2);
    if (shifts[t]) continue;
    tables[t][1] = base;
    for (int j = 2; j < 16; ++j) {
      tables[t][j] = MulMod(tables[t][j - 1], base, m);
    }
  }
  // 4-bit fixed windows over the longest exponent, most significant first:
  // each window shares 4 squarings across every term, then multiplies in
  // each term's table entry for its nibble of that window.
  const int top = (bits + 3) / 4 - 1;
  U256 result(1);
  for (int w = top; w >= 0; --w) {
    if (w != top) {
      for (int s = 0; s < 4; ++s) result = MulMod(result, result, m);
    }
    for (size_t t = 0; t < k; ++t) {
      const unsigned nibble = Nibble(terms[t].second, w);
      if (nibble == 0) continue;
      result = shifts[t] ? ShiftModP25519(result, nibble)
                         : MulMod(result, tables[t][nibble], m);
    }
  }
  return result;
}

U256 U256::InvMod(const U256& a, const U256& m) {
  // Extended Euclid, tracking the Bezout coefficient of `a` modulo m.
  U256 r0 = m;
  U256 r1 = Mod(a, m);
  U256 t0;        // 0
  U256 t1(1);
  while (!r1.IsZero()) {
    U256 q, r2;
    DivRem256(r0, r1, &q, &r2);
    U256 t2 = SubMod(t0, MulMod(Mod(q, m), t1, m), m);
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t1 = t2;
  }
  if (r0 != U256(1)) return U256();  // not invertible
  return t0;
}

}  // namespace xdeal
