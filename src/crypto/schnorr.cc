#include "crypto/schnorr.h"

#include "util/serialize.h"

namespace xdeal {

const U256& SchnorrGroup::P() {
  static const U256 p = U256::FromLimbsBigEndian(
      0x7FFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
      0xFFFFFFFFFFFFFFEDULL);
  return p;
}

const U256& SchnorrGroup::N() {
  static const U256 n = U256::FromLimbsBigEndian(
      0x7FFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
      0xFFFFFFFFFFFFFFECULL);
  return n;
}

const U256& SchnorrGroup::G() {
  static const U256 g(2);
  return g;
}

namespace {

/// Hashes arbitrary bytes to a nonzero exponent mod n.
U256 HashToExponent(const Bytes& data) {
  U256 e = U256::Mod(U256::FromHash(Sha256Digest(data)), SchnorrGroup::N());
  if (e.IsZero()) e = U256(1);
  return e;
}

}  // namespace

U256 SchnorrChallenge(const U256& r, const PublicKey& key,
                      const Bytes& message) {
  ByteWriter w;
  w.Raw(r.ToBytes());
  w.Raw(key.y.ToBytes());
  w.Blob(message);
  return HashToExponent(w.bytes());
}

std::string PublicKey::Fingerprint() const {
  return Sha256Digest(Serialize()).ShortHex();
}

Bytes Signature::Serialize() const {
  Bytes out = r.ToBytes();
  Bytes s_bytes = s.ToBytes();
  out.insert(out.end(), s_bytes.begin(), s_bytes.end());
  return out;
}

Result<Signature> Signature::Deserialize(const Bytes& bytes) {
  if (bytes.size() != 64) {
    return Status::InvalidArgument("signature must be 64 bytes");
  }
  Hash256 hr, hs;
  std::copy(bytes.begin(), bytes.begin() + 32, hr.bytes.begin());
  std::copy(bytes.begin() + 32, bytes.end(), hs.bytes.begin());
  Signature sig;
  sig.r = U256::FromHash(hr);
  sig.s = U256::FromHash(hs);
  return sig;
}

KeyPair KeyPair::FromSeed(std::string_view seed) {
  ByteWriter w;
  w.Str("xdeal-keygen-v1");
  w.Str(seed);
  U256 x = HashToExponent(w.bytes());
  PublicKey pk{U256::PowMod(SchnorrGroup::G(), x, SchnorrGroup::P())};
  return KeyPair(x, pk);
}

Signature KeyPair::Sign(const Bytes& message) const {
  // Deterministic nonce: k = H(x || m) mod n (RFC6979-flavored, simplified).
  ByteWriter nonce_input;
  nonce_input.Str("xdeal-nonce-v1");
  nonce_input.Raw(x_.ToBytes());
  nonce_input.Blob(message);
  U256 k = HashToExponent(nonce_input.bytes());

  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();
  U256 r = U256::PowMod(SchnorrGroup::G(), k, p);
  U256 e = SchnorrChallenge(r, public_key_, message);
  U256 s = U256::AddMod(k, U256::MulMod(e, x_, n), n);
  return Signature{r, s};
}

Signature KeyPair::Sign(std::string_view message) const {
  return Sign(ToBytes(message));
}

bool Verify(const PublicKey& key, const Bytes& message, const Signature& sig) {
  const U256& p = SchnorrGroup::P();
  // Reject degenerate values.
  if (sig.r.IsZero() || key.y.IsZero()) return false;
  if (sig.r >= p || key.y >= p) return false;

  // g^s == r·y^e  <=>  g^s·y^(n-e) == r: y in [1, p-1] has order dividing
  // n = p-1, and e in [1, n-1] keeps n-e a valid exponent. Both powers share
  // one squaring chain.
  U256 e = SchnorrChallenge(sig.r, key, message);
  U256 lhs = U256::MultiExpMod(
      {{SchnorrGroup::G(), sig.s}, {key.y, SchnorrGroup::N().Sub(e)}}, p);
  return lhs == sig.r;
}

bool Verify(const PublicKey& key, std::string_view message,
            const Signature& sig) {
  return Verify(key, ToBytes(message), sig);
}

namespace {

/// The i-th batch coefficient: ~128 bits from H(batch_seed || i), forced
/// odd. Odd coefficients cannot annihilate the order-2 subgroup of Z_p*
/// (p-1 is even), closing the classic batch forgery where a -1 factor
/// hides behind an even z_i.
U256 BatchCoefficient(const Hash256& batch_seed, uint64_t index) {
  ByteWriter w;
  w.Str("xdeal-batch-z-v1");
  w.Raw(batch_seed.bytes.data(), batch_seed.bytes.size());
  w.U64(index);
  U256 z = U256::FromHash(Sha256Digest(w.bytes()));
  z = U256::FromLimbsBigEndian(0, 0, z.limb(1), z.limb(0));  // low 128 bits
  if (!z.IsOdd()) z = z.Add(U256(1));
  return z;
}

}  // namespace

BatchVerifyResult BatchVerify(const std::vector<BatchItem>& items) {
  BatchVerifyResult out;
  if (items.empty()) {
    out.ok = true;
    return out;
  }
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();

  // Degenerate values fail individual verification outright — catch them
  // before they can poison (or trivially satisfy) the combined equation.
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    if (item.sig.r.IsZero() || item.key.y.IsZero() || item.sig.r >= p ||
        item.key.y >= p) {
      out.first_bad = static_cast<int>(i);
      return out;
    }
  }

  // Fiat-Shamir batch seed over every (r, s, y, m): coefficients are fixed
  // only after the whole batch is, so no item can be chosen against them.
  // Leaving s out would let a holder of valid signatures shift s_1 by δ·z_2
  // and s_2 by -δ·z_1: the combined sum stays put while both items fail.
  ByteWriter seed_writer;
  seed_writer.Str("xdeal-batch-seed-v1");
  for (const BatchItem& item : items) {
    seed_writer.Raw(item.sig.r.ToBytes());
    seed_writer.Raw(item.sig.s.ToBytes());
    seed_writer.Raw(item.key.y.ToBytes());
    seed_writer.Blob(item.message);
  }
  Hash256 batch_seed = Sha256Digest(seed_writer.bytes());

  // g^(Σ z_i·s_i mod n)  ==  Π r_i^{z_i} · y_i^{(z_i·e_i mod n)}  (mod p),
  // checked as g^(n - Σ z_i·s_i) · Π r_i^{z_i} · y_i^{z_i·e_i} == 1 so that
  // g joins the same squaring chain (g^n = 1).
  // Exponent arithmetic mod n = p-1 is sound: every group element's order
  // divides n, so oversized attacker-supplied s values reduce the same way
  // individual verification's g^s does.
  U256 s_combined;
  std::vector<std::pair<U256, U256>> terms;
  terms.reserve(items.size() * 2);
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    U256 z = BatchCoefficient(batch_seed, i);
    U256 e = SchnorrChallenge(item.sig.r, item.key, item.message);
    s_combined = U256::AddMod(s_combined, U256::MulMod(z, item.sig.s, n), n);
    terms.emplace_back(item.sig.r, z);
    terms.emplace_back(item.key.y, U256::MulMod(z, e, n));
  }
  terms.emplace_back(SchnorrGroup::G(), n.Sub(s_combined));
  if (U256::MultiExpMod(terms, p) == U256(1)) {
    out.ok = true;
    return out;
  }

  // Combined check failed: at least one signature is bad. Re-verify
  // individually to attribute blame.
  out.used_fallback = true;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!Verify(items[i].key, items[i].message, items[i].sig)) {
      out.first_bad = static_cast<int>(i);
      return out;
    }
  }
  // Unreachable in exact arithmetic (all-valid batches satisfy the combined
  // equation identically); individual verification is the ground truth.
  out.ok = true;
  return out;
}

}  // namespace xdeal
