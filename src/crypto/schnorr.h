// Schnorr signatures over the multiplicative group Z_p*, p = 2^255 - 19.
//
// This is the signature scheme used by parties (path-signature votes in the
// timelock protocol) and by CBC validators (block/status certificates).
//
// Substitution note (see DESIGN.md §6): the paper assumes an
// Ethereum/Bitcoin-style signature scheme (secp256k1). We implement textbook
// Schnorr over a 255-bit prime field instead of an elliptic curve: the
// protocol-visible interface (keygen / sign / verify, 64-byte signatures) and
// the metered cost (3000 gas per verification, §7.1) are identical, and the
// arithmetic is real — signatures genuinely verify only under the signing
// key. It is NOT hardened cryptography (deterministic nonces derived by
// hashing, no side-channel defenses, composite group order), which is fine
// for a simulator and wrong for production use.
//
//   keygen:  x <- H(seed) mod n,  y = g^x mod p        (n = p - 1, g = 2)
//   sign:    k = H(x || m) mod n, r = g^k mod p,
//            e = H(r || y || m) mod n, s = (k + e*x) mod n;  sig = (r, s)
//   verify:  g^s * y^(n-e)  ==  r  (mod p), one joint exponentiation
//            (equivalent to g^s == r * y^e, since y^n = 1)

#ifndef XDEAL_CRYPTO_SCHNORR_H_
#define XDEAL_CRYPTO_SCHNORR_H_

#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/u256.h"
#include "util/bytes.h"
#include "util/det.h"
#include "util/result.h"

namespace xdeal {

/// Group parameters for the signature scheme.
struct SchnorrGroup {
  /// The field prime p = 2^255 - 19.
  static const U256& P();
  /// The exponent modulus n = p - 1.
  static const U256& N();
  /// The generator g = 2.
  static const U256& G();
};

/// A public verification key (group element y = g^x).
struct PublicKey {
  U256 y;

  bool operator==(const PublicKey& o) const { return y == o.y; }
  bool operator<(const PublicKey& o) const { return y < o.y; }

  /// Canonical 32-byte encoding, used in signed messages and certificates.
  Bytes Serialize() const { return y.ToBytes(); }

  /// Short fingerprint for logging.
  std::string Fingerprint() const;
};

/// A 64-byte signature (r, s).
struct Signature {
  U256 r;
  U256 s;

  bool operator==(const Signature& o) const { return r == o.r && s == o.s; }

  /// 64-byte encoding: r then s, each 32 bytes big-endian.
  Bytes Serialize() const;
  /// Inverse of Serialize; InvalidArgument unless `bytes` is 64 bytes long.
  static Result<Signature> Deserialize(const Bytes& bytes);
};

/// A signing key pair. The private exponent never leaves this object except
/// through Sign().
class KeyPair {
 public:
  /// Deterministically derives a key pair from a seed string (e.g. the party
  /// name plus a run seed). Same seed -> same keys, for reproducible runs.
  static KeyPair FromSeed(std::string_view seed);

  const PublicKey& public_key() const { return public_key_; }

  /// Signs a message (any byte string).
  XDEAL_DETERMINISTIC Signature Sign(const Bytes& message) const;
  /// Signs the bytes of a string.
  Signature Sign(std::string_view message) const;

 private:
  KeyPair(U256 x, PublicKey pk) : x_(x), public_key_(pk) {}

  U256 x_;  // private exponent
  PublicKey public_key_;
};

/// The Fiat-Shamir challenge e = H(r || y || m) mod n, in [1, n-1] (a zero
/// hash maps to 1). Sign and Verify derive e this way.
U256 SchnorrChallenge(const U256& r, const PublicKey& key, const Bytes& message);

/// Verifies that `sig` is a valid signature on `message` under `key`.
/// Counts as one "signature verification" for gas purposes (the caller,
/// i.e. a contract, charges kGasSigVerify).
XDEAL_DETERMINISTIC bool Verify(const PublicKey& key, const Bytes& message, const Signature& sig);
/// Verify over the bytes of a string.
bool Verify(const PublicKey& key, std::string_view message,
            const Signature& sig);

/// One (key, message, signature) triple of a verification batch.
struct BatchItem {
  PublicKey key;
  Bytes message;
  Signature sig;
};

/// Outcome of BatchVerify. `ok` matches exactly what verifying each item
/// individually would conclude; `first_bad` names the first invalid item
/// when !ok; `used_fallback` reports that the combined check failed and the
/// per-signature fallback ran to attribute blame.
struct BatchVerifyResult {
  bool ok = false;
  bool used_fallback = false;
  int first_bad = -1;
};

/// Verifies a batch of independent Schnorr signatures with ONE combined
/// check: random 128-bit coefficients z_i (deterministically derived from
/// every item's (r, s, y, m), Fiat-Shamir style) reduce the k verification
/// equations to  g^(Σ z_i·s_i) == Π r_i^{z_i} · y_i^{z_i·e_i}  (mod p),
/// evaluated as ONE shared-squaring multi-exponentiation over all 2k+1
/// bases, g included — the one-squaring-chain fast path for 2f+1-signature
/// status certificates. If the combined check fails, falls back to
/// per-signature verification to name the culprit.
/// Equivalent to individually verifying every item (up to ~2^-128 soundness
/// of the random linear combination). An empty batch verifies trivially.
XDEAL_DETERMINISTIC BatchVerifyResult BatchVerify(const std::vector<BatchItem>& items);

}  // namespace xdeal

#endif  // XDEAL_CRYPTO_SCHNORR_H_
