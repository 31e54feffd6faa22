#include "bigint/montgomery.hpp"

#include <algorithm>
#include <cstring>

#include "common/status.hpp"

namespace datablinder::bigint {

namespace {
using U128 = unsigned __int128;
constexpr unsigned kLimbBits = 64;

/// m^{-1} mod 2^64 for odd m, by Hensel lifting: each Newton step
/// x <- x * (2 - m*x) doubles the number of correct low bits, and x = m
/// is already correct mod 2^3.
std::uint64_t word_inverse(std::uint64_t m) {
  std::uint64_t x = m;
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return x;
}
}  // namespace

Montgomery::Montgomery(const BigInt& m) : modulus_(m) {
  require(!m.is_negative() && m > BigInt(1), "Montgomery: modulus must be > 1");
  require(m.is_odd(), "Montgomery: modulus must be odd");
  mod_ = m.limbs_;
  n_ = mod_.size();
  n0_ = ~word_inverse(mod_[0]) + 1;  // -m^{-1} mod 2^64

  // R^2 mod m and R mod m via one division each — the precomputation every
  // later mul/pow amortizes away.
  BigInt r2 = (BigInt(1) << (2 * kLimbBits * n_)).mod(modulus_);
  r2_ = std::move(r2.limbs_);
  r2_.resize(n_, 0);
  BigInt r1 = (BigInt(1) << (kLimbBits * n_)).mod(modulus_);
  one_mont_ = std::move(r1.limbs_);
  one_mont_.resize(n_, 0);
}

Montgomery::Limbs Montgomery::residue(const BigInt& a) const {
  Limbs out = a.mod(modulus_).limbs_;
  out.resize(n_, 0);
  return out;
}

BigInt Montgomery::from_residue(const Limbs& a) const {
  BigInt out;
  out.limbs_ = a;
  out.trim();
  return out;
}

// CIOS: interleaves multiplication by b with word-by-word Montgomery
// reduction; t never grows beyond n_+2 limbs (Koç, Acar & Kaliski 1996).
void Montgomery::cios(const Limbs& a, const Limbs& b, Limbs& out) const {
  out.resize(n_);
  cios(a.data(), b.data(), out.data());
}

void Montgomery::cios(const Limb* a, const Limb* b, Limb* out) const {
  const std::size_t n = n_;
  Limb stack_t[kStackLimbs];
  Limbs heap_t;
  Limb* t = stack_t;
  if (n + 2 > kStackLimbs) {
    heap_t.resize(n + 2);
    t = heap_t.data();
  }
  std::fill(t, t + n + 2, Limb{0});
  for (std::size_t i = 0; i < n; ++i) {
    // t += a[i] * b
    const U128 ai = a[i];
    U128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const U128 s = t[j] + ai * b[j] + carry;
      t[j] = static_cast<Limb>(s);
      carry = s >> kLimbBits;
    }
    U128 s = t[n] + carry;
    t[n] = static_cast<Limb>(s);
    t[n + 1] = static_cast<Limb>(s >> kLimbBits);

    // One reduction word: make t divisible by 2^64 and shift it out.
    const Limb mfactor = t[0] * n0_;
    const U128 mf = mfactor;
    s = t[0] + mf * mod_[0];
    carry = s >> kLimbBits;  // low word is zero by construction
    for (std::size_t j = 1; j < n; ++j) {
      s = t[j] + mf * mod_[j] + carry;
      t[j - 1] = static_cast<Limb>(s);
      carry = s >> kLimbBits;
    }
    s = t[n] + carry;
    t[n - 1] = static_cast<Limb>(s);
    t[n] = t[n + 1] + static_cast<Limb>(s >> kLimbBits);
    t[n + 1] = 0;
  }

  // Conditional final subtraction: t in [0, 2m).
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != mod_[i]) {
        ge = t[i] > mod_[i];
        break;
      }
    }
  }
  if (ge) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Limb d = t[i] - mod_[i] - borrow;
      borrow = (t[i] < mod_[i]) || (t[i] == mod_[i] && borrow) ? 1 : 0;
      out[i] = d;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = t[i];
  }
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  // cios(a, b) = a*b*R^-1; a second pass against R^2 restores the factor.
  Limbs t, result;
  cios(residue(a), residue(b), t);
  cios(t, r2_, result);
  return from_residue(result);
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  require(!exp.is_negative(), "Montgomery::pow: negative exponent");
  if (exp.is_zero()) return BigInt(1).mod(modulus_);

  // Montgomery form of the base and the 16-entry window table.
  Limbs base_m;
  cios(residue(base), r2_, base_m);
  std::vector<Limbs> table(16);
  table[0] = one_mont_;
  table[1] = base_m;
  for (std::size_t i = 2; i < 16; ++i) cios(table[i - 1], base_m, table[i]);

  const std::size_t bits = exp.bit_length();
  const std::size_t windows = (bits + 3) / 4;
  auto window_digit = [&](std::size_t w) {
    unsigned d = 0;
    for (unsigned k = 0; k < 4; ++k) {
      if (exp.bit(4 * w + k)) d |= 1u << k;
    }
    return d;
  };

  Limbs acc = table[window_digit(windows - 1)];
  Limbs tmp;
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (int s = 0; s < 4; ++s) {
      cios(acc, acc, tmp);
      acc.swap(tmp);
    }
    // Unconditional table multiply (digit 0 hits the Montgomery one), so
    // the CIOS sequence depends only on the exponent's bit-length.
    cios(acc, table[window_digit(w)], tmp);
    acc.swap(tmp);
  }

  Limbs one(n_, 0);
  one[0] = 1;
  cios(acc, one, tmp);  // leave the residue domain
  return from_residue(tmp);
}

Montgomery::Product::Product(const Montgomery& ctx)
    : ctx_(ctx), acc_(ctx.n_, 0), factor_(ctx.n_, 0), next_(ctx.n_, 0) {
  acc_[0] = 1;
}

void Montgomery::Product::multiply(const BigInt& factor) {
  require(!factor.is_negative(), "Montgomery::Product: negative factor");
  const Limbs* limbs = &factor.limbs_;
  BigInt reduced;
  if (limbs->size() > ctx_.n_) {
    reduced = factor.mod(ctx_.modulus_);
    limbs = &reduced.limbs_;
  }
  std::fill(std::copy(limbs->begin(), limbs->end(), factor_.begin()), factor_.end(), Limb{0});
  ctx_.cios(acc_.data(), factor_.data(), next_.data());
  acc_.swap(next_);
  ++count_;
}

BigInt Montgomery::Product::result() const {
  // acc = P * R^-k; one more pass against R^(k+1) mod m leaves P.
  const BigInt r_mod_m = ctx_.from_residue(ctx_.one_mont_);
  Limbs fix = ctx_.pow(r_mod_m, BigInt(count_ + 1)).limbs_;
  fix.resize(ctx_.n_, 0);
  Limbs out(ctx_.n_);
  ctx_.cios(acc_.data(), fix.data(), out.data());
  return ctx_.from_residue(out);
}

}  // namespace datablinder::bigint
