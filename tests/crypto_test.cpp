// Known-answer and behavioural tests for the crypto substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/hex.hpp"
#include "common/status.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/aes_kernels.hpp"
#include "crypto/ctr.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siv.hpp"

namespace datablinder::crypto {
namespace {

/// Every kernel set this CPU can run: the portable reference always, the
/// hardware set where CPUID reports it.
std::vector<const detail::AesKernels*> kernel_sets() {
  std::vector<const detail::AesKernels*> sets = {&detail::portable_kernels()};
  if (const detail::AesKernels* hw = detail::hardware_kernels()) sets.push_back(hw);
  return sets;
}

TEST(Sha256Test, Fips180KnownAnswers) {
  EXPECT_EQ(hex_encode(Sha256::digest(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_encode(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_encode(Sha256::digest(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_encode(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes data = DetRng(1).bytes(10000);
  for (std::size_t split : {0u, 1u, 63u, 64u, 65u, 5000u, 9999u}) {
    Sha256 h;
    h.update(BytesView(data).first(split));
    h.update(BytesView(data).subspan(split));
    EXPECT_EQ(h.finalize(), Sha256::digest(data)) << "split=" << split;
  }
}

TEST(Sha256Test, EmptyUpdateBetweenChunksIsANoOp) {
  // A default BytesView has a null data pointer; feeding it while a partial
  // block is buffered must neither change the digest nor touch the pointer.
  const Bytes data = DetRng(2).bytes(100);
  Sha256 h;
  h.update(BytesView(data).first(10));
  h.update(BytesView{});
  h.update(BytesView(data).subspan(10));
  h.update(BytesView{});
  EXPECT_EQ(h.finalize(), Sha256::digest(data));
}

TEST(HmacTest, Rfc4231Vectors) {
  // Test case 1.
  EXPECT_EQ(hex_encode(HmacSha256::mac(Bytes(20, 0x0b), to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2.
  EXPECT_EQ(hex_encode(HmacSha256::mac(to_bytes("Jefe"),
                                       to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Test case 6: key larger than block size.
  EXPECT_EQ(hex_encode(HmacSha256::mac(
                Bytes(131, 0xaa),
                to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyRejectsWrongTag) {
  const Bytes key = to_bytes("k");
  const Bytes msg = to_bytes("m");
  Bytes tag = HmacSha256::mac(key, msg);
  EXPECT_TRUE(HmacSha256::verify(key, msg, tag));
  tag[0] ^= 1;
  EXPECT_FALSE(HmacSha256::verify(key, msg, tag));
}

TEST(HkdfTest, Rfc5869TestCase1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(AesTest, Fips197KnownAnswers) {
  struct Case {
    const char* key;
    const char* pt;
    const char* ct;
  };
  const Case cases[] = {
      // Appendix B (cipher example).
      {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
       "3925841d02dc09fbdc118597196a0b32"},
      // Appendix C.1-C.3.
      {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "00112233445566778899aabbccddeeff", "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "00112233445566778899aabbccddeeff", "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const detail::AesKernels* k : kernel_sets()) {
    for (const auto& c : cases) {
      const Aes aes(hex_decode(c.key), *k);
      Bytes block = hex_decode(c.pt);
      aes.encrypt_block(block.data());
      EXPECT_EQ(hex_encode(block), c.ct) << k->name << " key " << c.key;
      aes.decrypt_block(block.data());
      EXPECT_EQ(hex_encode(block), c.pt) << k->name << " key " << c.key;
    }
  }
}

TEST(AesTest, PublicClassBindsTheCpuidChoice) {
  const detail::AesKernels* hw = detail::hardware_kernels();
  EXPECT_EQ(&Aes(Bytes(16, 1)).kernels(), hw != nullptr ? hw : &detail::portable_kernels());
  EXPECT_EQ(&detail::active_kernels(), &Aes(Bytes(16, 1)).kernels());
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15, 0)), Error);
  EXPECT_THROW(Aes(Bytes(33, 0)), Error);
  EXPECT_THROW(Aes(Bytes{}), Error);
}

TEST(CtrTest, RoundTripAndSeekConsistency) {
  const Aes aes(Bytes(16, 0x42));
  std::array<std::uint8_t, 16> counter{};
  const Bytes pt = DetRng(7).bytes(1000);
  Bytes ct = aes_ctr(aes, counter, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(aes_ctr(aes, counter, ct), pt);
}

TEST(CtrTest, Sp80038aCtrAes128OnEveryKernelSet) {
  // SP 800-38A F.5.1: four blocks from counter f0f1...feff.
  const Bytes pt = hex_decode(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  std::array<std::uint8_t, 16> counter{};
  const Bytes c0 = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::copy(c0.begin(), c0.end(), counter.begin());
  for (const detail::AesKernels* k : kernel_sets()) {
    const Aes aes(hex_decode("2b7e151628aed2a6abf7158809cf4f3c"), *k);
    EXPECT_EQ(hex_encode(aes_ctr(aes, counter, pt)),
              "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
              "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee")
        << k->name;
  }
}

TEST(GcmTest, Sp80038dVectorsOnEveryKernelSet) {
  // The GCM specification's test cases (McGrew & Viega, as adopted by
  // SP 800-38D validation) plus one CAVP AAD-only vector.
  const char* p64 =
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
  const std::string p60 = std::string(p64).substr(0, 120);
  const char* k128 = "feffe9928665731c6d6a8f9467308308";
  const char* k192 = "feffe9928665731c6d6a8f9467308308feffe9928665731c";
  const char* k256 = "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
  const char* iv = "cafebabefacedbaddecaf888";
  const char* aad = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
  struct Case {
    const char* what;
    std::string key, nonce, pt, aad, ct, tag;
  };
  const Case cases[] = {
      {"empty input, 128", std::string(32, '0'), std::string(24, '0'), "", "", "",
       "58e2fccefa7e3061367f1d57a4e7455a"},
      {"one block, 128", std::string(32, '0'), std::string(24, '0'), std::string(32, '0'), "",
       "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"},
      {"multi-block, 128", k128, iv, p64, "",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      {"partial final block with AAD, 128", k128, iv, p60, aad,
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
       "5bc94fbc3221a5db94fae95ae7121a47"},
      {"AAD only, 128", "77be63708971c4e240d1cb79e8d77feb", "e0e00f19fed7ba0136a797f3", "",
       "7a43ec1d9c0a5a78a0b16533a6213cab", "", "209fcc8d3675ed938e9c7166709dd946"},
      {"empty input, 192", std::string(48, '0'), std::string(24, '0'), "", "", "",
       "cd33b28ac773f74ba00ed1f312572435"},
      {"multi-block, 192", k192, iv, p64, "",
       "3980ca0b3c00e841eb06fac4872a2757859e1ceaa6efd984628593b40ca1e19c"
       "7d773d00c144c525ac619d18c84a3f4718e2448b2fe324d9ccda2710acade256",
       "9924a7c8587336bfb118024db8674a14"},
      {"one block, 256", std::string(64, '0'), std::string(24, '0'), std::string(32, '0'), "",
       "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919"},
      {"partial final block with AAD, 256", k256, iv, p60, aad,
       "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
       "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
       "76fc6ece0f4e1768cddf8853bb2d551b"},
  };
  for (const detail::AesKernels* k : kernel_sets()) {
    for (const auto& c : cases) {
      const AesGcm g(hex_decode(c.key), *k);
      const Bytes nonce = hex_decode(c.nonce);
      const Bytes sealed = g.seal(nonce, hex_decode(c.pt), hex_decode(c.aad));
      EXPECT_EQ(hex_encode(sealed), c.ct + c.tag) << k->name << ": " << c.what;
      const auto opened = g.open(nonce, sealed, hex_decode(c.aad));
      ASSERT_TRUE(opened.has_value()) << k->name << ": " << c.what;
      EXPECT_EQ(hex_encode(*opened), c.pt) << k->name << ": " << c.what;
    }
  }
}

TEST(GcmTest, TamperDetection) {
  AesGcm g(Bytes(32, 9));
  Bytes sealed = g.seal_random_nonce(to_bytes("secret"), to_bytes("ctx"));
  EXPECT_TRUE(g.open_with_nonce(sealed, to_bytes("ctx")).has_value());
  // Wrong AAD.
  EXPECT_FALSE(g.open_with_nonce(sealed, to_bytes("other")).has_value());
  // Flipped ciphertext bit.
  sealed[14] ^= 1;
  EXPECT_FALSE(g.open_with_nonce(sealed, to_bytes("ctx")).has_value());
}

TEST(GcmTest, RandomNoncesDiffer) {
  AesGcm g(Bytes(16, 1));
  const Bytes a = g.seal_random_nonce(to_bytes("x"));
  const Bytes b = g.seal_random_nonce(to_bytes("x"));
  EXPECT_NE(a, b);  // probabilistic encryption
}

// --- portable vs hardware kernels ------------------------------------------------

class KernelDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    hw_ = detail::hardware_kernels();
    if (hw_ == nullptr) GTEST_SKIP() << "no AES-NI/PCLMULQDQ on this CPU";
  }
  const detail::AesKernels& sw_ = detail::portable_kernels();
  const detail::AesKernels* hw_ = nullptr;
  DetRng rng_{20260815};

  Bytes random_key() { return rng_.bytes(16 + 8 * rng_.uniform(3)); }
  /// Lengths 0..4 KiB, weighted towards the block and 8-block boundaries.
  std::size_t random_length() {
    if (rng_.uniform(2) == 0) {
      const std::size_t base = 16 * rng_.uniform(20);
      return base + rng_.uniform(3) - (base > 0 ? 1 : 0);
    }
    return rng_.uniform(4097);
  }
};

TEST_F(KernelDifferential, SubWordMatchesForEveryByte) {
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (unsigned pos = 0; pos < 4; ++pos) {
      const std::uint32_t w = (b << (8 * pos)) | (0x5au << (8 * ((pos + 1) % 4)));
      EXPECT_EQ(hw_->sub_word(w), sw_.sub_word(w)) << std::hex << w;
    }
  }
}

TEST_F(KernelDifferential, AesBlockMatches) {
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes key = random_key();
    const Aes a(key, sw_);
    const Aes b(key, *hw_);
    Bytes x = rng_.bytes(16);
    Bytes y = x;
    a.encrypt_block(x.data());
    b.encrypt_block(y.data());
    ASSERT_EQ(x, y) << "key " << hex_encode(key);
  }
}

TEST_F(KernelDifferential, CtrMatchesAcrossLengthsAndCounterCarries) {
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes key = random_key();
    const Aes a(key, sw_);
    const Aes b(key, *hw_);
    std::array<std::uint8_t, 16> counter{};
    const Bytes c = rng_.bytes(16);
    std::copy(c.begin(), c.end(), counter.begin());
    // Every fourth trial starts a few blocks below a 64- or 128-bit carry.
    if (trial % 4 == 1) std::fill(counter.begin() + 8, counter.end() - 1, 0xff);
    if (trial % 4 == 2) std::fill(counter.begin(), counter.end() - 1, 0xff);
    const Bytes data = rng_.bytes(random_length());
    ASSERT_EQ(aes_ctr(a, counter, data), aes_ctr(b, counter, data))
        << "trial " << trial << " length " << data.size();
  }
}

TEST_F(KernelDifferential, GhashMatches) {
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes h = rng_.bytes(16);
    detail::GhashKey ksw;
    detail::GhashKey khw;
    sw_.ghash_init(h.data(), ksw);
    hw_->ghash_init(h.data(), khw);
    ASSERT_EQ(ksw.h, khw.h) << "powers of H, trial " << trial;

    const std::size_t nblocks = random_length() / 16;
    const Bytes blocks = rng_.bytes(16 * nblocks);
    Bytes ysw = rng_.bytes(16);
    Bytes yhw = ysw;
    sw_.ghash_blocks(ksw, ysw.data(), blocks.data(), nblocks);
    hw_->ghash_blocks(khw, yhw.data(), blocks.data(), nblocks);
    ASSERT_EQ(ysw, yhw) << "trial " << trial << " blocks " << nblocks;
  }
}

TEST_F(KernelDifferential, SealOpenMatchAndRejectTampering) {
  for (int trial = 0; trial < 150; ++trial) {
    const Bytes key = random_key();
    const AesGcm a(key, sw_);
    const AesGcm b(key, *hw_);
    const Bytes nonce = rng_.bytes(AesGcm::kNonceSize);
    const Bytes aad = rng_.bytes(rng_.uniform(4) == 0 ? 0 : rng_.uniform(80));
    const Bytes pt = rng_.bytes(random_length());

    const Bytes sealed = a.seal(nonce, pt, aad);
    ASSERT_EQ(sealed, b.seal(nonce, pt, aad)) << "trial " << trial << " length " << pt.size();
    for (const AesGcm* g : {&a, &b}) {
      const auto opened = g->open(nonce, sealed, aad);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, pt);

      Bytes flipped = sealed;
      flipped[rng_.uniform(flipped.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.uniform(8));
      EXPECT_FALSE(g->open(nonce, flipped, aad).has_value()) << "trial " << trial;
      Bytes other_aad = aad;
      other_aad.push_back(0);
      EXPECT_FALSE(g->open(nonce, sealed, other_aad).has_value()) << "trial " << trial;
      Bytes other_nonce = nonce;
      other_nonce[rng_.uniform(other_nonce.size())] ^= 0x80;
      EXPECT_FALSE(g->open(other_nonce, sealed, aad).has_value()) << "trial " << trial;
    }
  }
}

TEST(SivTest, DeterministicAndAuthenticated) {
  AesSiv siv(Bytes(32, 7));
  const Bytes c1 = siv.seal(to_bytes("hello"), to_bytes("aad"));
  const Bytes c2 = siv.seal(to_bytes("hello"), to_bytes("aad"));
  EXPECT_EQ(c1, c2);  // deterministic
  EXPECT_NE(c1, siv.seal(to_bytes("hello"), to_bytes("other-aad")));
  EXPECT_NE(c1, siv.seal(to_bytes("hellp"), to_bytes("aad")));

  const auto opened = siv.open(c1, to_bytes("aad"));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), "hello");
  EXPECT_FALSE(siv.open(c1, to_bytes("wrong")).has_value());

  Bytes tampered = c1;
  tampered[20] ^= 1;
  EXPECT_FALSE(siv.open(tampered, to_bytes("aad")).has_value());
}

TEST(SivTest, KeySeparation) {
  AesSiv a(Bytes(32, 1));
  AesSiv b(Bytes(32, 2));
  EXPECT_NE(a.seal(to_bytes("v")), b.seal(to_bytes("v")));
  EXPECT_FALSE(b.open(a.seal(to_bytes("v"))).has_value());
}

TEST(PrfTest, LabelsSeparateDomains) {
  const Bytes key(32, 3);
  EXPECT_NE(prf_labeled(key, "a", to_bytes("x")), prf_labeled(key, "b", to_bytes("x")));
  // label||input ambiguity is broken by the separator byte.
  EXPECT_NE(prf_labeled(key, "ab", to_bytes("c")), prf_labeled(key, "a", to_bytes("bc")));
}

TEST(PrfTest, PrfNExtendsDeterministically) {
  const Bytes key(32, 5);
  const Bytes long1 = prf_n(key, to_bytes("in"), 100);
  const Bytes long2 = prf_n(key, to_bytes("in"), 100);
  EXPECT_EQ(long1, long2);
  EXPECT_EQ(long1.size(), 100u);
  const Bytes short1 = prf_n(key, to_bytes("in"), 8);
  EXPECT_EQ(short1.size(), 8u);
}

TEST(RngTest, SecureRngProducesDistinctValues) {
  EXPECT_NE(SecureRng::bytes(32), SecureRng::bytes(32));
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(SecureRng::uniform(17), 17u);
  }
}

TEST(RngTest, DetRngIsDeterministic) {
  DetRng a(99), b(99);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform(1000), b.uniform(1000));
}

}  // namespace
}  // namespace datablinder::crypto
