// Known-answer and behavioural tests for the crypto substrate.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "common/status.hpp"
#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/ctr.hpp"
#include "crypto/gcm.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siv.hpp"

namespace datablinder::crypto {
namespace {

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
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  struct Case {
    const char* key;
    const char* ct;
  };
  const Case cases[] = {
      {"000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"000102030405060708090a0b0c0d0e0f1011121314151617",
       "dda97ca4864cdfe06eaf70a0ec0d7191"},
      {"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
       "8ea2b7ca516745bfeafc49904b496089"},
  };
  for (const auto& c : cases) {
    Aes aes(hex_decode(c.key));
    std::uint8_t block[16];
    std::copy(pt.begin(), pt.end(), block);
    aes.encrypt_block(block);
    EXPECT_EQ(hex_encode(Bytes(block, block + 16)), c.ct);
    aes.decrypt_block(block);
    EXPECT_EQ(Bytes(block, block + 16), pt);
  }
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

TEST(GcmTest, NistCaseWithAad) {
  AesGcm g(hex_decode("feffe9928665731c6d6a8f9467308308"));
  const Bytes iv = hex_decode("cafebabefacedbaddecaf888");
  const Bytes pt = hex_decode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hex_decode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const Bytes sealed = g.seal(iv, pt, aad);
  EXPECT_EQ(hex_encode(Bytes(sealed.begin(), sealed.end() - 16)),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(hex_encode(Bytes(sealed.end() - 16, sealed.end())),
            "5bc94fbc3221a5db94fae95ae7121a47");
  const auto opened = g.open(iv, sealed, aad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, EmptyPlaintextKnownTag) {
  AesGcm g(Bytes(16, 0));
  const Bytes iv(12, 0);
  const Bytes sealed = g.seal(iv, {});
  EXPECT_EQ(hex_encode(sealed), "58e2fccefa7e3061367f1d57a4e7455a");
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
