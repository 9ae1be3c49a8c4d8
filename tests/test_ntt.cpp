// Unit + property tests for modular arithmetic, prime generation, and the
// negacyclic NTT (round-trips, convolution correctness vs schoolbook).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "he/params.h"
#include "ntt/modarith.h"
#include "ntt/ntt.h"
#include "ntt/primes.h"

namespace primer {
namespace {

TEST(ModArith, AddSubNeg) {
  const u64 m = 1000003;
  EXPECT_EQ(add_mod(m - 1, 5, m), 4u);
  EXPECT_EQ(sub_mod(3, 5, m), m - 2);
  EXPECT_EQ(neg_mod(0, m), 0u);
  EXPECT_EQ(neg_mod(1, m), m - 1);
}

TEST(ModArith, MulPow) {
  const u64 m = (u64{1} << 61) - 1;  // Mersenne prime
  EXPECT_EQ(mul_mod(m - 1, m - 1, m), 1u);  // (-1)^2 = 1
  EXPECT_EQ(pow_mod(2, 61, m), 1u);         // 2^61 = 2^61 - 1 + 1 ≡ 1
}

TEST(ModArith, InvMod) {
  const u64 m = 65537;
  for (u64 a : {2ULL, 3ULL, 12345ULL, 65536ULL}) {
    EXPECT_EQ(mul_mod(a, inv_mod(a, m), m), 1u);
  }
  EXPECT_THROW(inv_mod(0, m), std::invalid_argument);
}

TEST(ModArith, BarrettMatchesNaive) {
  Rng rng(1);
  for (u64 m : {65537ULL, 1000003ULL, (1ULL << 50) - 27}) {
    const Barrett br(m);
    for (int i = 0; i < 1000; ++i) {
      const u64 a = rng.next();
      EXPECT_EQ(br.reduce(a), a % m);
      const u64 x = rng.uniform(m), y = rng.uniform(m);
      EXPECT_EQ(br.mul(x, y), mul_mod(x, y, m));
    }
  }
}

TEST(ModArith, ShoupMatchesNaive) {
  Rng rng(2);
  const u64 m = (1ULL << 50) - 27;
  for (int i = 0; i < 1000; ++i) {
    const u64 w = rng.uniform(m);
    const ShoupMul s(w, m);
    const u64 x = rng.uniform(m);
    EXPECT_EQ(s.mul(x, m), mul_mod(w, x, m));
  }
}

TEST(ModArith, ShoupQuotientMatchesDivisionForEveryProfilePrime) {
  // The key tables' division-free quotients must equal the u128 division
  // bit for bit in both kernel conventions (64: scalar/avx2/avx512, 52:
  // avx512ifma), for every prime of every profile, at the edges and on
  // random residues.
  Rng rng(3);
  for (const HeProfile profile :
       {HeProfile::kTest2048, HeProfile::kLight4096, HeProfile::kProd8192,
        HeProfile::kProto2048}) {
    for (const u64 q : make_params(profile).q) {
      for (const unsigned shift : {64u, 52u}) {
        const ShoupQuotient quotient(q, shift);
        auto check = [&](u64 x) {
          const u64 want =
              static_cast<u64>((static_cast<u128>(x) << shift) / q);
          ASSERT_EQ(quotient(x), want)
              << "q " << q << " shift " << shift << " x " << x;
        };
        for (const u64 x : {u64{0}, u64{1}, u64{2}, q / 2, q - 2, q - 1}) {
          check(x);
        }
        for (int i = 0; i < 20000; ++i) check(rng.uniform(q));
      }
    }
  }
}

TEST(Primes, MillerRabinKnownValues) {
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(65537));
  EXPECT_TRUE(is_prime_u64((u64{1} << 61) - 1));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_FALSE(is_prime_u64(65535));
  EXPECT_FALSE(is_prime_u64((u64{1} << 62) - 1));
  // Carmichael numbers must be rejected.
  EXPECT_FALSE(is_prime_u64(561));
  EXPECT_FALSE(is_prime_u64(41041));
}

TEST(Primes, GeneratedPrimesAreNttFriendly) {
  const auto primes = generate_ntt_primes(40, 2048, 3);
  EXPECT_EQ(primes.size(), 3u);
  for (u64 p : primes) {
    EXPECT_TRUE(is_prime_u64(p));
    EXPECT_EQ((p - 1) % (2 * 2048), 0u);
    EXPECT_GE(p, u64{1} << 39);
    EXPECT_LT(p, u64{1} << 40);
  }
  EXPECT_NE(primes[0], primes[1]);
  EXPECT_NE(primes[1], primes[2]);
}

TEST(Primes, FirstPrimeAtLeast) {
  const u64 p = first_ntt_prime_at_least(1 << 20, 4096);
  EXPECT_TRUE(is_prime_u64(p));
  EXPECT_GE(p, u64{1} << 20);
  EXPECT_EQ(p % 8192, 1u);
}

TEST(Primes, PrimitiveRootHasExactOrder) {
  const u64 p = generate_ntt_primes(40, 1024, 1)[0];
  const u64 root = find_primitive_root(p, 2048);
  EXPECT_EQ(pow_mod(root, 2048, p), 1u);
  EXPECT_NE(pow_mod(root, 1024, p), 1u);  // order exactly 2n
}

class NttParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttParamTest, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  const u64 p = generate_ntt_primes(45, n, 1)[0];
  const Ntt ntt(n, p);
  Rng rng(n);
  std::vector<u64> a(n);
  rng.fill_uniform_mod(a, p);
  const auto original = a;
  ntt.forward(a);
  EXPECT_NE(a, original);  // transform does something
  ntt.inverse(a);
  EXPECT_EQ(a, original);
}

TEST_P(NttParamTest, ConvolutionMatchesSchoolbook) {
  const std::size_t n = GetParam();
  const u64 p = generate_ntt_primes(45, n, 1)[0];
  const Ntt ntt(n, p);
  Rng rng(n + 1);
  std::vector<u64> a(n), b(n);
  rng.fill_uniform_mod(a, p);
  rng.fill_uniform_mod(b, p);

  // Schoolbook negacyclic convolution: x^n = -1.
  std::vector<u64> expect(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = mul_mod(a[i], b[j], p);
      const std::size_t k = i + j;
      if (k < n) {
        expect[k] = add_mod(expect[k], prod, p);
      } else {
        expect[k - n] = sub_mod(expect[k - n], prod, p);
      }
    }
  }
  EXPECT_EQ(ntt.negacyclic_multiply(a, b), expect);
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttParamTest,
                         ::testing::Values(8, 16, 64, 256, 1024));

TEST(Ntt, MultiplyByOnePolynomial) {
  const std::size_t n = 64;
  const u64 p = generate_ntt_primes(45, n, 1)[0];
  const Ntt ntt(n, p);
  Rng rng(99);
  std::vector<u64> a(n), one(n, 0);
  rng.fill_uniform_mod(a, p);
  one[0] = 1;
  EXPECT_EQ(ntt.negacyclic_multiply(a, one), a);
}

TEST(Ntt, MultiplyByXShiftsNegacyclically) {
  const std::size_t n = 16;
  const u64 p = generate_ntt_primes(45, n, 1)[0];
  const Ntt ntt(n, p);
  std::vector<u64> a(n, 0), x(n, 0);
  for (std::size_t i = 0; i < n; ++i) a[i] = i + 1;
  x[1] = 1;
  const auto r = ntt.negacyclic_multiply(a, x);
  // (a * x): coefficient i+1 gets a_i, coefficient 0 gets -a_{n-1}.
  EXPECT_EQ(r[0], p - n);  // -a_{n-1} = -(n)
  for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(r[i], i);
}

TEST(Ntt, RejectsBadParameters) {
  EXPECT_THROW(Ntt(100, 65537), std::invalid_argument);     // not power of 2
  EXPECT_THROW(Ntt(64, 1000003), std::invalid_argument);    // p != 1 mod 2n
}

TEST(Ntt, PointwiseSizeMismatchThrows) {
  const std::size_t n = 16;
  const u64 p = generate_ntt_primes(45, n, 1)[0];
  const Ntt ntt(n, p);
  std::vector<u64> a(n), b(8), out;
  EXPECT_THROW(ntt.pointwise(a, b, out), std::invalid_argument);
}

}  // namespace
}  // namespace primer
