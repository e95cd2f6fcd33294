/** @file Determinism and distribution sanity tests for the RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "sim/rng.hh"

namespace berti
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.nextBounded(bound), bound);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoolRespectsProbability)
{
    Rng r(11);
    int trues = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        trues += r.nextBool(0.25) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(trues) / n, 0.25, 0.02);
}

TEST(Zipf, StaysInRangeAndFavoursHead)
{
    Rng r(13);
    const std::uint64_t n = 1000;
    ZipfSampler zipf(n, 0.9);
    std::uint64_t head = 0, tail = 0;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = zipf.draw(r);
        ASSERT_LT(v, n);
        if (v < n / 10)
            ++head;
        if (v >= 9 * n / 10)
            ++tail;
    }
    // Power law: the first decile must be far more popular than the last.
    EXPECT_GT(head, 5 * tail);
}

TEST(Zipf, SingleElement)
{
    Rng r(17);
    EXPECT_EQ(ZipfSampler(1, 1.2).draw(r), 0u);
}

class ZipfParam : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfParam, InRangeForVariousExponents)
{
    Rng r(19);
    ZipfSampler zipf(512, GetParam());
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(zipf.draw(r), 512u);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfParam,
                         ::testing::Values(0.5, 0.75, 0.9, 1.0, 1.2));

namespace
{

/// Bounded Zipf draw as it was computed before ZipfSampler, with the
/// normaliser recomputed on every draw. ZipfSampler must reproduce it
/// bit for bit: graph topology and hot-set accesses depend on it.
std::uint64_t
referenceZipf(Rng &rng, std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    double u = rng.nextDouble();
    if (s == 1.0) {
        double h = std::log(static_cast<double>(n));
        return static_cast<std::uint64_t>(std::exp(u * h)) - 1;
    }
    double one_minus_s = 1.0 - s;
    double h = (std::pow(static_cast<double>(n), one_minus_s) - 1.0) /
               one_minus_s;
    double x = std::pow(u * h * one_minus_s + 1.0, 1.0 / one_minus_s);
    std::uint64_t v = static_cast<std::uint64_t>(x);
    return v >= n ? n - 1 : v;
}

struct ZipfCase
{
    std::uint64_t n;
    double s;
};

void
PrintTo(const ZipfCase &c, std::ostream *os)
{
    *os << "n=" << c.n << " s=" << c.s;
}

} // namespace

class ZipfMatchesReference : public ::testing::TestWithParam<ZipfCase>
{
};

TEST_P(ZipfMatchesReference, SameValuesAndRngState)
{
    auto [n, s] = GetParam();
    ZipfSampler zipf(n, s);
    Rng a(0x5EED ^ n), b(0x5EED ^ n);
    for (int i = 0; i < 1000000; ++i) {
        std::uint64_t want = referenceZipf(a, n, s);
        std::uint64_t got = zipf.draw(b);
        ASSERT_EQ(got, want) << "draw " << i;
    }
    EXPECT_EQ(b.serializeState(), a.serializeState());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ZipfMatchesReference,
    ::testing::Values(ZipfCase{1u << 19, 0.75}, ZipfCase{32, 0.8},
                      ZipfCase{512, 0.9}, ZipfCase{1000, 1.0},
                      ZipfCase{512, 1.2}, ZipfCase{2, 0.5},
                      ZipfCase{1, 1.2}, ZipfCase{0, 0.9}));

TEST(Zipf, QuarticFastPathMatchesPowOverTenMillionDraws)
{
    // s = 0.75 (every Kron-type graph's target draw) takes truncPow4.
    const std::uint64_t n = 1u << 19;
    ZipfSampler zipf(n, 0.75);
    Rng a(0xC0FFEE), b(0xC0FFEE);
    for (int i = 0; i < 10000000; ++i) {
        std::uint64_t want = referenceZipf(a, n, 0.75);
        std::uint64_t got = zipf.draw(b);
        ASSERT_EQ(got, want) << "draw " << i;
    }
    EXPECT_EQ(b.serializeState(), a.serializeState());
}

TEST(Zipf, TruncPow4MatchesPowNextToIntegers)
{
    // Bases a few ulps either side of k^(1/4), whose fourth power lies
    // next to the integer k, where the product's rounding could put it
    // on the other side of k than pow's.
    auto check = [](double base) {
        ASSERT_EQ(truncPow4(base),
                  static_cast<std::uint64_t>(std::pow(base, 4.0)))
            << std::hexfloat << base;
    };
    for (std::uint64_t k = 1; k < (1u << 20); k += 1 + k / 64) {
        double root = std::pow(static_cast<double>(k), 0.25);
        double up = root, down = root;
        for (int step = 0; step < 8; ++step) {
            check(up);
            check(down);
            up = std::nextafter(up, 2.0 * up);
            down = std::nextafter(down, 0.0);
            if (down < 1.0)
                down = 1.0;
        }
        if (HasFatalFailure())
            return;
    }
    check(1.0);
    check(std::pow(2.0, 13.0));  // b^4 = 2^52, where no fraction is left
}

TEST(Zipf, DrawConsumesOneRawValueUnlessTrivial)
{
    Rng r(23), twin(23);
    ZipfSampler(1000, 0.9).draw(r);
    twin.next();
    EXPECT_EQ(r.serializeState(), twin.serializeState());
    ZipfSampler(1, 0.9).draw(r);
    ZipfSampler(0, 1.0).draw(r);
    EXPECT_EQ(r.serializeState(), twin.serializeState());
}

} // namespace berti
