#include "sim/rng.hh"

#include <cmath>

namespace berti
{

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    // Multiply-shift reduction; bias is negligible for simulator use.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
truncPow4(double b)
{
    double sq = b * b;
    double q = sq * sq;
    auto v = static_cast<std::uint64_t>(q);
    double frac = q - static_cast<double>(v);
    double margin = q * 0x1p-48;
    if (frac > margin && 1.0 - frac > margin)
        return v;
    return static_cast<std::uint64_t>(std::pow(b, 4.0));
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n(n), logForm(s == 1.0), oneMinusS(1.0 - s)
{
    if (n <= 1)
        return;
    if (logForm) {
        h = std::log(static_cast<double>(n));
        return;
    }
    h = (std::pow(static_cast<double>(n), oneMinusS) - 1.0) / oneMinusS;
    invOneMinusS = 1.0 / oneMinusS;
    quartic = invOneMinusS == 4.0;
}

std::uint64_t
ZipfSampler::draw(Rng &rng) const
{
    if (n <= 1)
        return 0;
    double u = rng.nextDouble();
    if (logForm)
        return static_cast<std::uint64_t>(std::exp(u * h)) - 1;
    double base = u * h * oneMinusS + 1.0;
    std::uint64_t v =
        quartic ? truncPow4(base)
                : static_cast<std::uint64_t>(std::pow(base, invOneMinusS));
    return v >= n ? n - 1 : v;
}

} // namespace berti
