/**
 * @file
 * Small deterministic xorshift-based pseudo-random generator. Every source
 * of randomness in the simulator (graph topology, page mapping, workload
 * mixes) flows through this class so runs are bit-reproducible.
 */

#ifndef BERTI_SIM_RNG_HH
#define BERTI_SIM_RNG_HH

#include <cstdint>

namespace berti
{

/**
 * xorshift64* generator. Deliberately not std::mt19937: we want a tiny,
 * header-visible, implementation-pinned generator whose sequences never
 * change across standard-library versions.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability p of true. */
    bool nextBool(double p);

    /** Full generator state, for checkpoint export. */
    std::uint64_t serializeState() const { return state; }

    /** Restore a state previously captured with serializeState(). */
    void restoreState(std::uint64_t s) { state = s; }

  private:
    std::uint64_t state;
};

/**
 * Zipf-distributed integers in [0, n) with exponent s, used for
 * power-law graph degrees and hot-set accesses. Rejection-free
 * approximate inverse-CDF sampling, accurate enough for synthetic
 * workloads. The normaliser depends only on (n, s), so it is computed
 * once here; each draw costs one pow (one exp when s == 1) and consumes
 * exactly one raw value of the Rng, or none when n <= 1.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double s);

    /** Next Zipf-distributed value, drawn from rng. */
    std::uint64_t draw(Rng &rng) const;

  private:
    std::uint64_t n;
    bool logForm;               //!< s == 1: exp of a uniform over [0, ln n)
    double h = 0.0;             //!< ln n, or (n^(1-s) - 1) / (1-s)
    double oneMinusS;
    double invOneMinusS = 0.0;  //!< 1 / (1-s)
};

} // namespace berti

#endif // BERTI_SIM_RNG_HH
