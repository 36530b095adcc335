/**
 * @file
 * Lightweight statistics containers: log2 histograms (queue-occupancy
 * CDFs, Fig. 3 of the paper, and the burst/distance distributions of
 * Fig. 4).
 *
 * Counter structs (FadeStats, RunResult) list their members once, in a
 * static forEachField(f) that calls f(name, &T::member, StatKind) per
 * member. mergeFields() and appendFields() walk that list, so merging,
 * both fingerprints and their counter names all follow from it.
 *
 * Thread-safety contract: none of these types lock. The multi-core
 * path keeps every container shard-private while worker threads run
 * and folds them together only at slice barriers or end of run, on a
 * single thread, via the merge() members (merge-at-barrier rollups).
 * Each merge() is order-independent across operands, so rolling up in
 * fixed shard order yields bit-identical aggregates no matter how the
 * slices were executed.
 */

#ifndef FADE_SIM_STATS_HH
#define FADE_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fade
{

/**
 * Histogram with power-of-two bucket boundaries: bucket k counts samples
 * in [2^(k-1), 2^k), with bucket 0 counting exact zeros and bucket 1
 * counting exact ones. Mirrors the paper's Fig. 3/4 log-scale axes.
 */
class Log2Histogram
{
  public:
    void
    sample(std::uint64_t v, std::uint64_t weight = 1)
    {
        unsigned b = bucketOf(v);
        if (b >= counts_.size())
            counts_.resize(b + 1, 0);
        counts_[b] += weight;
        total_ += weight;
        max_ = std::max(max_, v);
    }

    /** Bucket index for a value: 0 for 0, else floor(log2(v)) + 1
     *  (single count-leading-zeros; same buckets as the shift loop it
     *  replaced — this sits on every queue push). */
    static unsigned
    bucketOf(std::uint64_t v)
    {
        if (v == 0)
            return 0;
        return 64 - unsigned(__builtin_clzll(v));
    }

    /** Upper bound (inclusive) of bucket b: 0, 1, 2, 4, 8, ... */
    static std::uint64_t
    bucketUpper(unsigned b)
    {
        return b == 0 ? 0 : (std::uint64_t(1) << (b - 1));
    }

    std::uint64_t total() const { return total_; }
    std::uint64_t maxValue() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    /** Fold another histogram's buckets into this one (shard rollups). */
    void
    merge(const Log2Histogram &o)
    {
        if (o.counts_.size() > counts_.size())
            counts_.resize(o.counts_.size(), 0);
        for (std::size_t b = 0; b < o.counts_.size(); ++b)
            counts_[b] += o.counts_[b];
        total_ += o.total_;
        max_ = std::max(max_, o.max_);
    }

    /** Fraction of samples with value <= @p v. */
    double
    cdfAt(std::uint64_t v) const
    {
        if (total_ == 0)
            return 1.0;
        std::uint64_t acc = 0;
        for (unsigned b = 0; b < counts_.size(); ++b) {
            if (bucketUpper(b) > v)
                break;
            acc += counts_[b];
        }
        return static_cast<double>(acc) / total_;
    }

    /** Smallest power-of-two bucket bound covering fraction @p p. */
    std::uint64_t
    percentile(double p) const
    {
        if (total_ == 0)
            return 0;
        std::uint64_t need =
            static_cast<std::uint64_t>(std::ceil(p * total_));
        std::uint64_t acc = 0;
        for (unsigned b = 0; b < counts_.size(); ++b) {
            acc += counts_[b];
            if (acc >= need)
                return bucketUpper(b);
        }
        return bucketUpper(counts_.empty() ? 0
                                           : unsigned(counts_.size() - 1));
    }

    void
    reset()
    {
        counts_.clear();
        total_ = 0;
        max_ = 0;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * What sets a listed counter: Functional counters follow from the
 * instruction and event streams alone, so every engine must agree on
 * them; Timing counters are set by the timing model (run-grain
 * models them in closed form).
 */
enum class StatKind : std::uint8_t { Functional, Timing };

/**
 * A run's counters flattened into one comparable vector, each value
 * named by a dotted path (`shard0.fade.suu_cycles`); values[i] is
 * named names[i]. Two runs are bit-identical iff their values compare
 * equal; the names say which counter differs when they do not.
 */
struct StatVector
{
    std::vector<std::uint64_t> values;
    std::vector<std::string> names;

    void
    add(std::string name, std::uint64_t v)
    {
        names.push_back(std::move(name));
        values.push_back(v);
    }

    /** Sample total, largest sample, then one value per bucket. */
    void
    add(const std::string &name, const Log2Histogram &h)
    {
        add(name + ".total", h.total());
        add(name + ".max", h.maxValue());
        for (std::size_t b = 0; b < h.buckets().size(); ++b)
            add(name + ".bucket[" + std::to_string(b) + "]",
                h.buckets()[b]);
    }

    template <std::size_t N>
    void
    add(const std::string &name, const std::array<std::uint64_t, N> &a)
    {
        for (std::size_t i = 0; i < N; ++i)
            add(name + "[" + std::to_string(i) + "]", a[i]);
    }

    /** Append every value of @p o, its names under @p prefix. */
    void
    append(const std::string &prefix, const StatVector &o)
    {
        for (std::size_t i = 0; i < o.values.size(); ++i)
            add(prefix + "." + o.names[i], o.values[i]);
    }
};

/**
 * Append the counters T::forEachField lists, in list order, named
 * `prefix.field`; @p functionalOnly skips the StatKind::Timing ones.
 */
template <class T>
void
appendFields(StatVector &out, const std::string &prefix, const T &s,
             bool functionalOnly = false)
{
    T::forEachField([&](const char *name, auto member, StatKind kind) {
        if (!functionalOnly || kind == StatKind::Functional)
            out.add(prefix + "." + name, s.*member);
    });
}

inline void accumulate(std::uint64_t &a, std::uint64_t b) { a += b; }
inline void accumulate(Log2Histogram &a, const Log2Histogram &b)
{
    a.merge(b);
}
template <std::size_t N>
void
accumulate(std::array<std::uint64_t, N> &a,
           const std::array<std::uint64_t, N> &b)
{
    for (std::size_t i = 0; i < N; ++i)
        a[i] += b[i];
}

/** Fold @p b's listed counters into @p a (shard and unit rollups). */
template <class T>
void
mergeFields(T &a, const T &b)
{
    T::forEachField([&](const char *, auto member, StatKind) {
        accumulate(a.*member, b.*member);
    });
}

/** Geometric mean over a set of ratios (the paper reports gmeans). */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / xs.size());
}

} // namespace fade

#endif // FADE_SIM_STATS_HH
