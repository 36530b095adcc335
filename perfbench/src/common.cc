#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <sys/mman.h>

namespace perfbench
{

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ",";
        out += jsonNumber(v[i]);
    }
    return out + "]";
}

} // namespace

std::int64_t
SpanLog::add(const char *name, std::uint64_t id, std::int64_t parent,
             Clock::time_point t0, Clock::time_point t1)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back(Span{name, id, parent, ns(t0), ns(t1)});
    return std::int64_t(spans_.size()) - 1;
}

std::int64_t
SpanLog::open(const char *name, std::uint64_t id, std::int64_t parent,
              Clock::time_point t0)
{
    return add(name, id, parent, t0, t0);
}

void
SpanLog::close(std::int64_t idx, Clock::time_point t1)
{
    if (!enabled_ || idx < 0)
        return;
    std::lock_guard<std::mutex> lk(m_);
    spans_.at(std::size_t(idx)).endNs = ns(t1);
}

void
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(m_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "index,name,id,parent,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu,%s,%llu,%lld,%lld,%lld\n", i, s.name.c_str(),
                     (unsigned long long)s.id, (long long)s.parent,
                     (long long)s.startNs, (long long)s.endNs);
    }
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write " + path);
}

bool
Outcome::check(bool ok, const std::string &what)
{
    if (!ok && failures.size() < 100)
        failures.push_back(what);
    return ok;
}

void
Outcome::samples(const std::string &name, const std::string &unit,
                 std::vector<double> v)
{
    LayerValue &l = layers[name];
    l.unit = unit;
    l.samples = std::move(v);
}

void
Outcome::ratio(const std::string &name, const std::string &unit,
               double num, double den)
{
    LayerValue &l = layers[name];
    l.unit = unit;
    l.isRatio = true;
    l.num = num;
    l.den = den;
}

std::string
Outcome::json(const RunArgs &a) const
{
    // "<key>": values, "<key>_host": the host's slowdown over each.
    auto timed = [this](const char *key, const std::vector<Timed> &v) {
        std::vector<double> values, host;
        for (const Timed &t : v) {
            values.push_back(t.value);
            host.push_back(this->host.slowdown(t.t0, t.t1));
        }
        return "\"" + std::string(key) + "\":" + jsonArray(values) + ",\"" +
               key + "_host\":" + jsonArray(host);
    };
    std::ostringstream o;
    o << "{\"workload\":" << jsonString(a.workload)
      << ",\"seed\":" << a.seed << ",\"trace\":" << (a.trace ? 1 : 0)
      << ",\"smoke\":" << (a.smoke ? 1 : 0)
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i)
        o << (i ? "," : "") << jsonString(failures[i]);
    o << "]," << timed("wall_s", {wall}) << ",\"ops\":" << ops
      << ",\"events\":" << events << "," << timed("op_ms", opMs) << ","
      << timed("setup_s", setupSeconds) << ","
      << timed("events_per_s", eventsPerSecond)
      << ",\"peak_rss_mib\":" << jsonNumber(peakRssMib)
      << ",\"ref_kernel_ms\":" << jsonArray(host.samplesMs())
      << ",\"ref_kernel_nominal_ms\":" << jsonNumber(HostSpeed::nominalMs)
      << ",\"info\":{";
    bool first = true;
    for (const auto &[k, v] : info) {
        o << (first ? "" : ",") << jsonString(k) << ":" << jsonString(v);
        first = false;
    }
    for (const auto &[k, v] : infoNum) {
        o << (first ? "" : ",") << jsonString(k) << ":" << jsonNumber(v);
        first = false;
    }
    o << "},\"layers\":{";
    first = true;
    for (const auto &[k, l] : layers) {
        o << (first ? "" : ",") << jsonString(k) << ":{\"unit\":"
          << jsonString(l.unit);
        if (l.isRatio)
            o << ",\"num\":" << jsonNumber(l.num)
              << ",\"den\":" << jsonNumber(l.den);
        else
            o << ",\"samples\":" << jsonArray(l.samples);
        o << "}";
        first = false;
    }
    o << "}}";
    return o.str();
}

double
peakRssMib(const std::string &pid)
{
    // VmHWM belongs to the address space, so unlike getrusage()'s
    // ru_maxrss it does not inherit the parent's peak across exec.
    std::ifstream in("/proc/" + pid + "/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            in >> kib;
            return kib / 1024.0;
        }
        in.ignore(1 << 16, '\n');
    }
    return 0.0;
}

void
HostSpeed::sample()
{
    std::lock_guard<std::mutex> lk(m_);
    // Random read-modify-writes over a 2 MiB table, each behind a branch
    // on the loaded value: cache- and branch-bound like the simulator's
    // own structures, so it slows down when they do (perfbench/README.md,
    // "Host speed"); an integer chain without memory traffic moved only a
    // quarter as much. Fixed trip count, same work every pass.
    // The table is mapped for the pass only and kept out of the peak
    // resident set of the process under test: the peak so far is noted
    // first, and the high-water mark is reset after the pass.
    peakMib_ = std::max(peakMib_, peakRssMib());
    constexpr std::size_t entries = std::size_t(1) << 18;
    const std::size_t bytes = entries * sizeof(std::uint64_t);
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        throw std::runtime_error("cannot map the reference kernel table");
    auto *table = static_cast<std::uint64_t *>(mem);
    std::fill(table, table + entries, 0);
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL, acc = 0;
    for (std::uint32_t i = 0; i < 600'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &e = table[x & (entries - 1)];
        if ((e ^ x) & 1)
            e += x;
        else
            acc += e;
    }
    const auto t1 = Clock::now();
    ::munmap(mem, bytes);
    std::ofstream("/proc/self/clear_refs") << "5";
    static volatile std::uint64_t sink;
    sink = acc;
    (void)sink;
    samples_.push_back(Sample{t0, seconds(t0, t1) * 1e3});
}

void
HostSpeed::tick()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        if (!samples_.empty() &&
            seconds(samples_.back().at, Clock::now()) < intervalSeconds)
            return;
    }
    sample();
}

double
HostSpeed::slowdown(Clock::time_point t0, Clock::time_point t1) const
{
    std::lock_guard<std::mutex> lk(m_);
    if (samples_.empty())
        throw std::runtime_error("no reference kernel sample");
    const auto pad = std::chrono::seconds(1);
    std::vector<double> near;
    for (const Sample &s : samples_)
        if (s.at >= t0 - pad && s.at <= t1 + pad)
            near.push_back(s.ms);
    if (near.size() < 3) {
        // Too few inside: the three nearest to the interval instead.
        const auto mid = t0 + (t1 - t0) / 2;
        std::vector<std::pair<double, double>> byDistance;
        for (const Sample &s : samples_)
            byDistance.push_back({std::abs(seconds(mid, s.at)), s.ms});
        std::sort(byDistance.begin(), byDistance.end());
        near.clear();
        for (std::size_t i = 0; i < byDistance.size() && i < 3; ++i)
            near.push_back(byDistance[i].second);
    }
    return median(near) / nominalMs;
}

double
HostSpeed::peakRssMibSansKernel() const
{
    std::lock_guard<std::mutex> lk(m_);
    return std::max(peakMib_, peakRssMib());
}

std::vector<double>
HostSpeed::samplesMs() const
{
    std::lock_guard<std::mutex> lk(m_);
    std::vector<double> v;
    for (const Sample &s : samples_)
        v.push_back(s.ms);
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace perfbench
