/**
 * @file
 * Shared test helpers: self-deleting temp-file and temp-directory RAII
 * wrappers used by every suite that round-trips files through disk
 * (trace capture, golden replay, threaded-matrix capture tests), the
 * unique-socket-path helper the daemon tests bind their unix sockets
 * under, fetchOne() for tests that read an instruction source one
 * instruction at a time, and the named-counter comparisons
 * (sameStats(), statValue(), dropStats()) that fingerprint tests use.
 */

#ifndef FADE_TESTS_TESTUTIL_HH
#define FADE_TESTS_TESTUTIL_HH

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "cpu/source.hh"
#include "sim/stats.hh"

namespace fade::test
{

/** The next instruction of @p src, fetched as a span of one (a test
 *  failure, and a default instruction, when the source has none). */
inline Instruction
fetchOne(InstSource &src)
{
    InstSpan s = src.fetchSpan(1);
    if (s.count != 1) {
        ADD_FAILURE() << "fetchOne: source served " << s.count
                      << " instructions";
        return {};
    }
    return *s.data;
}

/**
 * Success iff @p a and @p b list the same counters with the same
 * values; a failure names the first few counters that differ
 * ("shard0.fade.suu_cycles: 436 vs 416; ...").
 */
inline testing::AssertionResult
sameStats(const StatVector &a, const StatVector &b)
{
    if (a.names != b.names)
        return testing::AssertionFailure()
               << "different counter lists (" << a.names.size() << " vs "
               << b.names.size() << " counters)";
    constexpr unsigned kShown = 5;
    unsigned differ = 0;
    testing::AssertionResult out = testing::AssertionFailure();
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        if (a.values[i] == b.values[i])
            continue;
        if (differ < kShown)
            out << (differ ? "; " : "") << a.names[i] << ": "
                << a.values[i] << " vs " << b.values[i];
        ++differ;
    }
    if (differ == 0)
        return testing::AssertionSuccess();
    if (differ > kShown)
        out << "; ... (" << differ << " counters differ)";
    return out;
}

/** The value of the counter named @p name (a test failure, and 0,
 *  when @p v has no such counter). */
inline std::uint64_t
statValue(const StatVector &v, const std::string &name)
{
    for (std::size_t i = 0; i < v.names.size(); ++i)
        if (v.names[i] == name)
            return v.values[i];
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

/** @p v without the counters whose names @p drop selects. */
inline StatVector
dropStats(const StatVector &v,
          const std::function<bool(const std::string &)> &drop)
{
    StatVector out;
    for (std::size_t i = 0; i < v.names.size(); ++i)
        if (!drop(v.names[i]))
            out.add(v.names[i], v.values[i]);
    return out;
}

/** Self-deleting temporary file (mkstemp-backed RAII path). */
class TempFile
{
  public:
    explicit TempFile(const char *prefix = "fade_test")
    {
        std::string tmpl = std::string("/tmp/") + prefix + "_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        int fd = ::mkstemp(buf.data());
        if (fd >= 0)
            ::close(fd);
        path_ = buf.data();
    }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Self-deleting temporary directory (mkdtemp-backed RAII path).
 *  Removes its remaining entries — one level, no subdirectories —
 *  and itself on destruction. */
class TempDir
{
  public:
    explicit TempDir(const char *prefix = "fade_test")
    {
        std::string tmpl = std::string("/tmp/") + prefix + "_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data()))
            path_ = buf.data();
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    ~TempDir()
    {
        if (path_.empty())
            return;
        if (DIR *d = ::opendir(path_.c_str())) {
            while (dirent *e = ::readdir(d)) {
                std::string n = e->d_name;
                if (n != "." && n != "..")
                    std::remove((path_ + "/" + n).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(path_.c_str());
    }

    const std::string &path() const { return path_; }

    /** A path inside the directory (cleaned up with it). */
    std::string file(const char *name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/**
 * A unique, unused unix-socket path, short enough for sockaddr_un
 * (its own mkdtemp directory keeps the name under the ~100-char
 * limit regardless of the test name). The socket file and directory
 * are removed on destruction.
 */
class UniqueSocketPath
{
  public:
    UniqueSocketPath() : dir_("fade_sock"), path_(dir_.file("d.sock"))
    {}

    const std::string &path() const { return path_; }

  private:
    TempDir dir_;
    std::string path_;
};

} // namespace fade::test

#endif // FADE_TESTS_TESTUTIL_HH
