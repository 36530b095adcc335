/**
 * @file
 * Stack-Update Unit (Section 4.2 of the paper): a finite state machine
 * that, given a stack frame's starting address and length, computes the
 * covered metadata block addresses and issues one metadata block write
 * per cycle through the MD cache, setting the range to one of two
 * predefined INV RF values (one for calls, one for returns).
 */

#ifndef FADE_CORE_SUU_HH
#define FADE_CORE_SUU_HH

#include <cstdint>

#include "core/regfiles.hh"
#include "mem/mdcache.hh"
#include "mem/shadow.hh"
#include "sim/types.hh"

namespace fade
{

/**
 * The SUU state machine. While busy it owns the MD cache write port;
 * the filtering pipeline is stopped for the duration (Section 5.2:
 * filtering must stop on stack updates).
 */
class StackUpdateUnit
{
  public:
    /**
     * @param mdc        MD cache the writes go through
     * @param shadow     functional metadata store
     * @param inv        INV RF holding the two bulk values
     *                   (callInvReg, retInvReg)
     */
    StackUpdateUnit(MdCache &mdc, ShadowMemory &shadow, InvRegFile &inv)
        : mdc_(mdc), shadow_(shadow), inv_(inv)
    {}

    /** Begin processing a stack-update event. */
    void
    start(Addr frameBase, std::uint32_t frameBytes, bool isCall)
    {
        panic_if(busy(), "SUU start while busy");
        if (frameBytes == 0)
            return;
        Addr firstWord = frameBase / wordSize;
        Addr lastWord = (frameBase + frameBytes - 1) / wordSize;
        curMd_ = mdBase + firstWord;
        endMd_ = mdBase + lastWord + 1;
        value_ = inv_.read(isCall ? callInvReg : retInvReg);
        stall_ = 0;
        ++updates_;
    }

    bool busy() const { return curMd_ < endMd_ || stall_ > 0; }

    /**
     * Advance one cycle: issue one metadata block write, stalling for
     * MD cache miss latency when the block is not resident.
     */
    void
    tick()
    {
        if (stall_ > 0) {
            --stall_;
            ++busyCycles_;
            return;
        }
        if (curMd_ >= endMd_)
            return;

        ++busyCycles_;
        Addr blockEnd = blockAlign(curMd_) + blockSize;
        Addr writeEnd = blockEnd < endMd_ ? blockEnd : endMd_;

        MdAccessResult r = mdc_.accessMd(curMd_, true);
        if (r.latency > mdc_.params().latency)
            stall_ = r.latency - mdc_.params().latency;

        shadow_.fill(curMd_, writeEnd - curMd_, value_);
        ++blockWrites_;
        curMd_ = writeEnd;
    }

    std::uint64_t updates() const { return updates_; }
    std::uint64_t blockWrites() const { return blockWrites_; }
    std::uint64_t busyCycles() const { return busyCycles_; }

    void
    resetStats()
    {
        updates_ = blockWrites_ = busyCycles_ = 0;
    }

  private:
    MdCache &mdc_;
    ShadowMemory &shadow_;
    InvRegFile &inv_;

    Addr curMd_ = 0;
    Addr endMd_ = 0;
    std::uint8_t value_ = 0;
    unsigned stall_ = 0;

    std::uint64_t updates_ = 0;
    std::uint64_t blockWrites_ = 0;
    std::uint64_t busyCycles_ = 0;
};

} // namespace fade

#endif // FADE_CORE_SUU_HH
