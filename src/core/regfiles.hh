/**
 * @file
 * FADE's small register files: the Invariant Register File (INV RF)
 * holding monitor-specific invariant values, and the Metadata Register
 * File (MD RF) holding the critical metadata of the architectural
 * registers (per hardware-thread context).
 */

#ifndef FADE_CORE_REGFILES_HH
#define FADE_CORE_REGFILES_HH

#include <array>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace fade
{

/** Number of invariant registers. */
constexpr unsigned numInvRegs = 8;

/** INV registers holding the bulk values the Stack-Update Unit writes
 *  over a frame on function calls and on returns; each monitor's
 *  programFade() fills both. */
constexpr unsigned callInvReg = 6;
constexpr unsigned retInvReg = 7;

/** Maximum software threads the MD RF tracks (AtomCheck workloads). */
constexpr unsigned maxThreads = 4;

/**
 * Invariant register file. Monitors program it with the metadata
 * encodings their checks compare against (e.g., unallocated / allocated
 * / initialized for MemCheck) plus the two bulk values the Stack-Update
 * Unit writes on calls and returns. Memory-mapped; written at monitor
 * setup and on rare software events (e.g., thread switch for
 * AtomCheck's current-thread register).
 */
class InvRegFile
{
  public:
    std::uint8_t
    read(unsigned idx) const
    {
        panic_if(idx >= numInvRegs, "INV RF read out of range");
        return regs_[idx];
    }

    void
    write(unsigned idx, std::uint8_t v)
    {
        fatal_if(idx >= numInvRegs, "INV RF write out of range");
        regs_[idx] = v;
    }

    void clear() { regs_.fill(0); }

  private:
    std::array<std::uint8_t, numInvRegs> regs_{};
};

/**
 * Metadata register file: one critical-metadata byte per architectural
 * register per thread context. Written by the Non-Blocking MD update
 * logic in the Metadata Write stage, and by software handlers through
 * the memory-mapped interface.
 */
class MdRegFile
{
  public:
    std::uint8_t
    read(ThreadId tid, RegIndex r) const
    {
        panic_if(tid >= maxThreads || r >= numArchRegs,
                 "MD RF read out of range");
        return md_[tid][r];
    }

    void
    write(ThreadId tid, RegIndex r, std::uint8_t v)
    {
        panic_if(tid >= maxThreads || r >= numArchRegs,
                 "MD RF write out of range");
        md_[tid][r] = v;
    }

    /** Set every register of every context to @p v (monitor setup). */
    void
    fill(std::uint8_t v)
    {
        for (auto &ctx : md_)
            ctx.fill(v);
    }

  private:
    std::array<std::array<std::uint8_t, numArchRegs>, maxThreads> md_{};
};

} // namespace fade

#endif // FADE_CORE_REGFILES_HH
