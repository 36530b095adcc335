/**
 * @file
 * Fundamental scalar types shared by every simulator component.
 */

#ifndef FADE_SIM_TYPES_HH
#define FADE_SIM_TYPES_HH

#include <cstdint>

namespace fade
{

/** A point in simulated time, measured in core clock cycles. */
using Cycle = std::uint64_t;

/** An address in the application's (virtual) address space. */
using Addr = std::uint64_t;

/** Architectural register index (SPARC-like: 32 integer registers). */
using RegIndex = std::uint8_t;

/** Hardware thread / software thread identifier. */
using ThreadId = std::uint8_t;

/** Number of architectural integer registers modelled. */
constexpr unsigned numArchRegs = 32;

/** Application word size in bytes (the paper uses 32-bit binaries). */
constexpr Addr wordSize = 4;

/** Cache block size used throughout the hierarchy (Table 1). */
constexpr Addr blockSize = 64;

/** Page size used by the metadata TLB translation. */
constexpr Addr pageSize = 4096;

/** Round an address down to its containing cache block. */
constexpr Addr
blockAlign(Addr a)
{
    return a & ~(blockSize - 1);
}

/** Round an address down to its containing page. */
constexpr Addr
pageAlign(Addr a)
{
    return a & ~(pageSize - 1);
}

} // namespace fade

#endif // FADE_SIM_TYPES_HH
