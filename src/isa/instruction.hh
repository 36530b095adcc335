/**
 * @file
 * SPARC-like instruction records. The workload generator emits these and
 * the core timing models execute them; monitored instructions are turned
 * into events (isa/event.hh) at retirement.
 */

#ifndef FADE_ISA_INSTRUCTION_HH
#define FADE_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace fade
{

/** Dynamic instruction classes relevant to monitoring and timing. */
enum class InstClass : std::uint8_t
{
    IntAlu,    ///< integer add/sub/logic/shift (may propagate md)
    IntMul,    ///< integer multiply/divide (long latency)
    Load,      ///< memory load
    Store,     ///< memory store
    FpAlu,     ///< floating point (never propagates pointers)
    Branch,    ///< conditional branch
    JumpInd,   ///< indirect jump / jump-register (taint-checked target)
    Call,      ///< function call (allocates a stack frame)
    Return,    ///< function return (deallocates a stack frame)
    HighLevel, ///< pseudo-op marking an instrumented high-level event
    Nop,       ///< no-op / other unmonitored work
    NumClasses,
};

/** Categories of events flowing through the monitoring system. */
enum class EventKind : std::uint8_t
{
    Inst,        ///< retired monitored instruction (filterable)
    StackCall,   ///< bulk metadata init on function call (SUU)
    StackReturn, ///< bulk metadata init on function return (SUU)
    Malloc,      ///< high-level allocation event (always software)
    Free,        ///< high-level deallocation event (always software)
    TaintSource, ///< high-level taint introduction (always software)
    LockAcquire, ///< synchronization: lock acquired (always software)
    LockRelease, ///< synchronization: lock released (always software)
    ThreadCreate, ///< synchronization: child thread spawned
    ThreadJoin,   ///< synchronization: child thread joined
};

/** Printable name of an event kind. */
const char *eventKindName(EventKind k);

/** Printable name of an instruction class. */
const char *instClassName(InstClass c);

/**
 * Ground-truth oracle bits attached by the workload generator when it
 * deliberately injects a bug. Monitors never read these; tests use them
 * to verify that each injected bug is detected (and nothing else is).
 */
enum TruthBits : std::uint8_t
{
    truthNone = 0,
    truthAccessUnallocated = 1 << 0, ///< touches unallocated memory
    truthUseUninit = 1 << 1,         ///< consumes uninitialized data
    truthTaintedJump = 1 << 2,       ///< jump target is attacker-tainted
    truthLeakDrop = 1 << 3,          ///< drops the last pointer to a block
    truthAtomViolation = 1 << 4,     ///< unserializable interleaving
    truthDataRace = 1 << 5,          ///< unsynchronized conflicting access
    truthCrossTaint = 1 << 6,        ///< reads another thread's taint
};

/**
 * One dynamic instruction. Plain aggregate for speed; the generator
 * fills every field it needs and leaves the rest zeroed. Members are
 * ordered widest first so the record packs into 40 bytes: it is copied
 * into every reorder-buffer entry, span and handler sequence.
 */
struct Instruction
{
    Addr pc = 0;

    /** Effective address for Load/Store (word aligned). */
    Addr memAddr = 0;

    /** Call/Return: frame base address (low address of the frame). */
    Addr frameBase = 0;
    /** Call/Return: stack frame size in bytes. */
    std::uint32_t frameBytes = 0;

    InstClass cls = InstClass::Nop;

    RegIndex src1 = 0;
    RegIndex src2 = 0;
    std::uint8_t numSrc = 0;
    RegIndex dst = 0;
    bool hasDst = false;

    std::uint8_t memSize = 4;

    ThreadId tid = 0;

    /** Branch resolved as mispredicted: fetch bubble at the core. */
    bool mispredict = false;

    /**
     * Integer ALU ops: true when the operation can carry a pointer or
     * data value to its destination (add/sub/mov); false for flag
     * setting, comparisons, and other non-propagating forms that
     * monitors eliminate at the source.
     */
    bool mayPropagate = true;

    /**
     * HighLevel pseudo-instructions: the instrumented runtime event
     * (Malloc/Free/TaintSource), reusing frameBase/frameBytes as the
     * affected region. Synchronization pseudo-ops reuse them too:
     * Lock{Acquire,Release} carry the lock address in frameBase and
     * the lock's global acquisition index in frameBytes;
     * Thread{Create,Join} carry the child thread object address in
     * frameBase and the child tid in frameBytes. EventKind::Inst
     * means "not a high-level op".
     */
    EventKind hlKind = EventKind::Inst;

    /** Test oracle bits (TruthBits); invisible to the modelled hardware. */
    std::uint8_t truth = truthNone;

    bool isMemRef() const
    {
        return cls == InstClass::Load || cls == InstClass::Store;
    }

    bool isStackUpdate() const
    {
        return cls == InstClass::Call || cls == InstClass::Return;
    }
};

static_assert(sizeof(Instruction) == 40,
              "Instruction grew: keep the Addr members first and the "
              "one-byte members last");

/**
 * Execution latency of an instruction class, excluding memory access
 * time (which the cache hierarchy supplies for loads/stores).
 */
inline unsigned
execLatency(InstClass c)
{
    switch (c) {
      case InstClass::IntMul:
        return 6;
      case InstClass::FpAlu:
        return 4;
      default:
        return 1;
    }
}

} // namespace fade

#endif // FADE_ISA_INSTRUCTION_HH
