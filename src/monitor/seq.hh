/**
 * @file
 * Builder for software handler instruction sequences. Handlers are
 * modelled as short dynamic instruction sequences with realistic
 * register dependences and metadata/queue memory references, so the
 * monitor core's timing model (and its caches) see representative
 * work: high-locality, ILP-rich code that runs markedly faster on wide
 * OoO cores than in-order ones — the core-type sensitivity the paper
 * observes in Fig. 10.
 */

#ifndef FADE_MONITOR_SEQ_HH
#define FADE_MONITOR_SEQ_HH

#include <vector>

#include "isa/event.hh"
#include "isa/instruction.hh"
#include "mem/shadow.hh"

namespace fade
{

/** Monitor-address-space region holding the event queue buffers. */
constexpr Addr ueqBufBase = Addr(2) << 32;
/** Monitor-address-space region holding private monitor tables. */
constexpr Addr monTableBase = Addr(3) << 32;
/** Monitor handler code region (handler PCs live here). */
constexpr Addr handlerCodeBase = Addr(4) << 32;

/** Fluent builder appending instructions to a handler sequence. */
class SeqBuilder
{
  public:
    SeqBuilder(std::vector<Instruction> &out, Addr pc, ThreadId tid)
        : out_(out), pc_(pc), tid_(tid)
    {}

    /** Independent ALU op (short dependence chains, ILP-friendly). */
    SeqBuilder &
    alu(unsigned nsrc = 2)
    {
        Instruction &i = emit(InstClass::IntAlu);
        i.numSrc = std::uint8_t(nsrc);
        i.src1 = cursor(3);
        i.src2 = cursor(5);
        i.hasDst = true;
        i.dst = nextDst();
        return *this;
    }

    /** ALU op consuming the previous instruction's result. */
    SeqBuilder &
    aluDep()
    {
        Instruction &i = emit(InstClass::IntAlu);
        i.numSrc = 2;
        i.src1 = lastDst_;
        i.src2 = cursor(5);
        i.hasDst = true;
        i.dst = nextDst();
        return *this;
    }

    /** Load from @p addr; result starts a new dependence chain. */
    SeqBuilder &
    load(Addr addr)
    {
        Instruction &i = emit(InstClass::Load);
        i.memAddr = addr;
        i.numSrc = 1;
        i.src1 = cursor(3);
        i.hasDst = true;
        i.dst = nextDst();
        return *this;
    }

    /** Load whose address depends on the previous result. */
    SeqBuilder &
    loadDep(Addr addr)
    {
        Instruction &i = emit(InstClass::Load);
        i.memAddr = addr;
        i.numSrc = 1;
        i.src1 = lastDst_;
        i.hasDst = true;
        i.dst = nextDst();
        return *this;
    }

    /** Store the previous result to @p addr. */
    SeqBuilder &
    store(Addr addr)
    {
        Instruction &i = emit(InstClass::Store);
        i.memAddr = addr;
        i.numSrc = 2;
        i.src1 = lastDst_;
        i.src2 = cursor(3);
        return *this;
    }

    /** Conditional branch consuming the previous result. */
    SeqBuilder &
    branch(bool mispredict = false)
    {
        Instruction &i = emit(InstClass::Branch);
        i.numSrc = 1;
        i.src1 = lastDst_;
        i.mispredict = mispredict;
        return *this;
    }

    /** Indirect jump (handler dispatch) on the previous result. */
    SeqBuilder &
    jumpInd()
    {
        Instruction &i = emit(InstClass::JumpInd);
        i.numSrc = 1;
        i.src1 = lastDst_;
        return *this;
    }

    std::size_t size() const { return out_.size(); }

    /**
     * Standard handler dispatch prologue: read the queue slot, decode
     * the event, and jump to the handler.
     */
    SeqBuilder &
    dispatch(std::uint64_t seq, std::size_t qcap)
    {
        Addr slot = ueqBufBase + (seq % (qcap ? qcap : 16)) * 32;
        load(slot);
        loadDep(slot + 8);
        aluDep();
        jumpInd();
        return *this;
    }

    /**
     * Bulk metadata fill loop over the @p lenBytes application bytes
     * at @p appBase (allocation, free, stack-frame and taint-source
     * handlers): ~2 instructions per 8 metadata bytes.
     */
    SeqBuilder &
    bulkFill(Addr appBase, std::uint64_t lenBytes)
    {
        alu().alu().aluDep();
        std::uint64_t mdBytes = (lenBytes + wordSize - 1) / wordSize;
        Addr md = mdAddrOf(appBase);
        for (std::uint64_t off = 0; off < mdBytes; off += 8) {
            alu(1);
            store(md + off);
        }
        return branch();
    }

  private:
    /** Append the next instruction of class @p c and return it for
     *  the caller to fill in place (valid until the next append). */
    Instruction &
    emit(InstClass c)
    {
        Instruction &i = out_.emplace_back();
        i.cls = c;
        i.pc = pc_;
        i.tid = tid_;
        pc_ += 4;
        return i;
    }

    RegIndex
    nextDst()
    {
        // Rotate destinations over r1..r10 so consecutive ops form
        // short, mostly independent chains.
        rr_ = RegIndex(rr_ % 10 + 1);
        lastDst_ = rr_;
        return rr_;
    }

    RegIndex
    cursor(unsigned stride) const
    {
        return RegIndex((rr_ + stride) % 10 + 1);
    }

    std::vector<Instruction> &out_;
    Addr pc_;
    ThreadId tid_;
    RegIndex rr_ = 1;
    RegIndex lastDst_ = 1;
};

} // namespace fade

#endif // FADE_MONITOR_SEQ_HH
