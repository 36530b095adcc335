#include "monitor/memleak.hh"

#include "monitor/seq.hh"
#include "sim/logging.hh"

namespace fade
{

namespace
{

constexpr Addr
handlerPcFor(unsigned eventId)
{
    return handlerCodeBase + 0x3000 + eventId * 0x100;
}

} // namespace

bool
MemLeak::monitored(const Instruction &inst) const
{
    // MemLeak monitors instructions that may propagate a pointer value
    // (arithmetic and loads/stores) and eliminates floating-point
    // instructions (Section 3.1).
    switch (inst.cls) {
      case InstClass::IntAlu:
        return inst.mayPropagate;
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::IntMul:
      case InstClass::Call:
      case InstClass::Return:
        return true;
      case InstClass::HighLevel:
        // Input routines overwrite their buffer with non-pointer data.
        return inst.hlKind == EventKind::Malloc ||
               inst.hlKind == EventKind::Free ||
               inst.hlKind == EventKind::TaintSource;
      default:
        return false;
    }
}

void
MemLeak::programFade(EventTable &table, InvRegFile &inv) const
{
    inv.write(0, mdNonPointer);
    inv.write(callInvReg, mdNonPointer); // call: frame holds no pointers
    inv.write(retInvReg, mdNonPointer);  // return: likewise

    OperandRule mem{true, true, 1, 0x01, 0};
    OperandRule reg{true, false, 1, 0x01, 0};

    // All rules are single-shot clean checks against the non-pointer
    // invariant (Fig. 6(b)'s first example row).
    EventTableEntry ld;
    ld.s1 = mem;
    ld.d = reg;
    ld.cc = true;
    ld.handlerPc = handlerPcFor(evLoad);
    ld.nb.action = NbAction::CopyS1;
    table.program(evLoad, ld);

    EventTableEntry st;
    st.s1 = reg;
    st.d = mem;
    st.cc = true;
    st.handlerPc = handlerPcFor(evStore);
    st.nb.action = NbAction::CopyS1;
    table.program(evStore, st);

    EventTableEntry rr;
    rr.s1 = reg;
    rr.s2 = reg;
    rr.d = reg;
    rr.cc = true;
    rr.handlerPc = handlerPcFor(evAluRR);
    rr.nb.action = NbAction::Or;
    table.program(evAluRR, rr);

    EventTableEntry ri;
    ri.s1 = reg;
    ri.d = reg;
    ri.cc = true;
    ri.handlerPc = handlerPcFor(evAluRI);
    ri.nb.action = NbAction::CopyS1;
    table.program(evAluRI, ri);

    // Multiplying a pointer yields a non-pointer: the result metadata
    // is a constant (NB rule 3).
    EventTableEntry mul;
    mul.s1 = reg;
    mul.s2 = reg;
    mul.d = reg;
    mul.cc = true;
    mul.handlerPc = handlerPcFor(evMul);
    mul.nb.action = NbAction::SetConst;
    mul.nb.invId = 0;
    table.program(evMul, mul);
}

std::uint32_t
MemLeak::ctxOfSlot(Addr appAddr) const
{
    const std::uint32_t *p = slotCtx_.find(appAddr / wordSize);
    return p ? *p : 0;
}

void
MemLeak::setSlotCtx(Addr appAddr, std::uint32_t id)
{
    Addr w = appAddr / wordSize;
    const std::uint32_t *p = slotCtx_.find(w);
    std::uint32_t old = p ? *p : 0;
    if (old == id)
        return;
    if (id == 0)
        slotCtx_.erase(w);
    else
        slotCtx_[w] = id;
    if (id)
        incRef(id);
    if (old) {
        MonEvent dummy;
        decRef(old, dummy);
    }
}

void
MemLeak::setRegCtx(ThreadId tid, RegIndex r, std::uint32_t id)
{
    std::uint32_t old = regCtx_[tid][r];
    if (old == id)
        return;
    regCtx_[tid][r] = id;
    if (id)
        incRef(id);
    if (old) {
        MonEvent dummy;
        decRef(old, dummy);
    }
}

void
MemLeak::incRef(std::uint32_t id)
{
    panic_if(id == 0 || id > ctxs_.size(), "bad MemLeak context id");
    ++ctxs_[id - 1].refs;
}

void
MemLeak::decRef(std::uint32_t id, const MonEvent &ev)
{
    panic_if(id == 0 || id > ctxs_.size(), "bad MemLeak context id");
    AllocCtx &c = ctxs_[id - 1];
    panic_if(c.refs <= 0, "MemLeak reference count underflow");
    if (--c.refs == 0 && !c.freed && !c.leakReported) {
        c.leakReported = true;
        ++leaks_;
        MonEvent rep = ev;
        rep.appAddr = c.base;
        report("memory-leak", rep,
               "last reference to unfreed allocation dropped");
    }
}

void
MemLeak::handleEvent(const UnfilteredEvent &u, MonitorContext &ctx)
{
    const MonEvent &ev = u.ev;
    auto regMd = [&](RegIndex r) { return ctx.regMd.read(ev.tid, r); };

    switch (ev.kind) {
      case EventKind::Inst:
        switch (ev.eventId) {
          case evLoad: {
            std::uint32_t id = ctxOfSlot(ev.appAddr);
            setRegCtx(ev.tid, ev.dst, id);
            ctx.regMd.write(ev.tid, ev.dst,
                            ctx.shadow.readApp(ev.appAddr));
            break;
          }
          case evStore: {
            std::uint32_t id = regCtx_[ev.tid][ev.src1];
            setSlotCtx(ev.appAddr, id);
            ctx.shadow.writeApp(ev.appAddr, regMd(ev.src1));
            break;
          }
          case evAluRR: {
            // Pointer arithmetic: the result references whichever
            // source was a pointer (at most one in well-formed code).
            std::uint32_t id = regCtx_[ev.tid][ev.src1]
                                   ? regCtx_[ev.tid][ev.src1]
                                   : regCtx_[ev.tid][ev.src2];
            setRegCtx(ev.tid, ev.dst, id);
            ctx.regMd.write(ev.tid, ev.dst,
                            std::uint8_t(regMd(ev.src1) |
                                         regMd(ev.src2)));
            break;
          }
          case evAluRI: {
            setRegCtx(ev.tid, ev.dst, regCtx_[ev.tid][ev.src1]);
            ctx.regMd.write(ev.tid, ev.dst, regMd(ev.src1));
            break;
          }
          case evMul: {
            setRegCtx(ev.tid, ev.dst, 0);
            ctx.regMd.write(ev.tid, ev.dst, mdNonPointer);
            break;
          }
          default:
            break;
        }
        break;
      case EventKind::Malloc: {
        AllocCtx c;
        c.id = std::uint32_t(ctxs_.size() + 1);
        c.pc = ev.appPc;
        c.base = ev.appAddr;
        c.len = ev.len;
        ctxs_.push_back(c);
        baseToCtx_[ev.appAddr] = c.id;
        // Fresh region: no pointers inside, and the returned pointer
        // lands in the destination register.
        for (Addr a = ev.appAddr; a < ev.appAddr + ev.len; a += wordSize)
            setSlotCtx(a, 0);
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdNonPointer);
        setRegCtx(ev.tid, ev.dst, c.id);
        ctx.regMd.write(ev.tid, ev.dst, mdPointer);
        break;
      }
      case EventKind::Free: {
        const std::uint32_t *ctxId = baseToCtx_.find(ev.appAddr);
        if (ctxId) {
            AllocCtx &c = ctxs_[*ctxId - 1];
            c.freed = true;
            // References held inside the freed block die with it.
            for (Addr a = c.base; a < c.base + c.len; a += wordSize)
                setSlotCtx(a, 0);
            ctx.shadow.fillApp(c.base, c.len, mdNonPointer);
        }
        break;
      }
      case EventKind::TaintSource: {
        // Input data overwrote the buffer: references inside it die.
        for (Addr a = ev.appAddr; a < ev.appAddr + ev.len; a += wordSize)
            setSlotCtx(a, 0);
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdNonPointer);
        break;
      }
      case EventKind::StackCall:
      case EventKind::StackReturn: {
        // Frame words die: drop any references they held. This is the
        // moment most leaks become detectable (the last pointer to an
        // allocation often lives in a local variable).
        for (Addr a = ev.appAddr; a < ev.appAddr + ev.len; a += wordSize)
            setSlotCtx(a, 0);
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdNonPointer);
        break;
      }
      default:
        break;
    }
}

void
MemLeak::buildHandlerSeq(const UnfilteredEvent &u,
                         const MonitorContext &ctx,
                         std::vector<Instruction> &out) const
{
    const MonEvent &ev = u.ev;
    SeqBuilder b(out, u.handlerPc ? u.handlerPc : handlerPcFor(0), 0);
    b.dispatch(ev.seq, 16);
    (void)ctx;

    switch (ev.kind) {
      case EventKind::Inst: {
        bool isMem = ev.eventId == evLoad || ev.eventId == evStore;
        if (!u.hwChecked) {
            // Software fast-path check: pointer bits of the operands.
            if (isMem)
                b.load(mdAddrOf(ev.appAddr));
            else
                b.load(monTableBase + ev.src1 * 8);
            b.load(monTableBase + ev.dst * 8);
            b.aluDep();
            b.branch();
        }
        // Reference-counting slow path: look up both contexts, adjust
        // two reference counters, store the new context and metadata.
        Addr ctxTable = monTableBase + 0x10000;
        b.load(isMem ? mdAddrOf(ev.appAddr)
                     : monTableBase + ev.src1 * 8);
        b.loadDep(ctxTable + (ev.appAddr & 0x3f) * 16);
        b.aluDep();
        b.load(ctxTable + (ev.dst & 0x3f) * 16);
        b.aluDep();
        b.branch();
        b.load(ctxTable + (ev.appAddr & 0x3f) * 16 + 8);
        b.aluDep();
        b.store(ctxTable + (ev.appAddr & 0x3f) * 16 + 8);
        b.load(ctxTable + (ev.dst & 0x3f) * 16 + 8);
        b.aluDep();
        b.branch();
        b.store(ctxTable + (ev.dst & 0x3f) * 16 + 8);
        b.alu();
        if (ev.eventId == evStore)
            b.store(mdAddrOf(ev.appAddr));
        else
            b.store(monTableBase + (ev.hasDst ? ev.dst : 0) * 8);
        break;
      }
      case EventKind::Malloc: {
        // Create the context, clear the region metadata.
        b.alu().aluDep().store(monTableBase + 0x10000);
        b.alu().store(monTableBase + 0x10008);
        b.bulkFill(ev.appAddr, ev.len);
        break;
      }
      case EventKind::Free: {
        b.load(monTableBase + 0x10000);
        b.aluDep().branch();
        b.bulkFill(ev.appAddr, ev.len);
        break;
      }
      case EventKind::StackCall:
      case EventKind::StackReturn:
        b.bulkFill(ev.appAddr, ev.len);
        break;
      default:
        b.alu();
        break;
    }
}

} // namespace fade
