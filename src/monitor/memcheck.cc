#include "monitor/memcheck.hh"

#include "monitor/seq.hh"

namespace fade
{

namespace
{

constexpr Addr
handlerPcFor(unsigned eventId)
{
    return handlerCodeBase + 0x1000 + eventId * 0x100;
}

/** Chain-entry slots used by MemCheck's multi-shot rules. */
enum ChainSlot : unsigned
{
    chLoad = firstChainEntry,
    chStore,
    chAluRR,
    chAluRI,
    chMul,
    chLoadAlloc,  ///< allocated-bit check terminating the load chain
    chStoreAlloc, ///< allocated-bit check terminating the store chain
};

} // namespace

bool
MemCheck::monitored(const Instruction &inst) const
{
    switch (inst.cls) {
      case InstClass::IntAlu:
        return inst.mayPropagate;
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::IntMul:
      case InstClass::JumpInd:
        return true;
      case InstClass::Call:
      case InstClass::Return:
        return true;
      case InstClass::HighLevel:
        // Input routines (TaintSource) write their buffer: MemCheck
        // instruments them to mark the region initialized.
        return inst.hlKind == EventKind::Malloc ||
               inst.hlKind == EventKind::Free ||
               inst.hlKind == EventKind::TaintSource;
      default:
        return false;
    }
}

void
MemCheck::programFade(EventTable &table, InvRegFile &inv) const
{
    inv.write(0, mdInit);
    inv.write(callInvReg, mdUninit);     // call: allocated, uninitialized
    inv.write(retInvReg, mdUnallocated); // return: unallocated

    auto ccThenRu = [&](unsigned id, unsigned chain, OperandRule s1,
                        OperandRule s2, OperandRule d, RuOp ru,
                        NbAction nb, unsigned allocChain = 0,
                        bool memIsS1 = true) {
        EventTableEntry e;
        e.s1 = s1;
        e.s2 = s2;
        e.d = d;
        e.cc = true;
        e.multiShot = true;
        e.nextEntry = std::uint8_t(chain);
        e.handlerPc = handlerPcFor(id);
        e.nb.action = nb;
        table.program(id, e);

        EventTableEntry c;
        c.s1 = s1;
        c.s2 = s2;
        c.d = d;
        c.ru = ru;
        c.msCombine = MsCombine::Or;
        c.handlerPc = handlerPcFor(id);
        if (allocChain) {
            // Memory events filter as (CC-init OR RU) AND allocated:
            // the final allocated-bit check keeps accesses to
            // unallocated memory unfiltered even when the propagation
            // would be redundant — an invalid access must reach the
            // software handler to be reported.
            c.multiShot = true;
            c.nextEntry = std::uint8_t(allocChain);
        }
        table.program(chain, c);
        if (allocChain) {
            EventTableEntry a;
            OperandRule loc{true, true, 1, 0x01, 0};
            if (memIsS1)
                a.s1 = loc;
            else
                a.d = loc;
            a.cc = true;
            a.msCombine = MsCombine::And;
            a.handlerPc = handlerPcFor(id);
            table.program(allocChain, a);
        }
    };

    OperandRule mem{true, true, 1, 0xff, 0};
    OperandRule reg{true, false, 1, 0xff, 0};
    OperandRule off{};

    ccThenRu(evLoad, chLoad, mem, off, reg, RuOp::CopyS1,
             NbAction::CopyS1, chLoadAlloc, true);
    ccThenRu(evStore, chStore, reg, off, mem, RuOp::CopyS1,
             NbAction::CopyS1, chStoreAlloc, false);
    ccThenRu(evAluRR, chAluRR, reg, reg, reg, RuOp::AndS1S2,
             NbAction::And);
    ccThenRu(evAluRI, chAluRI, reg, off, reg, RuOp::CopyS1,
             NbAction::CopyS1);
    ccThenRu(evMul, chMul, reg, reg, reg, RuOp::AndS1S2, NbAction::And);

    // Branches and indirect jumps: pure clean checks on the consumed
    // registers (a failing check is a potential uninitialized use).
    EventTableEntry br;
    br.s1 = reg;
    br.s2 = reg;
    br.cc = true;
    br.handlerPc = handlerPcFor(evBranch);
    table.program(evBranch, br);

    EventTableEntry jmp;
    jmp.s1 = reg;
    jmp.cc = true;
    jmp.handlerPc = handlerPcFor(evJumpInd);
    table.program(evJumpInd, jmp);
}

void
MemCheck::initShadow(MonitorContext &ctx, const WorkloadLayout &l) const
{
    ctx.shadow.fillApp(l.globalBase, l.globalLen, mdInit);
    ctx.shadow.fillApp(l.stackBase, l.stackLen, mdInit);
}

void
MemCheck::handleEvent(const UnfilteredEvent &u, MonitorContext &ctx)
{
    const MonEvent &ev = u.ev;
    auto regRead = [&](RegIndex r) { return ctx.regMd.read(ev.tid, r); };
    auto regWrite = [&](RegIndex r, std::uint8_t v) {
        ctx.regMd.write(ev.tid, r, v);
    };

    switch (ev.kind) {
      case EventKind::Inst:
        switch (ev.eventId) {
          case evLoad: {
            std::uint8_t m = ctx.shadow.readApp(ev.appAddr);
            if (!(m & 0x01)) {
                report("invalid-read", ev, "load from unallocated memory");
                m = mdInit;
                ctx.shadow.writeApp(ev.appAddr, m);
            }
            regWrite(ev.dst, m);
            break;
          }
          case evStore: {
            std::uint8_t m = ctx.shadow.readApp(ev.appAddr);
            if (!(m & 0x01))
                report("invalid-write", ev, "store to unallocated memory");
            ctx.shadow.writeApp(ev.appAddr, regRead(ev.src1));
            break;
          }
          case evAluRR:
          case evMul:
            regWrite(ev.dst,
                     std::uint8_t(regRead(ev.src1) & regRead(ev.src2)));
            break;
          case evAluRI:
            regWrite(ev.dst, regRead(ev.src1));
            break;
          case evBranch: {
            // The hardware verdict is authoritative: an unfiltered
            // check-only event failed its clean check at event time.
            bool bad = u.hwChecked
                           ? true
                           : (regRead(ev.src1) & 0x02) == 0 ||
                                 (ev.numSrc > 1 &&
                                  (regRead(ev.src2) & 0x02) == 0);
            if (bad) {
                report("uninit-use", ev, "branch on uninitialized value");
                regWrite(ev.src1, mdInit);
                if (ev.numSrc > 1)
                    regWrite(ev.src2, mdInit);
            }
            break;
          }
          case evJumpInd: {
            bool bad = u.hwChecked
                           ? true
                           : (regRead(ev.src1) & 0x02) == 0;
            if (bad) {
                report("uninit-use", ev, "jump on uninitialized value");
                regWrite(ev.src1, mdInit);
            }
            break;
          }
          default:
            break;
        }
        break;
      case EventKind::Malloc:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUninit);
        break;
      case EventKind::Free:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUnallocated);
        break;
      case EventKind::TaintSource:
        // An input routine filled the buffer.
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdInit);
        break;
      case EventKind::StackCall:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUninit);
        break;
      case EventKind::StackReturn:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUnallocated);
        break;
      default:
        break;
    }
}

void
MemCheck::buildHandlerSeq(const UnfilteredEvent &u,
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
            // Software check: read the operand metadata and compare.
            if (isMem)
                b.load(mdAddrOf(ev.appAddr));
            else
                b.load(monTableBase + ev.src1 * 8);
            b.aluDep();
            b.branch();
        }
        // Update path: propagate definedness to the destination.
        if (ev.eventId == evBranch || ev.eventId == evJumpInd) {
            b.alu();
        } else {
            b.load(isMem ? mdAddrOf(ev.appAddr)
                         : monTableBase + ev.src1 * 8);
            b.aluDep();
            if (ev.eventId == evStore)
                b.store(mdAddrOf(ev.appAddr));
            else
                b.store(monTableBase + ev.dst * 8);
            b.alu();
        }
        break;
      }
      case EventKind::Malloc:
      case EventKind::Free:
      case EventKind::StackCall:
      case EventKind::StackReturn:
        b.bulkFill(ev.appAddr, ev.len);
        break;
      default:
        b.alu();
        break;
    }
}

HandlerClass
MemCheck::instHandlerClass(const UnfilteredEvent &u,
                           const MonitorContext &ctx) const
{
    (void)ctx;
    if (u.ev.eventId == evBranch || u.ev.eventId == evJumpInd)
        return HandlerClass::CheckOnly;
    return HandlerClass::Update;
}

} // namespace fade
