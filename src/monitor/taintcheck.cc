#include "monitor/taintcheck.hh"

#include "monitor/seq.hh"

namespace fade
{

namespace
{

constexpr Addr
handlerPcFor(unsigned eventId)
{
    return handlerCodeBase + 0x2000 + eventId * 0x100;
}

enum ChainSlot : unsigned
{
    chLoad = firstChainEntry,
    chStore,
    chAluRR,
    chAluRI,
    chMul,
};

} // namespace

bool
TaintCheck::monitored(const Instruction &inst) const
{
    switch (inst.cls) {
      case InstClass::IntAlu:
        return inst.mayPropagate;
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::IntMul:
      case InstClass::JumpInd:
      case InstClass::Call:
      case InstClass::Return:
        return true;
      case InstClass::HighLevel:
        return inst.hlKind == EventKind::TaintSource ||
               inst.hlKind == EventKind::Free;
      default:
        return false;
    }
}

void
TaintCheck::programFade(EventTable &table, InvRegFile &inv) const
{
    inv.write(0, mdUntainted);
    inv.write(callInvReg, mdUntainted); // call: fresh frame is untainted
    inv.write(retInvReg, mdUntainted);  // return: clear taint with it

    auto ccThenRu = [&](unsigned id, unsigned chain, OperandRule s1,
                        OperandRule s2, OperandRule d, RuOp ru,
                        NbAction nb) {
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
        table.program(chain, c);
    };

    OperandRule mem{true, true, 1, 0x01, 0};
    OperandRule reg{true, false, 1, 0x01, 0};
    OperandRule off{};

    ccThenRu(evLoad, chLoad, mem, off, reg, RuOp::CopyS1,
             NbAction::CopyS1);
    ccThenRu(evStore, chStore, reg, off, mem, RuOp::CopyS1,
             NbAction::CopyS1);
    ccThenRu(evAluRR, chAluRR, reg, reg, reg, RuOp::OrS1S2, NbAction::Or);
    ccThenRu(evAluRI, chAluRI, reg, off, reg, RuOp::CopyS1,
             NbAction::CopyS1);
    ccThenRu(evMul, chMul, reg, reg, reg, RuOp::OrS1S2, NbAction::Or);

    // Indirect jump: alert when the target register is tainted.
    EventTableEntry jmp;
    jmp.s1 = reg;
    jmp.cc = true;
    jmp.handlerPc = handlerPcFor(evJumpInd);
    table.program(evJumpInd, jmp);
}

void
TaintCheck::handleEvent(const UnfilteredEvent &u, MonitorContext &ctx)
{
    const MonEvent &ev = u.ev;
    auto regRead = [&](RegIndex r) { return ctx.regMd.read(ev.tid, r); };
    auto regWrite = [&](RegIndex r, std::uint8_t v) {
        ctx.regMd.write(ev.tid, r, v);
    };

    switch (ev.kind) {
      case EventKind::Inst:
        switch (ev.eventId) {
          case evLoad:
            regWrite(ev.dst, ctx.shadow.readApp(ev.appAddr));
            break;
          case evStore:
            ctx.shadow.writeApp(ev.appAddr, regRead(ev.src1));
            break;
          case evAluRR:
          case evMul:
            regWrite(ev.dst,
                     std::uint8_t(regRead(ev.src1) | regRead(ev.src2)));
            break;
          case evAluRI:
            regWrite(ev.dst, regRead(ev.src1));
            break;
          case evJumpInd: {
            // When the hardware already performed the clean check, an
            // unfiltered jump means the target WAS tainted at event
            // time (later events' non-blocking updates may have since
            // overwritten the register metadata).
            bool tainted = u.hwChecked
                               ? true
                               : (regRead(ev.src1) & mdTainted) != 0;
            if (tainted) {
                report("tainted-jump", ev,
                       "indirect jump to attacker-controlled target");
                // Clear the taint so one exploit yields one alert.
                regWrite(ev.src1, mdUntainted);
            }
            break;
          }
          default:
            break;
        }
        break;
      case EventKind::TaintSource:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdTainted);
        break;
      case EventKind::Free:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUntainted);
        break;
      case EventKind::StackCall:
      case EventKind::StackReturn:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUntainted);
        break;
      default:
        break;
    }
}

void
TaintCheck::buildHandlerSeq(const UnfilteredEvent &u,
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
            if (isMem)
                b.load(mdAddrOf(ev.appAddr));
            else
                b.load(monTableBase + ev.src1 * 8);
            b.aluDep();
            b.branch();
        }
        if (ev.eventId == evJumpInd) {
            // Alert path: record the exploit attempt.
            b.load(monTableBase);
            b.aluDep().aluDep();
            b.store(monTableBase + 64);
        } else {
            // Propagate: read source taint, combine, write destination.
            b.load(isMem ? mdAddrOf(ev.appAddr)
                         : monTableBase + ev.src1 * 8);
            if (ev.numSrc > 1) {
                b.load(monTableBase + ev.src2 * 8);
                b.aluDep();
            }
            b.aluDep();
            if (ev.eventId == evStore)
                b.store(mdAddrOf(ev.appAddr));
            else
                b.store(monTableBase + ev.dst * 8);
        }
        break;
      }
      case EventKind::TaintSource:
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
TaintCheck::instHandlerClass(const UnfilteredEvent &u,
                             const MonitorContext &ctx) const
{
    (void)ctx;
    if (u.ev.eventId == evJumpInd)
        return HandlerClass::CheckOnly;
    return HandlerClass::Update;
}

} // namespace fade
