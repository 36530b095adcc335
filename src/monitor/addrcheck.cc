#include "monitor/addrcheck.hh"

#include "isa/layout.hh"
#include "monitor/seq.hh"

namespace fade
{

namespace
{

constexpr Addr pcLoad = handlerCodeBase + 0x000;
constexpr Addr pcStore = handlerCodeBase + 0x100;

} // namespace

bool
AddrCheck::monitored(const Instruction &inst) const
{
    // AddrCheck processes only non-stack memory instructions
    // (Section 7.2), plus allocation events and stack updates.
    if (inst.isMemRef())
        return !isStackAddr(inst.memAddr);
    if (inst.isStackUpdate())
        return true;
    if (inst.cls == InstClass::HighLevel)
        return inst.hlKind == EventKind::Malloc ||
               inst.hlKind == EventKind::Free;
    return false;
}

void
AddrCheck::programFade(EventTable &table, InvRegFile &inv) const
{
    inv.write(0, mdAllocated);
    inv.write(callInvReg, mdAllocated);  // call: new frame is allocated
    inv.write(retInvReg, mdUnallocated); // return: frame is deallocated

    // Load: clean check on the memory operand's allocated bit.
    EventTableEntry ld;
    ld.s1 = OperandRule{true, true, 1, 0x01, 0};
    ld.cc = true;
    ld.handlerPc = pcLoad;
    table.program(evLoad, ld);

    // Store: destination is the memory operand.
    EventTableEntry st;
    st.d = OperandRule{true, true, 1, 0x01, 0};
    st.cc = true;
    st.handlerPc = pcStore;
    table.program(evStore, st);
}

void
AddrCheck::initShadow(MonitorContext &ctx, const WorkloadLayout &l) const
{
    ctx.shadow.fillApp(l.globalBase, l.globalLen, mdAllocated);
    ctx.shadow.fillApp(l.stackBase, l.stackLen, mdAllocated);
}

void
AddrCheck::handleEvent(const UnfilteredEvent &u, MonitorContext &ctx)
{
    const MonEvent &ev = u.ev;
    switch (ev.kind) {
      case EventKind::Inst: {
        std::uint8_t md = ctx.shadow.readApp(ev.appAddr);
        if (!(md & mdAllocated)) {
            report("unallocated-access", ev);
            // Mark allocated to suppress repeated reports for the same
            // word (Valgrind-style once-per-origin reporting).
            ctx.shadow.writeApp(ev.appAddr, mdAllocated);
        }
        break;
      }
      case EventKind::Malloc:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdAllocated);
        break;
      case EventKind::Free:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUnallocated);
        break;
      case EventKind::StackCall:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdAllocated);
        break;
      case EventKind::StackReturn:
        ctx.shadow.fillApp(ev.appAddr, ev.len, mdUnallocated);
        break;
      default:
        break;
    }
}

void
AddrCheck::buildHandlerSeq(const UnfilteredEvent &u,
                           const MonitorContext &ctx,
                           std::vector<Instruction> &out) const
{
    const MonEvent &ev = u.ev;
    SeqBuilder b(out, u.handlerPc ? u.handlerPc : pcLoad, 0);
    b.dispatch(ev.seq, 16);

    switch (ev.kind) {
      case EventKind::Inst: {
        if (!u.hwChecked) {
            // Software check path: load metadata, mask, branch.
            b.load(mdAddrOf(ev.appAddr));
            b.aluDep();
            b.branch();
        }
        bool bad = !(ctx.shadow.readApp(ev.appAddr) & mdAllocated);
        if (bad) {
            // Report path: format and record the error.
            b.load(monTableBase);
            b.aluDep().aluDep();
            b.store(monTableBase + 64);
            b.load(mdAddrOf(ev.appAddr));
            b.aluDep();
            b.store(mdAddrOf(ev.appAddr));
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
AddrCheck::instHandlerClass(const UnfilteredEvent &u,
                            const MonitorContext &ctx) const
{
    (void)u;
    (void)ctx;
    // AddrCheck instruction handlers only check; they update nothing.
    return HandlerClass::CheckOnly;
}

} // namespace fade
