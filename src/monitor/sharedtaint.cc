#include "monitor/sharedtaint.hh"

#include "monitor/seq.hh"
#include "trace/threads.hh"

namespace fade
{

namespace
{

constexpr Addr pcAccess = handlerCodeBase + 0x6000;

} // namespace

bool
SharedTaint::monitored(const Instruction &inst) const
{
    // Shared-heap accesses, taint sources, and the synchronization
    // pseudo-ops (the flow analysis orders hand-offs along them).
    if (inst.isMemRef())
        return isProcSharedData(inst.memAddr);
    if (inst.cls == InstClass::HighLevel)
        return inst.hlKind == EventKind::TaintSource ||
               inst.hlKind >= EventKind::LockAcquire;
    return false;
}

void
SharedTaint::programFade(EventTable &table, InvRegFile &inv) const
{
    inv.write(0, 0);

    // Pure dispatch with a metadata fetch of the word's taint byte
    // (see RaceCheck::programFade): every shared access is a potential
    // flow endpoint and must reach the software analysis.
    OperandRule loc{true, true, 1, 0x00, 0};

    EventTableEntry ld;
    ld.s1 = loc;
    ld.handlerPc = pcAccess;
    table.program(evLoad, ld);

    EventTableEntry st;
    st.s1 = loc;
    st.handlerPc = pcAccess;
    table.program(evStore, st);
}

void
SharedTaint::handleEvent(const UnfilteredEvent &u, MonitorContext &ctx)
{
    const MonEvent &ev = u.ev;
    switch (ev.kind) {
      case EventKind::Inst:
        if (ev.eventId == evStore) {
            logOp(ev, ThreadOp::Kind::Write);
            ctx.shadow.writeApp(ev.appAddr, 0);
        } else {
            logOp(ev, ThreadOp::Kind::Read);
            if (ctx.shadow.readApp(ev.appAddr) & mdTainted)
                ++taintedReads;
        }
        break;
      case EventKind::TaintSource:
        logOp(ev, ThreadOp::Kind::Taint);
        ctx.shadow.fillApp(ev.appAddr, ev.len ? ev.len : 4, mdTainted);
        break;
      case EventKind::LockAcquire:
        logOp(ev, ThreadOp::Kind::Acquire);
        break;
      case EventKind::LockRelease:
        logOp(ev, ThreadOp::Kind::Release);
        break;
      case EventKind::ThreadCreate:
        logOp(ev, ThreadOp::Kind::Create);
        break;
      case EventKind::ThreadJoin:
        logOp(ev, ThreadOp::Kind::Join);
        break;
      default:
        break;
    }
}

void
SharedTaint::finish()
{
    if (ps_)
        depositNew(analyzeTaintFlows(*ps_));
}

void
SharedTaint::buildHandlerSeq(const UnfilteredEvent &u,
                             const MonitorContext &ctx,
                             std::vector<Instruction> &out) const
{
    (void)ctx;
    const MonEvent &ev = u.ev;
    SeqBuilder b(out, u.handlerPc ? u.handlerPc : pcAccess, 0);
    b.dispatch(ev.seq, 16);

    switch (ev.kind) {
      case EventKind::Inst:
        // Taint-byte check / update of the accessed word.
        b.load(mdAddrOf(ev.appAddr));
        b.aluDep();
        b.branch();
        b.alu(1);
        b.store(mdAddrOf(ev.appAddr));
        break;
      case EventKind::TaintSource: {
        // Bulk taint fill over the published buffer.
        b.alu().aluDep();
        std::uint32_t len = ev.len ? ev.len : 4;
        Addr md = mdAddrOf(ev.appAddr);
        for (std::uint32_t off = 0; off < len; off += 8) {
            b.alu(1);
            b.store(md + off);
        }
        b.branch();
        break;
      }
      default:
        if (ev.isSync()) {
            // Hand-off bookkeeping at synchronization points.
            b.alu().aluDep();
            b.load(mdAddrOf(ev.appAddr));
            b.aluDep();
            b.store(monTableBase + 0x50000 + (ev.appAddr & 0xfff));
            b.branch();
        } else {
            b.alu();
        }
        break;
    }
}

} // namespace fade
