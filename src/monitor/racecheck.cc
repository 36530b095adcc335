#include "monitor/racecheck.hh"

#include "monitor/seq.hh"
#include "trace/threads.hh"

namespace fade
{

namespace
{

constexpr Addr pcAccess = handlerCodeBase + 0x5000;

} // namespace

bool
RaceCheck::monitored(const Instruction &inst) const
{
    // Shared-heap accesses of the process plus every synchronization
    // pseudo-op (the happens-before evidence). Private data cannot
    // race and is left unmonitored.
    if (inst.isMemRef())
        return isProcSharedData(inst.memAddr);
    if (inst.cls == InstClass::HighLevel)
        return inst.hlKind >= EventKind::LockAcquire;
    return false;
}

void
RaceCheck::programFade(EventTable &table, InvRegFile &inv) const
{
    inv.write(0, 0);

    // Pure dispatch: the memory operand rule makes the hardware fetch
    // the word's metadata (last-accessor byte — the cross-shard
    // directory traffic), but with neither CC nor RU the entry never
    // filters: every access is ordering evidence the software analysis
    // must see.
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
RaceCheck::handleEvent(const UnfilteredEvent &u, MonitorContext &ctx)
{
    const MonEvent &ev = u.ev;
    switch (ev.kind) {
      case EventKind::Inst:
        logOp(ev, ev.eventId == evStore ? ThreadOp::Kind::Write
                                        : ThreadOp::Kind::Read);
        ctx.shadow.writeApp(ev.appAddr,
                            std::uint8_t(mdAccessed | ev.tid));
        break;
      case EventKind::LockAcquire:
        logOp(ev, ThreadOp::Kind::Acquire);
        ctx.shadow.writeApp(ev.appAddr, std::uint8_t(0x40 | ev.tid));
        break;
      case EventKind::LockRelease:
        logOp(ev, ThreadOp::Kind::Release);
        ctx.shadow.writeApp(ev.appAddr, 0);
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
RaceCheck::finish()
{
    if (ps_)
        depositNew(analyzeRaces(*ps_));
}

void
RaceCheck::buildHandlerSeq(const UnfilteredEvent &u,
                           const MonitorContext &ctx,
                           std::vector<Instruction> &out) const
{
    (void)ctx;
    const MonEvent &ev = u.ev;
    SeqBuilder b(out, u.handlerPc ? u.handlerPc : pcAccess, 0);
    b.dispatch(ev.seq, 16);

    if (ev.kind == EventKind::Inst) {
        // Epoch check against the word's access history, then the
        // last-accessor update.
        b.load(mdAddrOf(ev.appAddr));
        b.aluDep();
        b.aluDep();
        b.branch();
        b.alu(1);
        b.store(mdAddrOf(ev.appAddr));
    } else if (ev.isSync()) {
        // Vector-clock join/copy against the lock's clock (one word
        // per possible thread) plus the lock metadata update.
        b.alu().aluDep();
        for (unsigned t = 0; t < maxThreads; ++t) {
            b.load(monTableBase + 0x40000 + (ev.appAddr & 0xfff) * 8 +
                   t * 8);
            b.aluDep();
        }
        b.alu(1);
        b.store(mdAddrOf(ev.appAddr));
        b.branch();
    } else {
        b.alu();
    }
}

} // namespace fade
