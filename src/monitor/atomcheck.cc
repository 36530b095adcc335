#include "monitor/atomcheck.hh"

#include "isa/layout.hh"
#include "monitor/seq.hh"

namespace fade
{

namespace
{

constexpr Addr pcShortLoad = handlerCodeBase + 0x4000;
constexpr Addr pcLongLoad = handlerCodeBase + 0x4100;
constexpr Addr pcShortStore = handlerCodeBase + 0x4200;
constexpr Addr pcLongStore = handlerCodeBase + 0x4300;

enum ChainSlot : unsigned
{
    chLoadAlt = firstChainEntry,  ///< holds the long-load handler PC
    chStoreAlt,                   ///< holds the long-store handler PC
};

} // namespace

bool
AtomCheck::unserializable(std::uint8_t p, std::uint8_t r, std::uint8_t c)
{
    return (p == accRead && r == accWrite && c == accRead) ||
           (p == accWrite && r == accWrite && c == accRead) ||
           (p == accWrite && r == accRead && c == accWrite) ||
           (p == accRead && r == accWrite && c == accWrite);
}

bool
AtomCheck::monitored(const Instruction &inst) const
{
    // Shared-memory accesses only; the stack is thread-private.
    if (inst.isMemRef())
        return !isStackAddr(inst.memAddr);
    if (inst.isStackUpdate())
        return true;
    return false;
}

void
AtomCheck::programFade(EventTable &table, InvRegFile &inv) const
{
    // INV[0] holds accessed|current-thread; rewritten on each context
    // switch by onThreadSwitch().
    inv.write(0, mdAccessed | 0);
    inv.write(callInvReg, 0); // call: clear per-frame access tracking
    inv.write(retInvReg, 0);  // return: likewise

    // Loads and stores: partial filtering. The check compares the
    // location's full metadata byte (accessed | last tid) against the
    // current thread's INV value. The destination rule names the memory
    // operand for the Non-Blocking update but is masked out of the
    // clean check (mask 0).
    OperandRule locCheck{true, true, 1, 0xff, 0};
    OperandRule locDest{true, true, 1, 0x00, 0};

    EventTableEntry ld;
    ld.s1 = locCheck;
    ld.d = locDest;
    ld.cc = true;
    ld.partial = true;
    ld.nextEntry = chLoadAlt;
    ld.handlerPc = pcShortLoad;
    ld.nb.action = NbAction::SetConst;
    ld.nb.invId = 0;
    table.program(evLoad, ld);

    EventTableEntry ldAlt;
    ldAlt.handlerPc = pcLongLoad;
    table.program(chLoadAlt, ldAlt);

    EventTableEntry st;
    st.s1 = locCheck;
    st.d = locDest;
    st.cc = true;
    st.partial = true;
    st.nextEntry = chStoreAlt;
    st.handlerPc = pcShortStore;
    st.nb.action = NbAction::SetConst;
    st.nb.invId = 0;
    table.program(evStore, st);

    EventTableEntry stAlt;
    stAlt.handlerPc = pcLongStore;
    table.program(chStoreAlt, stAlt);
}

void
AtomCheck::onThreadSwitch(ThreadId tid, InvRegFile *inv)
{
    if (inv)
        inv->write(0, std::uint8_t(mdAccessed | (tid & mdTidMask)));
}

void
AtomCheck::handleEvent(const UnfilteredEvent &u, MonitorContext &ctx)
{
    const MonEvent &ev = u.ev;
    switch (ev.kind) {
      case EventKind::Inst: {
        Addr w = ev.appAddr / wordSize;
        std::uint8_t md = ctx.shadow.readApp(ev.appAddr);
        std::uint8_t type =
            ev.eventId == evStore ? accWrite : accRead;
        LocState &loc = locs_[w];

        if (!(md & mdAccessed))
            ++firstAccesses;
        else if (ThreadId(md & mdTidMask) == ev.tid)
            ++sameThreadAccesses;
        else
            ++remoteAccesses;

        if (md & mdAccessed) {
            ThreadId prevTid = ThreadId(md & mdTidMask);
            if (prevTid != ev.tid) {
                std::uint8_t p = loc.lastType[ev.tid];
                std::uint8_t r = loc.lastType[prevTid];
                if (p != accNone && r != accNone &&
                    unserializable(p, r, type)) {
                    report("atomicity-violation", ev,
                           "unserializable access interleaving");
                }
            }
        }
        loc.lastType[ev.tid] = type;
        ctx.shadow.writeApp(ev.appAddr,
                            std::uint8_t(mdAccessed |
                                         (ev.tid & mdTidMask)));
        break;
      }
      case EventKind::StackCall:
      case EventKind::StackReturn: {
        ctx.shadow.fillApp(ev.appAddr, ev.len, 0);
        for (Addr a = ev.appAddr; a < ev.appAddr + ev.len; a += wordSize)
            locs_.erase(a / wordSize);
        break;
      }
      default:
        break;
    }
}

void
AtomCheck::buildHandlerSeq(const UnfilteredEvent &u,
                           const MonitorContext &ctx,
                           std::vector<Instruction> &out) const
{
    const MonEvent &ev = u.ev;
    SeqBuilder b(out, u.handlerPc ? u.handlerPc : pcShortLoad, 0);
    b.dispatch(ev.seq, 16);

    switch (ev.kind) {
      case EventKind::Inst: {
        bool shortPath;
        if (u.hwChecked) {
            shortPath = u.checkPassed;
        } else {
            // Software check path: load metadata, extract and compare
            // the thread bits, spill/restore around the analysis call,
            // and branch to the short or long path. Unaccelerated
            // AtomCheck events are costly (Section 7.2: numerous
            // monitoring actions per event).
            b.load(mdAddrOf(ev.appAddr));
            b.aluDep();
            b.aluDep();
            b.branch();
            for (int k = 0; k < 3; ++k) {
                b.alu(1);
                b.store(monTableBase + 0x30000 + k * 8);
            }
            b.load(monTableBase + 0x20000 + (ev.appAddr & 0xfff));
            b.aluDep();
            b.load(monTableBase + 0x20008 + (ev.appAddr & 0xfff));
            b.aluDep();
            b.aluDep();
            b.branch();
            b.alu().aluDep().branch();
            for (int k = 0; k < 3; ++k)
                b.load(monTableBase + 0x30000 + k * 8);
            b.aluDep();
            std::uint8_t md = ctx.shadow.readApp(ev.appAddr);
            shortPath = (md & mdAccessed) &&
                        ThreadId(md & mdTidMask) == ev.tid;
        }
        Addr typeTable = monTableBase + 0x20000 +
                         (ev.appAddr & 0xfff) * maxThreads;
        if (shortPath) {
            // Same thread: update the last-access type and metadata.
            b.alu(1);
            b.store(typeTable + ev.tid);
            b.alu(1);
            b.store(mdAddrOf(ev.appAddr));
        } else {
            // Interleaving analysis: gather the per-thread access
            // types, evaluate the serializability invariants, then
            // update metadata and the report buffer if needed.
            b.load(mdAddrOf(ev.appAddr));
            b.aluDep();
            b.load(typeTable + ev.tid);
            b.loadDep(typeTable);
            b.aluDep();
            b.aluDep();
            b.branch();
            b.alu();
            b.aluDep();
            b.branch();
            b.alu(1);
            b.store(typeTable + ev.tid);
            b.alu(1);
            b.store(mdAddrOf(ev.appAddr));
            b.alu();
        }
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

HandlerClass
AtomCheck::instHandlerClass(const UnfilteredEvent &u,
                            const MonitorContext &ctx) const
{
    if (u.hwChecked)
        return u.checkPassed ? HandlerClass::Update
                             : HandlerClass::CheckOnly;
    std::uint8_t md = ctx.shadow.readApp(u.ev.appAddr);
    bool same = (md & mdAccessed) &&
                ThreadId(md & mdTidMask) == u.ev.tid;
    return same ? HandlerClass::Update : HandlerClass::CheckOnly;
}

} // namespace fade
