#include "system/topology.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fade
{

namespace
{

/** Inlet depth per unit: a staging pair, enough to overlap steering
 *  with the unit's ETR pop without buffering whole bursts ahead of the
 *  rotation (which would blur the strict round-robin order the model
 *  promises). */
constexpr std::size_t inletCapacity = 2;

} // namespace

FadeGroup::FadeGroup(unsigned units, const FadeParams &p,
                     MonitorContext &ctx, Cache *l2,
                     std::uint8_t shardId)
{
    fatal_if(units == 0 || units > maxFadesPerShard,
             "FadeGroup: unit count must be in [1, ", maxFadesPerShard,
             "]");
    for (unsigned u = 0; u < units; ++u) {
        units_.push_back(std::make_unique<Fade>(p, ctx, l2));
        units_.back()->setShard(shardId);
    }
    steered_.assign(units, 0);
}

void
FadeGroup::bind(BoundedQueue<MonEvent> *eq,
                BoundedQueue<UnfilteredEvent> *ueq)
{
    eq_ = eq;
    ueq_ = ueq;
    if (units_.size() == 1) {
        // Transparent single-unit wiring: the unit consumes the
        // shard's EQ directly, exactly like the pre-topology system.
        units_[0]->bind(eq, ueq);
        return;
    }
    for (auto &u : units_) {
        inlets_.push_back(
            std::make_unique<BoundedQueue<MonEvent>>(inletCapacity));
        u->bind(inlets_.back().get(), ueq);
    }
}

bool
FadeGroup::allQuiesced() const
{
    for (const auto &u : units_)
        if (!u->quiesced())
            return false;
    return true;
}

void
FadeGroup::steer()
{
    // Strict rotation: event i of the shard's stream goes to unit
    // i mod K, at most one event per unit per cycle, head-of-line
    // blocking on a full inlet. Stack-update and high-level events
    // serialize the whole group (class comment / docs/TOPOLOGY.md).
    for (unsigned moved = 0; moved < units_.size(); ++moved) {
        if (serialUnit_ >= 0) {
            if (!units_[unsigned(serialUnit_)]->quiesced())
                return;
            serialUnit_ = -1;
        }
        if (eq_->empty())
            return;
        const MonEvent &head = eq_->front();
        bool serial = !head.isInst();
        if (serial && !allQuiesced())
            return;
        BoundedQueue<MonEvent> &inlet = *inlets_[rr_];
        if (inlet.full())
            return;
        MonEvent *slot = inlet.pushSlot();
        *slot = head;
        slot->unit = std::uint8_t(rr_);
        eq_->popRun(1);
        ++steered_[rr_];
        if (serial) {
            serialUnit_ = int(rr_);
            ++serialized_;
        }
        rr_ = rr_ + 1 == units_.size() ? 0 : rr_ + 1;
    }
}

void
FadeGroup::tick(Cycle now)
{
    if (units_.size() == 1) {
        units_[0]->tick(now);
        return;
    }
    // Steer first so an event can traverse EQ -> inlet -> ETR in the
    // same cycle it would have traversed EQ -> ETR with one unit.
    steer();
    for (auto &u : units_)
        u->tick(now);
}

FadeGroup::RunGrainSteered
FadeGroup::processEventRunGrain(MonEvent ev)
{
    RunGrainSteered s;
    if (units_.size() == 1) {
        // Transparent wrapper: no steering, no steered_ accounting
        // (matches the per-cycle single-unit group exactly).
        s.unit = 0;
        s.outcome = units_[0]->processEventRunGrain(ev);
        return s;
    }
    // Strict rotation, serial events included: with the group quiescent
    // between calls, steer() would pass its serializer/allQuiesced/
    // inlet gates immediately and pick rr_ for every event class.
    s.unit = rr_;
    ev.unit = std::uint8_t(rr_);
    ++steered_[rr_];
    if (!ev.isInst())
        ++serialized_;
    rr_ = rr_ + 1 == units_.size() ? 0 : rr_ + 1;
    s.outcome = units_[s.unit]->processEventRunGrain(ev);
    return s;
}

bool
FadeGroup::quiesced() const
{
    // A unit's quiesced() covers its own input queue, which for K > 1
    // is its inlet — so allQuiesced() covers the inlets too.
    return allQuiesced();
}

FadeStats
FadeGroup::stats() const
{
    FadeStats s = units_[0]->stats();
    for (unsigned i = 1; i < units_.size(); ++i)
        s.merge(units_[i]->stats());
    return s;
}

void
FadeGroup::resetStats()
{
    for (auto &u : units_)
        u->resetStats();
    std::fill(steered_.begin(), steered_.end(), 0);
    serialized_ = 0;
}

void
FadeGroup::finalizeBursts()
{
    for (auto &u : units_)
        u->finalizeBursts();
}

void
FadeGroup::setNext(MemPort *port)
{
    for (auto &u : units_)
        u->mdCache().setNext(port);
}

} // namespace fade
