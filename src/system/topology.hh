/**
 * @file
 * Clustered system topology: the layer between shards and memory.
 *
 * The flat MultiCoreSystem of PRs 1-4 is one cluster: N shards behind
 * one shared L2, one FADE per shard. This header generalizes both axes
 * (docs/TOPOLOGY.md):
 *
 *  - Topology — `clusters x shardsPerCluster` shards, each cluster with
 *    its own shared-L2 slice behind a home-node directory
 *    (mem/directory.hh) that routes by address hash and charges a
 *    remote-cluster penalty.
 *  - FadeGroup — K filter units per shard behind the shard's one event
 *    queue, with deterministic strict round-robin event steering,
 *    group-serialized stack/high-level events, and merged statistics.
 *
 * Both degenerate exactly: `clusters = 1, fadesPerShard = 1` is the
 * flat system bit for bit (tests/test_topology.cc pins this against
 * pre-refactor golden fingerprints).
 */

#ifndef FADE_SYSTEM_TOPOLOGY_HH
#define FADE_SYSTEM_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fade.hh"
#include "sim/queue.hh"

namespace fade
{

/**
 * Shape of a clustered multi-core monitoring system
 * (MultiCoreConfig::topology). The flat defaults reproduce the
 * pre-topology system exactly.
 */
struct Topology
{
    /** Shared-L2 clusters (each with its own LLC slice). */
    unsigned clusters = 1;
    /**
     * Shards per cluster; 0 derives it from MultiCoreConfig::numShards
     * (which must then divide evenly by @ref clusters). When nonzero it
     * is authoritative: the system has clusters * shardsPerCluster
     * shards regardless of numShards.
     */
    unsigned shardsPerCluster = 0;
    /** Filter units per shard (FadeGroup size), 1..maxFadesPerShard. */
    unsigned fadesPerShard = 1;
    /** Extra cycles to reach a remote cluster's L2 slice. */
    unsigned remoteLatency = 40;

    /** Total shards this topology describes given @p numShards from
     *  the config; validates divisibility (fatal on mismatch). */
    unsigned resolveShards(unsigned numShards) const;

    /** Cluster of @p shard under block assignment: shards
     *  [c*spc, (c+1)*spc) form cluster c. */
    unsigned
    clusterOf(unsigned shard, unsigned shardsPerClusterResolved) const
    {
        return shard / shardsPerClusterResolved;
    }
};

/** Hard cap on Topology::fadesPerShard. */
constexpr unsigned maxFadesPerShard = 8;

/**
 * K FADE filter units behind one event queue.
 *
 * With one unit the group is a transparent wrapper: the unit binds
 * directly to the shard's EQ/UEQ and every group call delegates, so the
 * single-FADE system is unchanged bit for bit.
 *
 * With K > 1 units, a steering stage distributes the EQ in strict
 * round-robin order: event i goes to unit i mod K through a small
 * per-unit inlet queue (the unit's private EQ), at most one event per
 * unit per cycle, head-of-line blocking when the destined inlet is
 * full. All units share the shard's unfiltered event queue; units tick
 * in fixed index order, so UEQ arrival order — and with it every
 * simulated statistic — is deterministic.
 *
 * Ordering model: instruction events from different units filter
 * concurrently (relaxed inter-unit order, the throughput point of a
 * multi-unit filter). Stack-update and high-level events serialize at
 * the *group* level: steering holds them at the EQ head until every
 * unit is quiesced (pipelines empty, inlets empty, no outstanding
 * handlers — which implies the shared UEQ is empty), hands the event to
 * the round-robin unit, and steers nothing further until that unit is
 * quiesced again. This generalizes the single-FADE drain protocol
 * (Section 5.2 of the paper) and keeps allocation, stack-frame, and
 * taint-source metadata updates globally ordered against all filtering;
 * see docs/TOPOLOGY.md for the full argument.
 */
class FadeGroup
{
  public:
    /**
     * @param units    filter units (1..maxFadesPerShard)
     * @param p        per-unit configuration
     * @param ctx      canonical metadata state shared with the monitor
     * @param l2       next memory level behind each unit's MD cache
     * @param shardId  home shard stamped into / checked on events
     */
    FadeGroup(unsigned units, const FadeParams &p, MonitorContext &ctx,
              Cache *l2, std::uint8_t shardId);

    /** Attach the shard's event queue and unfiltered event queue. */
    void bind(BoundedQueue<MonEvent> *eq,
              BoundedQueue<UnfilteredEvent> *ueq);

    unsigned size() const { return unsigned(units_.size()); }
    Fade &unit(unsigned i) { return *units_.at(i); }
    const Fade &unit(unsigned i) const { return *units_.at(i); }

    /** Advance one cycle: steer (K > 1), then tick units in order. */
    void tick(Cycle now);

    /** Software completed the handler of @p ev: route the completion
     *  to the unit that forwarded it (ev.unit, stamped by steering). */
    void
    handlerDone(const MonEvent &ev)
    {
        units_[ev.unit]->handlerDone(ev.seq);
    }

    /** Outcome of one eager-steered event (run-grain engine). */
    struct RunGrainSteered
    {
        RunGrainEventOutcome outcome;
        /** Unit the rotation chose (timing model: per-unit pipes). */
        unsigned unit = 0;
    };

    /**
     * Run-grain engine: steer @p ev with the identical strict rotation
     * steer() applies — same unit choice, same unit stamp, same
     * steered/serialized accounting — and process it to completion in
     * that unit (Fade::processEventRunGrain). The group is quiescent
     * between calls by the driver's eager-serialized discipline, so
     * the per-cycle serializer gates (allQuiesced, inlet capacity) are
     * satisfied trivially and the rotation order is preserved exactly.
     */
    RunGrainSteered processEventRunGrain(MonEvent ev);

    /** Every unit quiesced and every inlet drained (the shard's EQ is
     *  the caller's to check). */
    bool quiesced() const;

    /** Counters merged over all units. */
    FadeStats stats() const;

    void resetStats();
    void finalizeBursts();

    /** Retarget every unit's MD cache at @p port (L2 path swap). */
    void setNext(MemPort *port);

    /** Events steered to unit @p i. Group accounting for K > 1 only:
     *  a single-unit group consumes the shard EQ directly, so no
     *  steering happens and this stays 0. */
    std::uint64_t steeredTo(unsigned i) const { return steered_.at(i); }
    /** Serializing (stack/high-level) events steered so far. */
    std::uint64_t serialized() const { return serialized_; }

  private:
    bool allQuiesced() const;
    void steer();

    std::vector<std::unique_ptr<Fade>> units_;
    /** Per-unit inlet queues (K > 1 only; unit i's private EQ). */
    std::vector<std::unique_ptr<BoundedQueue<MonEvent>>> inlets_;
    BoundedQueue<MonEvent> *eq_ = nullptr;
    BoundedQueue<UnfilteredEvent> *ueq_ = nullptr;

    /** Next unit in the strict rotation. */
    unsigned rr_ = 0;
    /** Unit holding the in-flight serialized event, or -1. Cleared
     *  lazily by steer() once the unit is quiesced again. */
    int serialUnit_ = -1;

    std::vector<std::uint64_t> steered_;
    std::uint64_t serialized_ = 0;
};

} // namespace fade

#endif // FADE_SYSTEM_TOPOLOGY_HH
