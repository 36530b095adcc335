#include "system/scheduler.hh"

#include <sched.h>

#include <algorithm>

#include "sim/logging.hh"
#include "trace/tracefile.hh"

namespace fade
{

unsigned
hostCpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return unsigned(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

ShardRunner::ShardRunner(MonitoringSystem &sys, HomeDirectory &dir,
                         unsigned cluster)
    : sys_(sys), port_(dir, cluster)
{
    for (unsigned c = 0; c < dir.numSlices(); ++c)
        views_.push_back(std::make_unique<SliceL2View>(dir.slice(c)));
}

void
ShardRunner::beginRun(std::uint64_t instructions)
{
    target_ = sys_.retired() + instructions;
    ticksUsed_ = 0;
}

void
ShardRunner::runSlice(std::uint64_t maxTicks)
{
    // The engine behind advance() is the shard's own choice (the
    // per-cycle reference loop or the run-grain driver); to either, a
    // slice boundary is just a cycle limit.
    ticksUsed_ += sys_.advance(maxTicks, target_);
}

void
ShardRunner::commitSlice()
{
    for (auto &v : views_)
        v->commit();
    // Trace-capture block boundaries land on slice barriers: this runs
    // on one thread in fixed shard order, so the byte stream of a
    // captured trace is identical for every scheduler policy and
    // worker count.
    sys_.flushCapture();
}

void
ShardRunner::beginEpoch()
{
    for (auto &v : views_)
        v->beginEpoch();
}

void
ShardRunner::attach()
{
    for (unsigned c = 0; c < unsigned(views_.size()); ++c)
        port_.setSlicePort(c, views_[c].get());
    sys_.setL2Port(&port_);
}

void
ShardRunner::detach()
{
    // Keep routing through the directory (home hashing + remote
    // penalty stay in effect for unscheduled work such as drains), but
    // against the real merged slices.
    port_.routeToBase();
    sys_.setL2Port(&port_);
}

ShardScheduler::ShardScheduler(const SchedulerConfig &cfg,
                               std::vector<MonitoringSystem *> shards,
                               HomeDirectory &dir,
                               const std::vector<unsigned> &clusters)
    : cfg_(cfg)
{
    fatal_if(clusters.size() != shards.size(),
             "scheduler needs one home cluster per shard");
    for (std::size_t i = 0; i < shards.size(); ++i)
        runners_.push_back(std::make_unique<ShardRunner>(
            *shards[i], dir, clusters[i]));
}

ShardScheduler::~ShardScheduler()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

unsigned
ShardScheduler::workerCount() const
{
    if (cfg_.policy != SchedulerPolicy::ParallelBatched ||
        runners_.size() < 2)
        return 1;
    // An explicit hostThreads is honored even past the host's CPUs
    // (oversubscription changes wall clock, never results); the
    // default uses one worker per shard up to the CPUs this process
    // may run on.
    unsigned want = cfg_.hostThreads ? cfg_.hostThreads : hostCpuCount();
    return std::max(1u, std::min(want, unsigned(runners_.size())));
}

void
ShardScheduler::startWorkers()
{
    unsigned n = workerCount();
    if (n < 2 || !workers_.empty())
        return;
    workers_.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

void
ShardScheduler::workerLoop(unsigned worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t ticks;
        {
            std::unique_lock<std::mutex> lk(m_);
            workCv_.wait(lk,
                         [&] { return stop_ || epochSeq_ != seen; });
            if (stop_)
                return;
            seen = epochSeq_;
            ticks = epochTicks_;
        }
        // Static striping: worker w owns shards w, w+W, w+2W, ... so a
        // shard is touched by exactly one thread per epoch. (Shard
        // results cannot depend on this assignment; see file header.)
        for (std::size_t i = worker; i < runners_.size();
             i += workers_.size())
            if (!runners_[i]->done())
                runners_[i]->runSlice(ticks);
        {
            std::lock_guard<std::mutex> lk(m_);
            if (--pending_ == 0)
                doneCv_.notify_one();
        }
    }
}

void
ShardScheduler::runEpoch()
{
    if (workers_.empty()) {
        // Lockstep policy (or a parallel pool collapsed to one
        // worker): the same slice protocol, sequential in shard order.
        for (auto &r : runners_)
            if (!r->done())
                r->runSlice(cfg_.sliceTicks);
    } else {
        {
            std::lock_guard<std::mutex> lk(m_);
            epochTicks_ = cfg_.sliceTicks;
            pending_ = unsigned(workers_.size());
            ++epochSeq_;
        }
        workCv_.notify_all();
        std::unique_lock<std::mutex> lk(m_);
        doneCv_.wait(lk, [&] { return pending_ == 0; });
    }

    // Barrier: merge L2 traffic in fixed shard order, then rebase
    // every view on the merged state. Single-threaded by design.
    for (auto &r : runners_)
        r->commitSlice();
    for (auto &r : runners_)
        r->beginEpoch();
}

void
ShardScheduler::beginRun(std::uint64_t instructions, const char *what)
{
    panic_if(running_, "beginRun() while a run is already armed");
    what_ = what;
    cycleLimit_ = sliceCycleLimit(instructions);
    if (cfg_.policy == SchedulerPolicy::ParallelBatched)
        startWorkers();

    for (auto &r : runners_)
        r->beginRun(instructions);
    for (auto &r : runners_)
        r->attach();
    for (auto &r : runners_)
        r->beginEpoch();
    running_ = true;
}

bool
ShardScheduler::stepEpochs(std::uint64_t maxEpochs)
{
    panic_if(!running_, "stepEpochs() without an armed run");
    auto finished = [&] {
        return std::all_of(runners_.begin(), runners_.end(),
                           [](const auto &r) { return r->done(); });
    };

    for (std::uint64_t e = 0; !finished() && e < maxEpochs; ++e) {
        for (auto &r : runners_) {
            if (r->starved())
                throw TraceError(std::string("a replayed stream ran dry "
                                             "before the ") +
                                 what_ + " target");
            panic_if(!r->done() && r->ticksUsed() >= cycleLimit_,
                     "multi-core ", what_, " failed to make progress");
        }
        runEpoch();
    }
    if (!finished())
        return false;

    for (auto &r : runners_)
        r->detach();
    running_ = false;
    return true;
}

} // namespace fade
