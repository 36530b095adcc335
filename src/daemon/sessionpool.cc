#include "daemon/sessionpool.hh"

#include <algorithm>

namespace fade::daemon
{

SessionPool::SessionPool(const PoolConfig &cfg) : cfg_(cfg)
{
    cfg_.workers = std::max(1u, cfg_.workers);
    workers_.reserve(cfg_.workers);
    for (unsigned w = 0; w < cfg_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

SessionPool::~SessionPool()
{
    shutdown(false);
}

Reason
SessionPool::submit(std::shared_ptr<Session> s)
{
    std::lock_guard<std::mutex> lk(m_);
    if (draining_ || stop_)
        return Reason::Shutdown;
    if (active_ >= cfg_.maxActive)
        return Reason::AdmissionFull;
    ++active_;
    s->setCompletionCounter(&seq_);
    ready_.push_back(std::move(s));
    cv_.notify_one();
    return Reason::None;
}

void
SessionPool::unpark(Session *s)
{
    std::lock_guard<std::mutex> lk(m_);
    auto it = std::find_if(parked_.begin(), parked_.end(),
                           [&](const std::shared_ptr<Session> &p) {
                               return p.get() == s;
                           });
    if (it == parked_.end())
        return;
    (*it)->parked_ = false;
    ready_.push_back(std::move(*it));
    parked_.erase(it);
    cv_.notify_one();
}

void
SessionPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Session> s;
        {
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] { return stop_ || !ready_.empty(); });
            if (stop_ && ready_.empty())
                return;
            s = std::move(ready_.front());
            ready_.pop_front();
        }

        // Backpressure gate: never step a session whose client has no
        // room for another frame. Park it; the connection's writer
        // unparks on drain (and an abort unparks too, so a vanished
        // client cannot strand it). The recheck under the pool mutex
        // closes the race with a concurrent drain: an unpark can only
        // run after we either parked the session or requeued it.
        if (s->out().full()) {
            std::lock_guard<std::mutex> lk(m_);
            if (s->out().full()) {
                s->parked_ = true;
                s->parks_.fetch_add(1);
                parked_.push_back(std::move(s));
                continue;
            }
            ready_.push_back(std::move(s));
            cv_.notify_one();
            continue;
        }

        bool done = s->step(cfg_.quantumEpochs);
        std::lock_guard<std::mutex> lk(m_);
        if (done) {
            --active_;
            idleCv_.notify_all();
        } else {
            ready_.push_back(std::move(s));
            cv_.notify_one();
        }
    }
}

void
SessionPool::shutdown(bool drain)
{
    {
        std::unique_lock<std::mutex> lk(m_);
        draining_ = true;
        if (!drain) {
            // Abort everything still in flight; parked sessions must
            // come back to the ready queue to run their teardown step.
            for (auto &s : ready_)
                s->abort();
            for (auto &s : parked_) {
                s->abort();
                s->parked_ = false;
                ready_.push_back(std::move(s));
            }
            parked_.clear();
            cv_.notify_all();
        }
        idleCv_.wait(lk, [&] { return active_ == 0; });
        stop_ = true;
        cv_.notify_all();
    }
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
}

unsigned
SessionPool::active() const
{
    std::lock_guard<std::mutex> lk(m_);
    return active_;
}

} // namespace fade::daemon
