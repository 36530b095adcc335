#include "monitor/process.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fade
{

MonitorProcess::MonitorProcess(Monitor &m, MonitorContext &ctx,
                               FadeGroup *fades,
                               BoundedQueue<UnfilteredEvent> *ueq,
                               BoundedQueue<MonEvent> *eq)
    : mon_(m), ctx_(ctx), fades_(fades), ueq_(ueq), eq_(eq)
{
    fatal_if(!!ueq == !!eq,
             "MonitorProcess needs exactly one input queue");
}

bool
MonitorProcess::startNextHandler()
{
    // Empty-input probe first: this is the per-cycle no-work path of an
    // idle monitor thread, and must not construct an event for nothing.
    if (ueq_ ? ueq_->empty() : eq_->empty())
        return false;

    // Fill the pending entry in place, copying the event once out of
    // its queue (popRun(1) is accounted exactly as pop()). An event
    // from the raw queue was never checked by hardware.
    PendingHandler &p = pending_.pushSlot();
    if (ueq_) {
        p.u = ueq_->front();
        ueq_->popRun(1);
    } else {
        p.u = UnfilteredEvent{eq_->front()};
        eq_->popRun(1);
    }

    seq_.clear();
    fetchIdx_ = 0;
    p.cls = mon_.prepareHandler(p.u, ctx_, seq_);
    panic_if(seq_.empty(), "monitor handler sequence must be non-empty");
    p.remaining = seq_.size();
    return true;
}

std::size_t
MonitorProcess::stageRun(std::size_t n)
{
    if (fetchIdx_ == seq_.size() && !startNextHandler())
        return 0;
    return std::min(n, seq_.size() - fetchIdx_);
}

InstSpan
MonitorProcess::fetchSpan(std::size_t max)
{
    std::size_t n = stageRun(max);
    InstSpan s{seq_.data() + fetchIdx_, n};
    fetchIdx_ += n;
    return s;
}

bool
MonitorProcess::commit(const Instruction &inst)
{
    (void)inst;
    panic_if(pending_.empty(), "monitor commit with no pending handler");
    ++stats_.instructions;
    PendingHandler &head = pending_.front();
    ++stats_.instrByClass[static_cast<unsigned>(head.cls)];
    panic_if(head.remaining == 0, "pending handler underflow");
    if (--head.remaining == 0) {
        // Handler complete: apply its functional effects and notify the
        // forwarding filter unit so it can release FSQ entries /
        // unblock (the event's unit tag routes the completion).
        mon_.handleEvent(head.u, ctx_);
        if (fades_)
            fades_->handlerDone(head.u.ev);
        ++stats_.handlers;
        pending_.pop_front();
    }
    return true;
}

bool
MonitorProcess::idle() const
{
    bool inputEmpty = ueq_ ? ueq_->empty() : eq_->empty();
    return pending_.empty() && fetchIdx_ >= seq_.size() && inputEmpty;
}

} // namespace fade
