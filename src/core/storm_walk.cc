#include "core/storm_walk.hh"

namespace lwsp {
namespace core {

StormWalk
recoverThroughStorm(const System &crashed, const SystemConfig &rcfg,
                    const compiler::CompiledProgram &prog,
                    unsigned threads, const std::vector<Addr> &lock_addrs,
                    const fault::FailureSchedule &sched, std::size_t pos,
                    const StormHooks &hooks)
{
    StormWalk w;
    auto recoverFrom = [&](const System &from) {
        RecoveryResult r = System::recoverChecked(
            rcfg, prog, threads, from.pmImage(), lock_addrs,
            &from.crashReport());
        switch (r.outcome) {
          case RecoveryOutcome::Recovered: ++w.recoveredExact; break;
          case RecoveryOutcome::RecoveredDegraded:
            ++w.recoveredDegraded;
            break;
          case RecoveryOutcome::DetectedUnrecoverable:
            ++w.detectedUnrecoverable;
            break;
        }
        return r;
    };

    // Loop-head invariant: *cur is a crashed machine whose PM image is
    // the one to recover from, and every event before pos has fired.
    const System *cur = &crashed;
    while (true) {
        RecoveryResult rec = recoverFrom(*cur);
        // Power died during the recovery preamble: PM is untouched, so
        // the retry re-validates the very same image.
        unsigned reentries = 0;
        while (pos < sched.size() &&
               sched.events[pos].phase == fault::FailurePhase::Recovery) {
            ++pos;
            ++reentries;
            RecoveryResult retry = recoverFrom(*cur);
            if (retry.outcome != rec.outcome) {
                w.error = std::string("recovery re-entry changed "
                                      "verdict: ") +
                          recoveryOutcomeName(rec.outcome) + " -> " +
                          recoveryOutcomeName(retry.outcome);
                return w;
            }
            rec = std::move(retry);
        }
        w.failures = 1 + static_cast<unsigned>(pos);
        w.outcome = rec.outcome;
        w.detail = rec.detail;
        if (hooks.onBoot)
            hooks.onBoot(*cur, rec, reentries);
        if (rec.outcome == RecoveryOutcome::DetectedUnrecoverable) {
            w.sys.reset();
            return w;
        }

        // All uses of *cur are done: the move below may destroy the
        // machine it points into.
        cur = nullptr;
        w.sys = std::move(rec.sys);
        w.sys->setRecoveryLineage(rec.outcome, w.failures);
        bool exec = pos < sched.size();
        if (exec) {
            Tick gap = sched.events[pos++].at;
            w.result = w.sys->runWithFailureStorm(gap, sched.takeDrains(pos));
        } else {
            w.result = w.sys->run();
        }
        w.segmentCycles.push_back(w.result.cycles);
        if (hooks.afterSegment) {
            w.error = hooks.afterSegment(*w.sys, w.result);
            if (!w.error.empty())
                return w;
        }
        // Finished (or stuck) before the failure landed: the event and
        // the schedule's tail never fired.
        if (!exec || w.result.completed || !w.sys->crashed())
            return w;
        cur = w.sys.get();
    }
}

} // namespace core
} // namespace lwsp
