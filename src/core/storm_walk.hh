/**
 * @file
 * The failure-storm walker: the one interpreter of fault::FailureSchedule
 * events after the first power failure (DESIGN.md §15).
 *
 * The caller runs its victim into the first failure itself, with
 * `victim.runWithFailureStorm(at, sched.takeDrains(pos))`, so leading
 * Drain events interrupt the victim's drain. recoverThroughStorm() then
 * plays out the rest of the lifetime from that crashed machine:
 *
 *  - each boot recovers the crashed image with System::recoverChecked;
 *    every following `r` re-enters it on the same image and must reach
 *    the same verdict. A DetectedUnrecoverable verdict ends the walk;
 *  - the next event runs the recovered machine `at` cycles into another
 *    failure, whose drain the Drain events after it interrupt. (That
 *    event is normally an `x`; a `d` right after a boot has no drain to
 *    interrupt and is run the same way.) A machine that finishes first
 *    ends the walk, and that event and the rest never fire;
 *  - once the schedule is exhausted the last machine runs to completion.
 */

#ifndef LWSP_CORE_STORM_WALK_HH
#define LWSP_CORE_STORM_WALK_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "fault/storm.hh"

namespace lwsp {
namespace core {

/** Optional observers of a storm walk. */
struct StormHooks
{
    /**
     * After each recovered machine's run segment (an exec gap or the
     * final run-out), with that segment's result. A nonempty return
     * aborts the walk with it as the error.
     */
    std::function<std::string(System &sys, const RunResult &segment)>
        afterSegment;
    /**
     * Once per boot, after its recovery re-entries agreed: the crashed
     * machine it recovered from, the verdict, and how many times the
     * recovery preamble was re-entered. Runs before the walk stops on a
     * DetectedUnrecoverable verdict.
     */
    std::function<void(const System &crashed, const RecoveryResult &verdict,
                       unsigned reentries)>
        onBoot;
};

/** How a storm lifetime ended. */
struct StormWalk
{
    /** The last booted machine; null after DetectedUnrecoverable. */
    std::unique_ptr<System> sys;
    /** Its last run segment (default when no segment ran). */
    RunResult result;
    /** Cycles of every recovered run segment, in order. */
    std::vector<Tick> segmentCycles;
    /** Power failures survived: 1 + schedule events that fired. */
    unsigned failures = 1;
    /** Verdict of the last boot, and its classification reason. */
    RecoveryOutcome outcome = RecoveryOutcome::Recovered;
    std::string detail;
    /** recoverChecked verdicts over all boots and re-entries. */
    unsigned recoveredExact = 0;
    unsigned recoveredDegraded = 0;
    unsigned detectedUnrecoverable = 0;
    /** A re-entry changed the verdict, or a hook aborted the walk. */
    std::string error;

    unsigned boots() const
    {
        return recoveredExact + recoveredDegraded + detectedUnrecoverable;
    }
};

/**
 * Play out @p sched from cursor @p pos on the machine @p crashed, which
 * has just lost power (see the file comment); @p crashed is only read,
 * so one victim can seed many walks. Every boot is recovered under
 * @p rcfg and stamped with setRecoveryLineage(verdict, failures so far).
 */
StormWalk recoverThroughStorm(const System &crashed,
                              const SystemConfig &rcfg,
                              const compiler::CompiledProgram &prog,
                              unsigned threads,
                              const std::vector<Addr> &lock_addrs,
                              const fault::FailureSchedule &sched,
                              std::size_t pos,
                              const StormHooks &hooks = {});

} // namespace core
} // namespace lwsp

#endif // LWSP_CORE_STORM_WALK_HH
