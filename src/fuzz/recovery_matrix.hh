/**
 * @file
 * The crash-at-every-cycle-of-recovery matrix.
 *
 * The fuzz campaigns crash *execution* at adversarially mined cycles;
 * this matrix crashes *recovery itself*. Each case crashes a known-good
 * run once, recovers it, measures the recovered run's crash-free length
 * R, and then — for every cycle t in [0, R) at the configured stride —
 * builds a fresh successor from the same victim image, power-fails it at
 * cycle t of its recovery run, recovers *that* crash and runs it out.
 * Every final state must satisfy the structure-semantics oracle (pds and
 * serve cases) or match the golden image (builtin workload case); any
 * DetectedUnrecoverable verdict on these fault-free images, any oracle
 * trip, and any run that hits the cycle cap (a hang) fails the case.
 *
 * Cases cover all five schemes (LightWSP / Capri / PPA / cWSP in
 * Recovery mode, plus the pmtx undo-log baseline, whose rollback
 * preamble gets crashed mid-undo-replay by the small-t points) over the
 * three pds structures and a serve request tape, a multi-threaded
 * builtin workload program under LightWSP, and the hash table on a
 * sharded 16-MC LightWSP machine over the flat and the radix-4 tree
 * fabric — 23 cases. Every case runs from one harness::PreparedRun.
 */

#ifndef LWSP_FUZZ_RECOVERY_MATRIX_HH
#define LWSP_FUZZ_RECOVERY_MATRIX_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "harness/runner.hh"
#include "sim/simulator.hh"

namespace lwsp {
namespace fuzz {

/** One row of the recovery re-entrancy matrix. */
struct MatrixCase
{
    std::string name;    ///< stable row label ("hash/capri", ...)
    /**
     * pds/serve rows: the program source, scheme, Recovery mode and
     * machine shape (the Fig 23 scale-out rows pin a 16-MC machine and,
     * once, the tree fabric), prepared by harness::prepareRun.
     */
    harness::RunSpec spec;
    bool builtin = false;      ///< the builtin workload row (spec unused)
    std::uint64_t wlSeed = 1;  ///< builtin row: workload-program seed
};

struct MatrixOptions
{
    /** Crash-point stride over the recovered run (1 = every cycle). */
    Tick step = 1;
    /** Clock driver for every run (A/B determinism knob). */
    SimEngine engine = SimEngine::Event;
};

struct MatrixCaseResult
{
    bool passed = true;
    std::string failure;       ///< first failure (when !passed)
    std::string name;
    Tick goldenCycles = 0;     ///< crash-free run length
    Tick recoveryCycles = 0;   ///< crash-free *recovered*-run length
    unsigned pointsTried = 0;  ///< recovery-crash cycles exercised
    unsigned runsExecuted = 0;
    unsigned recoveredExact = 0;
    unsigned recoveredDegraded = 0;
};

/** The standard matrix, 23 cases: 3 pds kinds x 5 schemes, serve x 5,
 *  builtin, and hash16 on the flat and the tree4 fabric. */
std::vector<MatrixCase> recoveryMatrixCases();

/** Run one case; opt.step > 1 subsamples the crash points. */
MatrixCaseResult runRecoveryMatrixCase(const MatrixCase &c,
                                       const MatrixOptions &opt = {});

} // namespace fuzz
} // namespace lwsp

#endif // LWSP_FUZZ_RECOVERY_MATRIX_HH
