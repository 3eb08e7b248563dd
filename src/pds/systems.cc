/**
 * @file
 * Scheme/configuration plumbing for running pds programs: which binary
 * each scheme executes, on what machine, in perf vs recovery mode.
 */

#include "pds/pds.hh"

#include "common/logging.hh"

namespace lwsp {
namespace pds {

const char *
pdsSchemeName(PdsScheme s)
{
    switch (s) {
      case PdsScheme::LightWsp: return "lightwsp";
      case PdsScheme::Capri:    return "capri";
      case PdsScheme::Ppa:      return "ppa";
      case PdsScheme::Cwsp:     return "cwsp";
      case PdsScheme::Pmtx:     return "pmtx";
    }
    return "?";
}

namespace {

core::Scheme
machineScheme(PdsScheme s)
{
    switch (s) {
      case PdsScheme::LightWsp: return core::Scheme::LightWsp;
      case PdsScheme::Capri:    return core::Scheme::Capri;
      case PdsScheme::Ppa:      return core::Scheme::Ppa;
      case PdsScheme::Cwsp:     return core::Scheme::Cwsp;
      // pmtx persists through its own fences; the machine that honours
      // them as durability points is the stall-at-barrier config.
      case PdsScheme::Pmtx:     return core::Scheme::NaiveSfence;
    }
    return core::Scheme::LightWsp;
}

} // namespace

core::SystemConfig
makePdsConfig(PdsScheme s, PdsRunMode mode)
{
    core::SystemConfig cfg;
    cfg.scheme = machineScheme(s);
    cfg.numCores = 1;
    cfg.maxCycles = 400'000'000;
    cfg.applySchemeDefaults();
    if (mode == PdsRunMode::Recovery &&
        (s == PdsScheme::Capri || s == PdsScheme::Ppa ||
         s == PdsScheme::Cwsp)) {
        // Recovery mode substitutes the gated WPQ + compiled boundaries
        // for the schemes' (unmodelled) hardware checkpoint readers so
        // the recovered image is exact, while keeping each scheme's
        // timing knobs (drain derating, traffic amplification). The
        // boundary policy must move off HwImplicit with it: an implicit
        // region end waits for a full WPQ drain, which a gate held by
        // the current compiled region's open boundary can never grant.
        cfg.mc.gatingEnabled = true;
        cfg.core.boundaryPolicy = cpu::CoreConfig::BoundaryPolicy::Lazy;
    }
    return cfg;
}

core::SystemConfig
makePdsBaselineConfig()
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::Baseline;
    cfg.numCores = 1;
    cfg.maxCycles = 400'000'000;
    cfg.applySchemeDefaults();
    return cfg;
}

bool
pdsUsesCompiledBinary(PdsScheme s, PdsRunMode mode)
{
    // pmtx runs its undo-log build uncompiled (its fences are the
    // persistence points); Perf-mode PPA/Capri run the original binary,
    // with regions implicit in hardware.
    if (s == PdsScheme::Pmtx)
        return false;
    return mode == PdsRunMode::Recovery || s == PdsScheme::LightWsp ||
           s == PdsScheme::Cwsp;
}

namespace {

compiler::CompiledProgram
prepareBuilt(PdsProgram prog, PdsScheme s, PdsRunMode mode,
             unsigned storeThreshold)
{
    if (!pdsUsesCompiledBinary(s, mode))
        return compiler::makeUncompiled(std::move(prog.module));

    compiler::CompilerConfig ccfg;
    if (storeThreshold != 0)
        ccfg.storeThreshold = storeThreshold;
    if (mode == PdsRunMode::Perf && s == PdsScheme::Cwsp)
        ccfg.insertCheckpointStores = false;  // recovers by re-execution
    compiler::LightWspCompiler comp(ccfg);
    return comp.compile(std::move(prog.module));
}

} // namespace

compiler::CompiledProgram
preparePdsProgram(const PdsSpec &spec, PdsScheme s, PdsRunMode mode,
                  unsigned storeThreshold)
{
    return prepareBuilt(buildPdsProgram(spec, s == PdsScheme::Pmtx), s,
                        mode, storeThreshold);
}

compiler::CompiledProgram
preparePdsProgram(const PdsSpec &spec, const std::vector<PdsOp> &ops,
                  PdsScheme s, PdsRunMode mode, unsigned storeThreshold)
{
    return prepareBuilt(buildPdsProgram(spec, s == PdsScheme::Pmtx, ops),
                        s, mode, storeThreshold);
}

} // namespace pds
} // namespace lwsp
