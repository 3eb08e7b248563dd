/**
 * @file
 * lwsp_verify — run the static WSP-invariant checker over compiled
 * programs without simulating them.
 *
 *   lwsp_verify <app|file.lir> [--threshold N] [--no-prune] [--no-unroll]
 *   lwsp_verify --all [--fuzz N] [--base-seed S]
 *
 * The first form compiles one built-in workload (by profile name) or a
 * LightIR text file and checks the result. The second sweeps every
 * built-in workload under three compiler configurations (default,
 * pruning disabled, unrolling disabled) and optionally a batch of N
 * seeded fuzz programs drawn exactly like the crash fuzzer draws them
 * (alternating IR/workload generators, thresholds from {4,8,16,32}).
 *
 * Exit codes: 0 all checks passed, 1 violations found, 2 usage or
 * input error.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/wsp_checker.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "compiler/compiler.hh"
#include "fuzz/random_program.hh"
#include "fuzz/random_workload.hh"
#include "ir/text_io.hh"
#include "workloads/generator.hh"

namespace {

using namespace lwsp;

void
usage()
{
    std::cerr <<
        "usage: lwsp_verify <app|file.lir> [--threshold N] [--no-prune]\n"
        "                   [--no-unroll]\n"
        "       lwsp_verify --all [--fuzz N] [--base-seed S]\n"
        "\n"
        "Statically verifies the WSP region invariants (store bound,\n"
        "checkpoint coverage, recipe soundness, site-table integrity,\n"
        "recoverability) on the compiled form of a program.\n"
        "\n"
        "  <app>          a built-in workload profile name\n"
        "  <file.lir>     a LightIR text module\n"
        "  --threshold N  override the store threshold (default 32)\n"
        "  --no-prune     disable checkpoint pruning\n"
        "  --no-unroll    disable loop unrolling\n"
        "  --all          sweep all built-in workloads x {default,\n"
        "                 no-prune, no-unroll} configurations\n"
        "  --fuzz N       with --all: also check N seeded fuzz programs\n"
        "  --base-seed S  first fuzz seed (default 1)\n"
        "\n"
        "exit: 0 clean, 1 violations, 2 usage/input error\n";
}

bool dumpOnFail = false;

/** Compile @p m under @p cfg and run the full checker. */
bool
checkOne(std::unique_ptr<ir::Module> m,
         const compiler::CompilerConfig &cfg, const std::string &label,
         bool verbose)
{
    compiler::LightWspCompiler comp(cfg);
    compiler::CompiledProgram prog = comp.compile(std::move(m));
    analysis::CheckReport rep = analysis::checkCompiledProgram(prog, cfg);
    if (!rep.ok()) {
        std::cout << label << ": FAIL\n" << rep.describe() << "\n";
        if (dumpOnFail)
            std::cout << ir::moduleToString(*prog.module);
        return false;
    }
    if (verbose)
        std::cout << label << ": " << rep.describe() << "\n";
    return true;
}

/** The three compiler configurations --all sweeps per workload. */
struct NamedConfig
{
    const char *name;
    compiler::CompilerConfig cfg;
};

std::vector<NamedConfig>
sweepConfigs(unsigned threshold)
{
    std::vector<NamedConfig> out(3);
    out[0].name = "default";
    out[1].name = "no-prune";
    out[1].cfg.pruneCheckpoints = false;
    out[2].name = "no-unroll";
    out[2].cfg.unrollLoops = false;
    for (auto &nc : out)
        nc.cfg.storeThreshold = threshold;
    return out;
}

int
runAll(unsigned fuzzCount, std::uint64_t baseSeed, bool verbose)
{
    unsigned checked = 0, failed = 0;

    for (const auto &profile : workloads::paperProfiles()) {
        workloads::Workload base = workloads::generate(profile);
        std::string text = ir::moduleToString(*base.module);
        for (const auto &nc : sweepConfigs(32)) {
            // Re-parse per config: compile() consumes the module.
            auto m = ir::parseModule(text);
            ++checked;
            if (!checkOne(std::move(m), nc.cfg,
                          profile.name + " [" + nc.name + "]", verbose))
                ++failed;
        }
    }

    for (unsigned i = 0; i < fuzzCount; ++i) {
        std::uint64_t seed = baseSeed + i;
        // Same program generators as the crash fuzzer, thresholds from
        // its WPQ-motivated ladder.
        fuzz::FuzzProgram src = (i % 2 == 0)
                                    ? fuzz::randomIrProgram(seed, 0)
                                    : fuzz::randomWorkloadProgram(seed, 0);
        Rng rng(seed ^ 0x66757a7a2d636667ull); // "fuzz-cfg" (as buildCase)
        static const unsigned thrChoices[] = {4, 8, 16, 32};
        compiler::CompilerConfig cfg;
        cfg.storeThreshold = thrChoices[rng.below(4)];
        std::ostringstream label;
        label << "fuzz seed=" << seed << " ("
              << (i % 2 == 0 ? "ir" : "wl")
              << ", thr=" << cfg.storeThreshold << ")";
        ++checked;
        if (!checkOne(std::move(src.module), cfg, label.str(), verbose))
            ++failed;
    }

    std::cout << checked << " program(s) checked, " << failed
              << " with violations\n";
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool all = false, verbose = true;
    unsigned fuzzCount = 0;
    std::uint64_t baseSeed = 1;
    unsigned threshold = 32;
    compiler::CompilerConfig cfg;
    std::string target;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        // Plain decimal only: "abc" is a usage error, not an exception.
        auto number = [&](const char *flag, auto &out) {
            if (!parseDecimal(value(flag), out)) {
                usage();
                std::exit(2);
            }
        };
        if (arg == "--all") {
            all = true;
        } else if (arg == "--fuzz") {
            number("--fuzz", fuzzCount);
        } else if (arg == "--base-seed") {
            number("--base-seed", baseSeed);
        } else if (arg == "--threshold") {
            number("--threshold", threshold);
        } else if (arg == "--no-prune") {
            cfg.pruneCheckpoints = false;
        } else if (arg == "--no-unroll") {
            cfg.unrollLoops = false;
        } else if (arg == "--quiet" || arg == "-q") {
            verbose = false;
        } else if (arg == "--dump") {
            dumpOnFail = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown flag '" << arg << "'\n";
            usage();
            return 2;
        } else if (target.empty()) {
            target = arg;
        } else {
            std::cerr << "more than one target given\n";
            return 2;
        }
    }

    try {
        if (all) {
            if (!target.empty()) {
                std::cerr << "--all takes no target\n";
                return 2;
            }
            return runAll(fuzzCount, baseSeed, verbose);
        }
        if (target.empty()) {
            usage();
            return 2;
        }

        cfg.storeThreshold = threshold;
        std::unique_ptr<ir::Module> m;
        if (target.size() > 4 &&
            target.compare(target.size() - 4, 4, ".lir") == 0) {
            std::ifstream in(target);
            if (!in) {
                std::cerr << "cannot open '" << target << "'\n";
                return 2;
            }
            std::stringstream buf;
            buf << in.rdbuf();
            m = ir::parseModule(buf.str());
        } else {
            const workloads::WorkloadProfile *p = nullptr;
            for (const auto &prof : workloads::paperProfiles()) {
                if (prof.name == target)
                    p = &prof;
            }
            if (!p) {
                std::cerr << "unknown workload '" << target
                          << "' (and not a .lir file)\n";
                return 2;
            }
            m = std::move(workloads::generate(*p).module);
        }
        return checkOne(std::move(m), cfg, target, verbose) ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
