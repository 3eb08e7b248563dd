#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace lwsp {

namespace {

// Worker threads of a parallel sweep toggle/read quietness and emit
// warnings concurrently; the flag is atomic and emission is serialized
// so interleaved messages never shear mid-line.
std::atomic<bool> logQuiet{false};
std::mutex logMutex;

} // namespace

void
setLogQuiet(bool quiet)
{
    logQuiet.store(quiet, std::memory_order_relaxed);
}

namespace detail {

void
emitLog(const char *level, const std::string &msg)
{
    bool severe = level[0] == 'p';
    if (logQuiet.load(std::memory_order_relaxed) && !severe)
        return;
    std::lock_guard<std::mutex> lock(logMutex);
    std::fprintf(stderr, "[%s] %s\n", level, msg.c_str());
}

} // namespace detail
} // namespace lwsp
