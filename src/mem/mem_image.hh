/**
 * @file
 * Functional memory image: a sparse, paged 64-bit-word store.
 *
 * Two images exist per simulated system: the execution image (what loads
 * observe) and the PM image (updated only when the WPQ releases an entry
 * to persistent memory). Crash-consistency checks compare and clone these.
 */

#ifndef LWSP_MEM_MEM_IMAGE_HH
#define LWSP_MEM_MEM_IMAGE_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lwsp {
namespace mem {

class MemImage
{
  public:
    static constexpr unsigned pageShift = 12;  // 4 KiB pages
    static constexpr Addr pageWords = (1ull << pageShift) / 8;

    /** Read the 8-byte word at @p addr (must be 8B aligned; 0 if untouched). */
    std::uint64_t
    read(Addr addr) const
    {
        LWSP_ASSERT((addr & 7) == 0, "unaligned read 0x", std::hex, addr);
        auto it = pages_.find(addr >> pageShift);
        if (it == pages_.end())
            return 0;
        return it->second[(addr >> 3) & (pageWords - 1)];
    }

    /** Write the 8-byte word at @p addr (must be 8B aligned). */
    void
    write(Addr addr, std::uint64_t value)
    {
        LWSP_ASSERT((addr & 7) == 0, "unaligned write 0x", std::hex, addr);
        auto &page = pages_[addr >> pageShift];
        if (page.empty())
            page.assign(pageWords, 0);
        page[(addr >> 3) & (pageWords - 1)] = value;
        if (!poisoned_.empty())
            poisoned_.erase(addr);
    }

    // ---- PM media errors (fault injection) ---------------------------
    /**
     * Mark the word at @p addr as a media read error: the device flags
     * it (like a DIMM returning a poison ECC code) and its data are
     * garbage. A fresh write to the address heals it. The stored value
     * is left as-is — the injector scrambles it separately, so code that
     * ignores the flag observes corrupt data rather than a crash.
     */
    void poison(Addr addr) { poisoned_.insert(addr); }

    bool isPoisoned(Addr addr) const { return poisoned_.count(addr) != 0; }

    /** Deep copy (crash-recovery runs re-execute on a cloned PM image). */
    MemImage clone() const { return *this; }

    /**
     * Compare against @p other over every address.
     * @return differing addresses in ascending order, the first
     *         @p max_diffs of them
     */
    std::vector<Addr>
    diff(const MemImage &other, std::size_t max_diffs = 16) const
    {
        return diffInRange(other, 0, ~Addr(0), max_diffs);
    }

    /**
     * diff() restricted to [lo, hi): used to compare application data
     * while ignoring checkpoint storage and stacks, whose final contents
     * may legitimately differ across thread interleavings. Walks only
     * the pages either image has touched inside the range, in address
     * order, so the cap applies to in-range differences alone.
     */
    std::vector<Addr>
    diffInRange(const MemImage &other, Addr lo, Addr hi,
                std::size_t max_diffs = 16) const
    {
        std::vector<Addr> out;
        if (lo >= hi)
            return out;
        const Addr first = lo >> pageShift, last = (hi - 1) >> pageShift;
        std::vector<Addr> pagenos;
        for (const MemImage *img : {this, &other}) {
            for (const auto &kv : img->pages_) {
                if (kv.first >= first && kv.first <= last)
                    pagenos.push_back(kv.first);
            }
        }
        std::sort(pagenos.begin(), pagenos.end());
        pagenos.erase(std::unique(pagenos.begin(), pagenos.end()),
                      pagenos.end());

        for (Addr pageno : pagenos) {
            const std::uint64_t *mine = pageData(pageno);
            const std::uint64_t *theirs = other.pageData(pageno);
            Addr base = pageno << pageShift;
            Addr i = base < lo ? (lo - base + 7) >> 3 : 0;
            Addr end = pageno == last ? ((hi - 1 - base) >> 3) + 1
                                      : pageWords;
            for (; i < end; ++i) {
                std::uint64_t a = mine ? mine[i] : 0;
                std::uint64_t b = theirs ? theirs[i] : 0;
                if (a == b)
                    continue;
                out.push_back(base | (i << 3));
                if (out.size() >= max_diffs)
                    return out;
            }
        }
        return out;
    }

  private:
    /** The words of page @p pageno, or nullptr if it is untouched. */
    const std::uint64_t *
    pageData(Addr pageno) const
    {
        auto it = pages_.find(pageno);
        return it == pages_.end() ? nullptr : it->second.data();
    }

    std::unordered_map<Addr, std::vector<std::uint64_t>> pages_;
    std::unordered_set<Addr> poisoned_;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_MEM_IMAGE_HH
