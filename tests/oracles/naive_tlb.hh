/**
 * @file
 * The naive reference TLB: the obvious O(entries) linear scan that
 * yasim's Tlb (uarch/tlb.hh) must reproduce op for op. Every hit scans
 * for the page, and every miss scans again for the victim: the
 * highest-index invalid entry, otherwise the valid entry with the
 * smallest LRU stamp (lowest index on a tie). The warm-state layout is
 * Tlb's, byte for byte. Kept for tests only; nothing in src/ uses it.
 */

#ifndef YASIM_TESTS_ORACLES_NAIVE_TLB_HH
#define YASIM_TESTS_ORACLES_NAIVE_TLB_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "support/logging.hh"
#include "uarch/tlb.hh"
#include "uarch/warm_state.hh"

namespace yasim::oracle {

class NaiveTlb
{
  public:
    NaiveTlb(uint32_t num_entries, uint32_t page_bytes = 4096)
    {
        YASIM_ASSERT(num_entries >= 1);
        YASIM_ASSERT(page_bytes != 0 && (page_bytes & (page_bytes - 1)) == 0);
        pageShift = 0;
        for (uint32_t v = page_bytes; v > 1; v >>= 1)
            ++pageShift;
        entries.assign(num_entries, Entry());
    }

    bool access(uint64_t addr)
    {
        ++tlbStats.accesses;
        bool hit = lookupAndFill(addr);
        if (!hit)
            ++tlbStats.misses;
        return hit;
    }

    bool touch(uint64_t addr) { return lookupAndFill(addr); }

    void reset()
    {
        for (Entry &e : entries)
            e.valid = false;
        lruClock = 0;
    }

    const TlbStats &stats() const { return tlbStats; }

    void serializeWarmState(std::ostream &os) const
    {
        using warmio::putPod;
        putPod(os, pageShift);
        putPod(os, static_cast<uint64_t>(entries.size()));
        putPod(os, lruClock);
        for (const Entry &e : entries) {
            putPod(os, e.page);
            putPod(os, e.lru);
            putPod(os, static_cast<uint8_t>(e.valid ? 1 : 0));
        }
    }

    bool deserializeWarmState(std::istream &is)
    {
        using warmio::getPod;
        uint32_t shift = 0;
        uint64_t n = 0;
        if (!getPod(is, shift) || !getPod(is, n))
            return false;
        if (shift != pageShift || n != entries.size())
            return false;
        if (!getPod(is, lruClock))
            return false;
        for (Entry &e : entries) {
            uint8_t valid = 0;
            if (!getPod(is, e.page) || !getPod(is, e.lru) ||
                !getPod(is, valid)) {
                return false;
            }
            e.valid = valid != 0;
        }
        return true;
    }

  private:
    bool lookupAndFill(uint64_t addr)
    {
        uint64_t page = addr >> pageShift;
        Entry *victim = &entries[0];
        for (Entry &e : entries) {
            if (e.valid && e.page == page) {
                e.lru = ++lruClock;
                return true;
            }
            if (!e.valid) {
                victim = &e;
            } else if (victim->valid && e.lru < victim->lru) {
                victim = &e;
            }
        }
        victim->valid = true;
        victim->page = page;
        victim->lru = ++lruClock;
        return false;
    }

    uint32_t pageShift;
    TlbStats tlbStats;

    struct Entry
    {
        uint64_t page = 0;
        uint64_t lru = 0;
        bool valid = false;
    };
    std::vector<Entry> entries;
    uint64_t lruClock = 0;
};

} // namespace yasim::oracle

#endif // YASIM_TESTS_ORACLES_NAIVE_TLB_HH
