/**
 * @file
 * Fully-associative translation lookaside buffer.
 *
 * The PB parameter space includes I-TLB and D-TLB sizes and the TLB miss
 * latency; a fully-associative LRU array of page entries is enough to make
 * those parameters bite.
 *
 * The entry array (page, LRU stamp and valid bit per entry) and the LRU
 * clock are the TLB's whole state: serializeWarmState writes exactly
 * them, and they evolve as a linear scan over the array would evolve
 * them. Beside the array sits a derived index that answers the scan's
 * two questions in O(1) instead of O(entries):
 *  - which valid entry holds a page: an open-addressed (linear probing)
 *    page -> entry hash over the valid entries;
 *  - which entry a miss fills: the head of an intrusive recency list
 *    that holds the invalid entries first, highest index first, then
 *    the valid entries, least recent first.
 * That is the scan's victim rule (the highest-index invalid entry,
 * otherwise the valid entry with the smallest stamp, lowest index on a
 * tie), so every stamp, the clock and the serialized bytes are the same.
 * The index is never serialized; reset() and deserializeWarmState()
 * rebuild it from the entries.
 */

#ifndef YASIM_UARCH_TLB_HH
#define YASIM_UARCH_TLB_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace yasim {

/** TLB hit/miss counters. */
struct TlbStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;

    double hitRate() const
    {
        if (accesses == 0)
            return 1.0;
        return 1.0 - static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    /**
     * @param name       for reports
     * @param entries    number of page entries
     * @param page_bytes page size (power of two)
     */
    Tlb(std::string name, uint32_t entries, uint32_t page_bytes = 4096);

    /** Translate the page of @p addr; fills on miss. @return true on hit. */
    bool access(uint64_t addr);

    /** As access() but without statistics (warming). */
    bool touch(uint64_t addr);

    /** Drop all entries. */
    void reset();

    const TlbStats &stats() const { return tlbStats; }
    void clearStats() { tlbStats = TlbStats(); }

    /** As Cache::serializeWarmState, for the TLB entry array. */
    void serializeWarmState(std::ostream &os) const;

    /**
     * As Cache::deserializeWarmState. Also fails on entries no TLB can
     * reach (two valid entries for one page, or a stamp past the
     * clock); on any failure the TLB is left reset.
     */
    bool deserializeWarmState(std::istream &is);

  private:
    static constexpr uint32_t kNone = ~0u;

    bool lookupAndFill(uint64_t addr);
    /** Read the entry array and clock written by serializeWarmState. */
    bool readWarmEntries(std::istream &is);
    /** Rebuild the index from the entries; false if they cannot back it. */
    bool rebuildIndex();

    uint32_t homeSlot(uint64_t page) const;
    /** The slot holding @p page, or the empty slot ending its probe run. */
    uint32_t findSlot(uint64_t page) const;
    void eraseSlot(uint32_t slot);
    void unlink(uint32_t idx);
    void appendMostRecent(uint32_t idx);

    std::string tlbName;
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

    // The derived index (never serialized).
    /** Page hash: an entry index per slot, kNone when empty. */
    std::vector<uint32_t> slots;
    /** 64 - log2(slots.size()): the multiplicative hash's shift. */
    uint32_t slotShift;
    struct Link
    {
        uint32_t prev;
        uint32_t next;
    };
    /**
     * Fill order: invalid entries (highest index first), then valid ones
     * (least recent first). links[entries.size()] is the sentinel.
     */
    std::vector<Link> links;
};

} // namespace yasim

#endif // YASIM_UARCH_TLB_HH
