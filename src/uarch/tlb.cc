#include "uarch/tlb.hh"

#include <algorithm>
#include <bit>

#include "support/logging.hh"
#include "uarch/warm_state.hh"

namespace yasim {

Tlb::Tlb(std::string name, uint32_t num_entries, uint32_t page_bytes)
    : tlbName(std::move(name))
{
    YASIM_ASSERT(num_entries >= 1 && num_entries < kNone);
    YASIM_ASSERT(page_bytes != 0 && (page_bytes & (page_bytes - 1)) == 0);
    pageShift = std::countr_zero(page_bytes);
    entries.assign(num_entries, Entry());
    // At most half the slots are ever full, so probe runs stay short.
    slots.assign(std::bit_ceil(uint64_t{num_entries}) * 2, kNone);
    slotShift = 64 - std::countr_zero(slots.size());
    links.resize(num_entries + 1);
    rebuildIndex();
}

uint32_t
Tlb::homeSlot(uint64_t page) const
{
    return static_cast<uint32_t>((page * 0x9e3779b97f4a7c15ULL) >>
                                 slotShift);
}

uint32_t
Tlb::findSlot(uint64_t page) const
{
    const uint32_t mask = static_cast<uint32_t>(slots.size()) - 1;
    uint32_t s = homeSlot(page);
    while (slots[s] != kNone && entries[slots[s]].page != page)
        s = (s + 1) & mask;
    return s;
}

void
Tlb::eraseSlot(uint32_t slot)
{
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless that would move it before its home slot.
    const uint32_t mask = static_cast<uint32_t>(slots.size()) - 1;
    for (uint32_t j = (slot + 1) & mask; slots[j] != kNone;
         j = (j + 1) & mask) {
        uint32_t home = homeSlot(entries[slots[j]].page);
        if (((j - home) & mask) >= ((j - slot) & mask)) {
            slots[slot] = slots[j];
            slot = j;
        }
    }
    slots[slot] = kNone;
}

void
Tlb::unlink(uint32_t idx)
{
    Link &l = links[idx];
    links[l.prev].next = l.next;
    links[l.next].prev = l.prev;
}

void
Tlb::appendMostRecent(uint32_t idx)
{
    const uint32_t sentinel = static_cast<uint32_t>(entries.size());
    uint32_t tail = links[sentinel].prev;
    links[idx] = {tail, sentinel};
    links[tail].next = idx;
    links[sentinel].prev = idx;
}

bool
Tlb::lookupAndFill(uint64_t addr)
{
    uint64_t page = addr >> pageShift;
    uint32_t slot = findSlot(page);
    if (slots[slot] != kNone) {
        uint32_t idx = slots[slot];
        entries[idx].lru = ++lruClock;
        unlink(idx);
        appendMostRecent(idx);
        return true;
    }
    uint32_t victim = links[entries.size()].next;
    unlink(victim);
    if (entries[victim].valid) {
        eraseSlot(findSlot(entries[victim].page));
        slot = findSlot(page); // the erase may have shifted the run
    }
    Entry &e = entries[victim];
    e.valid = true;
    e.page = page;
    e.lru = ++lruClock;
    slots[slot] = victim;
    appendMostRecent(victim);
    return false;
}

bool
Tlb::access(uint64_t addr)
{
    ++tlbStats.accesses;
    bool hit = lookupAndFill(addr);
    if (!hit)
        ++tlbStats.misses;
    return hit;
}

bool
Tlb::touch(uint64_t addr)
{
    return lookupAndFill(addr);
}

void
Tlb::reset()
{
    for (Entry &e : entries)
        e.valid = false;
    lruClock = 0;
    rebuildIndex();
}

bool
Tlb::rebuildIndex()
{
    const uint32_t n = static_cast<uint32_t>(entries.size());
    std::fill(slots.begin(), slots.end(), kNone);
    links[n] = {n, n};
    std::vector<uint32_t> valid;
    for (uint32_t i = n; i-- > 0;) {
        if (entries[i].valid)
            valid.push_back(i);
        else
            appendMostRecent(i); // fills take the highest index first
    }
    // Least recent first; on equal stamps the lower index goes first,
    // as the scan's strict less-than picks it.
    std::sort(valid.begin(), valid.end(), [this](uint32_t a, uint32_t b) {
        return entries[a].lru < entries[b].lru ||
               (entries[a].lru == entries[b].lru && a < b);
    });
    for (uint32_t i : valid) {
        // A stamp past the clock would outrank every later fill, and a
        // second entry for one page would shadow the first: no sequence
        // of operations produces either.
        uint32_t slot = findSlot(entries[i].page);
        if (entries[i].lru > lruClock || slots[slot] != kNone)
            return false;
        slots[slot] = i;
        appendMostRecent(i);
    }
    return true;
}

bool
Tlb::deserializeWarmState(std::istream &is)
{
    if (readWarmEntries(is) && rebuildIndex())
        return true;
    reset();
    return false;
}

void
// yasim-lint: serialized(warm)
Tlb::serializeWarmState(std::ostream &os) const
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

bool
// yasim-lint: serialized(warm)
Tlb::readWarmEntries(std::istream &is)
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

} // namespace yasim
