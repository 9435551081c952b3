/* The cache-walk kernel: LRU cache, TLB and predictor state, and the
 * three reference walks of repro.hw.hierarchy (DESIGN.md §13, "Compiled
 * walk kernel").
 *
 * Every reference, batched or single, goes through one probe per kind:
 * data_ref, fetch_ref, branch_ref.  The batched walks add only the
 * hit-streak shortcut, which skips the set scan when a reference
 * repeats the page or line of the reference before it: that entry is
 * already the most recent of its set, so moving it there is a no-op.
 * All arithmetic is unsigned 64-bit; the Python layer rejects negative
 * and oversized values before they get here.
 */

#include <stddef.h>
#include <stdint.h>
#include "_walk.h"

#define COUNT(h, event, kernel) ((h)->counts[2 * (event) + (kernel)]++)

/* -- one cache level ------------------------------------------------- */

/* Slot of `line` in a set of `fill` entries, or -1; scans from the most
 * recent end, where hits cluster. */
static inline int64_t find_slot(const uint64_t *tags, uint32_t fill,
                                uint64_t line)
{
    for (int64_t i = (int64_t)fill - 1; i >= 0; --i)
        if (tags[i] == line)
            return i;
    return -1;
}

/* Remove slot `i` from a set of `fill` entries, keeping the order. */
static inline void remove_slot(uint64_t *tags, uint8_t *dirty,
                               uint32_t fill, uint32_t i)
{
    for (uint32_t j = i + 1; j < fill; ++j) {
        tags[j - 1] = tags[j];
        dirty[j - 1] = dirty[j];
    }
}

int cache_access(cache_t *c, uint64_t line, int write, uint64_t *victim)
{
    uint64_t set = line % c->num_sets;
    uint64_t *tags = c->tags + set * c->ways;
    uint8_t *dirty = c->dirty + set * c->ways;
    uint32_t fill = c->fill[set];
    int64_t slot = find_slot(tags, fill, line);
    int result = 0;
    c->accesses++;
    if (slot >= 0) {
        uint8_t was_dirty = dirty[slot];
        remove_slot(tags, dirty, fill, (uint32_t)slot);
        tags[fill - 1] = line;
        dirty[fill - 1] = was_dirty | (write != 0);
        c->hits++;
        return ACCESS_HIT;
    }
    c->misses++;
    if (fill == c->ways) {
        *victim = tags[0];
        result = ACCESS_EVICTED;
        if (dirty[0]) {
            c->writebacks++;
            result |= ACCESS_WRITEBACK;
        }
        c->evictions++;
        remove_slot(tags, dirty, fill, 0);
        fill--;
    }
    tags[fill] = line;
    dirty[fill] = write != 0;
    c->fill[set] = fill + 1;
    return result;
}

int cache_contains(const cache_t *c, uint64_t line)
{
    uint64_t set = line % c->num_sets;
    return find_slot(c->tags + set * c->ways, c->fill[set], line) >= 0;
}

int cache_invalidate(cache_t *c, uint64_t line)
{
    uint64_t set = line % c->num_sets;
    uint64_t *tags = c->tags + set * c->ways;
    int64_t slot = find_slot(tags, c->fill[set], line);
    if (slot < 0)
        return 0;
    remove_slot(tags, c->dirty + set * c->ways, c->fill[set],
                (uint32_t)slot);
    c->fill[set]--;
    c->invalidations++;
    return 1;
}

uint64_t cache_resident(const cache_t *c)
{
    uint64_t resident = 0;
    for (uint64_t set = 0; set < c->num_sets; ++set)
        resident += c->fill[set];
    return resident;
}

uint64_t cache_flush(cache_t *c)
{
    uint64_t resident = cache_resident(c);
    for (uint64_t set = 0; set < c->num_sets; ++set)
        c->fill[set] = 0;
    return resident;
}

/* -- branch predictor ------------------------------------------------ */

int predict(predictor_t *p, uint64_t pc, int taken)
{
    uint8_t *state = p->table + pc % p->size;
    int correct = (*state >= 2) == (taken != 0);
    p->predictions++;
    if (!correct)
        p->mispredictions++;
    if (taken) {
        if (*state < 3)
            ++*state;
    } else if (*state > 0) {
        --*state;
    }
    return correct;
}

void predictor_flush(predictor_t *p)
{
    for (uint64_t i = 0; i < p->size; ++i)
        p->table[i] = 2;  /* weakly taken */
}

/* -- the three probes ------------------------------------------------ */

/* A fill from L3 after an L2 miss; returns 1 when L3 missed too.  The
 * hierarchy is inclusive: an L3 eviction drops the L2 copy. */
static inline int l3_fill(hier_t *h, uint64_t line, int write, int kernel)
{
    uint64_t victim;
    int result = cache_access(h->l3, line, write, &victim);
    if (result & ACCESS_HIT)
        return 0;
    COUNT(h, EV_L3_MISSES, kernel);
    if (result & ACCESS_WRITEBACK)
        COUNT(h, EV_L3_WRITEBACKS, kernel);
    if (result & ACCESS_EVICTED)
        cache_invalidate(h->l2, victim);
    return 1;
}

/* One data reference.  `last_page`/`last_line` carry the hit streak of
 * a walk; NULL for a single reference. */
static inline int data_ref(hier_t *h, uint64_t address, int write,
                           int kernel, uint64_t *last_page,
                           uint64_t *last_line)
{
    uint64_t victim;
    cache_t *tlb = h->dtlb, *l2 = h->l2;
    uint64_t page = address >> tlb->line_shift;
    uint64_t line = address >> l2->line_shift;  /* L2 and L3 share it */
    COUNT(h, EV_DATA_REFS, kernel);
    if (last_page && page == *last_page) {
        tlb->accesses++;
        tlb->hits++;
    } else {
        if (last_page)
            *last_page = page;
        if (!(cache_access(tlb, page, 0, &victim) & ACCESS_HIT))
            COUNT(h, EV_TLB_MISSES, kernel);
    }
    if (last_line && line == *last_line) {
        l2->accesses++;
        l2->hits++;
        if (write) {
            uint64_t set = line % l2->num_sets;
            l2->dirty[set * l2->ways + l2->fill[set] - 1] = 1;
        }
        return 0;
    }
    if (last_line)
        *last_line = line;
    if (cache_access(l2, line, write, &victim) & ACCESS_HIT)
        return 0;
    COUNT(h, EV_L2_MISSES, kernel);
    return L2_MISSED | (l3_fill(h, line, write, kernel) ? L3_MISSED : 0);
}

/* One instruction fetch; returns 1 on a TC miss, which fills through
 * L2/L3 like a data read. */
static inline int fetch_ref(hier_t *h, uint64_t address, int kernel,
                            uint64_t *last_tc)
{
    uint64_t victim;
    cache_t *tc = h->tc;
    uint64_t tc_line = address >> tc->line_shift;
    uint64_t line = address >> h->l2->line_shift;
    COUNT(h, EV_CODE_REFS, kernel);
    if (last_tc && tc_line == *last_tc) {
        tc->accesses++;
        tc->hits++;
        return 0;
    }
    if (last_tc)
        *last_tc = tc_line;
    if (cache_access(tc, tc_line, 0, &victim) & ACCESS_HIT)
        return 0;
    COUNT(h, EV_TC_MISSES, kernel);
    if (!(cache_access(h->l2, line, 0, &victim) & ACCESS_HIT)) {
        COUNT(h, EV_L2_MISSES, kernel);
        l3_fill(h, line, 0, kernel);
    }
    return 1;
}

/* One conditional branch; returns 1 when predicted correctly. */
static inline int branch_ref(hier_t *h, uint64_t pc, int taken, int kernel)
{
    int correct = predict(h->predictor, pc, taken);
    COUNT(h, EV_BRANCHES, kernel);
    if (!correct)
        COUNT(h, EV_MISPREDICTS, kernel);
    return correct;
}

/* -- single references ----------------------------------------------- */

int hier_data(hier_t *h, uint64_t address, int write, int kernel)
{
    return data_ref(h, address, write != 0, kernel != 0, NULL, NULL);
}

int hier_fetch(hier_t *h, uint64_t address, int kernel)
{
    return fetch_ref(h, address, kernel != 0, NULL);
}

int hier_branch(hier_t *h, uint64_t pc, int taken, int kernel)
{
    return branch_ref(h, pc, taken != 0, kernel != 0);
}

/* -- walks ----------------------------------------------------------- */

/* Walk packed data references (address << 2 | write << 1 | shared).
 * With `record_shared`, the shared references are compacted to the
 * front of `run`, in order, with the shared bit replaced by the
 * reference's L3-miss flag, for the caller's coherence directory; the
 * return value is their count.  A write position never passes the read
 * position, so no unread entry is overwritten. */
size_t walk_data(hier_t *h, uint64_t *run, size_t n, int kernel,
                 int record_shared)
{
    uint64_t last_page, last_line;
    size_t shared = 0;
    if (n == 0)
        return 0;
    /* Streak seeds the first reference cannot match. */
    last_page = ~((run[0] >> 2) >> h->dtlb->line_shift);
    last_line = ~((run[0] >> 2) >> h->l2->line_shift);
    kernel = kernel != 0;
    for (size_t k = 0; k < n; ++k) {
        uint64_t code = run[k];
        int missed = data_ref(h, code >> 2, (code >> 1) & 1, kernel,
                              &last_page, &last_line);
        if (record_shared && (code & 1))
            run[shared++] = (code & ~(uint64_t)1) | ((missed & L3_MISSED) != 0);
    }
    return shared;
}

void walk_fetch(hier_t *h, const uint64_t *run, size_t n, int kernel)
{
    uint64_t last_tc;
    if (n == 0)
        return;
    last_tc = ~(run[0] >> h->tc->line_shift);
    kernel = kernel != 0;
    for (size_t k = 0; k < n; ++k)
        fetch_ref(h, run[k], kernel, &last_tc);
}

/* Walk packed branches (pc << 1 | taken). */
void walk_branch(hier_t *h, const uint64_t *run, size_t n, int kernel)
{
    kernel = kernel != 0;
    for (size_t k = 0; k < n; ++k)
        branch_ref(h, run[k] >> 1, (int)(run[k] & 1), kernel);
}
