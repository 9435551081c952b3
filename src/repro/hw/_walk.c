/* The cache-walk kernel: LRU cache, TLB and predictor state, and the
 * three reference walks of repro.hw.hierarchy (DESIGN.md §13, "Compiled
 * walk kernel"); then CPython's random stream and the samplers that
 * draw from it: the prewarm plans of repro.odb and the trace segments
 * of repro.hw.trace (DESIGN.md §13, "Compiled sampling").
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

/* -- exact sampling ---------------------------------------------------- */

/* CPython's MT19937 and its conversions (Modules/_randommodule.c and
 * Lib/random.py), so a stream handed over through Random.getstate()
 * and back through setstate() draws exactly the numbers, in exactly
 * the order, that the Python calls named beside each sampler below
 * would have. */

#define MT_N 624
#define MT_M 397

static inline uint32_t mt_word(mt_t *mt)
{
    uint32_t *s = mt->state;
    uint32_t y;
    if (mt->index >= MT_N) {
        static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
        int k;
        for (k = 0; k < MT_N - MT_M; k++) {
            y = (s[k] & 0x80000000U) | (s[k + 1] & 0x7fffffffU);
            s[k] = s[k + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; k < MT_N - 1; k++) {
            y = (s[k] & 0x80000000U) | (s[k + 1] & 0x7fffffffU);
            s[k] = s[k + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (s[MT_N - 1] & 0x80000000U) | (s[0] & 0x7fffffffU);
        s[MT_N - 1] = s[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        mt->index = 0;
    }
    y = s[mt->index++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* random(): 53 bits from two words, ((a >> 5) * 2^26 + (b >> 6)) / 2^53;
 * the integer sum is exact, so is its conversion. */
static inline double rand_u(mt_t *mt)
{
    uint64_t a = mt_word(mt) >> 5, b = mt_word(mt) >> 6;
    return (double)((a << 26) + b) * (1.0 / 9007199254740992.0);
}

/* getrandbits(k) for 0 <= k <= 32: the top k bits of one word; k = 0
 * draws nothing. */
static inline uint32_t rand_bits(mt_t *mt, int k)
{
    return k ? mt_word(mt) >> (32 - k) : 0;
}

/* randrange(n), n >= 1: Random._randbelow_with_getrandbits, redrawing
 * getrandbits(n.bit_length()) while the draw is >= n. */
static inline uint32_t rand_below(mt_t *mt, uint32_t n)
{
    int k = 0;
    uint32_t r;
    while (k < 32 && (n >> k))
        k++;
    do
        r = rand_bits(mt, k);
    while (r >= n);
    return r;
}

/* bisect.bisect_left(cdf, x). */
static inline size_t bisect(const double *cdf, size_t n, double x)
{
    size_t lo = 0, hi = n;
    while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (cdf[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

double mt_random(mt_t *mt)
{
    return rand_u(mt);
}

uint32_t mt_getrandbits(mt_t *mt, int k)
{
    return rand_bits(mt, k < 0 ? 0 : k > 32 ? 32 : k);
}

uint32_t mt_randbelow(mt_t *mt, uint32_t n)
{
    return n ? rand_below(mt, n) : 0;
}

/* Knuth's Poisson count against threshold = exp(-mean), mean > 0. */
uint32_t mt_poisson(mt_t *mt, double threshold)
{
    uint32_t count = 0;
    double product = rand_u(mt);
    while (product > threshold) {
        count++;
        product *= rand_u(mt);
    }
    return count;
}

/* -- prewarm plans ----------------------------------------------------- */

/* `plans` transactions of repro.odb.transactions.plan_transaction, each
 * type drawn by TransactionMix.pick over `mix_cdf`: type t owns the
 * touch specs [first[t], first[t + 1]).  Every touch is packed as
 * (block_id << 1) | write into `out`, which holds the largest possible
 * total; the return value is the number written.  The district is drawn
 * and dropped, as the prewarm replay never locks. */
size_t sample_plans(mt_t *mt, const double *mix_cdf, uint32_t types,
                    const uint32_t *first, const touch_t *touches,
                    uint32_t warehouses, double remote_prob,
                    uint32_t plans, uint64_t *out)
{
    size_t n = 0;
    int multi = warehouses > 1;
    for (uint32_t p = 0; p < plans; ++p) {
        size_t type = bisect(mix_cdf, types, rand_u(mt));
        uint32_t warehouse;
        if (type >= types)
            type = types - 1;
        warehouse = rand_below(mt, warehouses);
        rand_below(mt, 10);  /* district */
        for (uint32_t t = first[type]; t < first[type + 1]; ++t) {
            const touch_t *spec = touches + t;
            for (uint32_t c = 0; c < spec->count; ++c) {
                uint64_t target = warehouse, index, block;
                if (multi && rand_u(mt) < remote_prob)
                    target = rand_below(mt, warehouses);
                index = bisect(spec->cdf, spec->cdf_len, rand_u(mt));
                if (spec->modulus)
                    index %= spec->modulus;
                block = spec->offset + spec->stride * target + index;
                out[n++] = (block << 1) | (rand_u(mt) < spec->write_prob);
            }
        }
    }
    return n;
}

/* -- trace segments ---------------------------------------------------- */

/* The stream's address map (repro.hw.trace): byte addresses, regions
 * far apart; data lines are 128 bytes, code lines 64. */
#define LINE 128
#define CODE_LINE 64
#define HOT_BASE 0
#define WARM_BASE ((uint64_t)1 << 24)
#define KERNEL_DATA_BASE ((uint64_t)1 << 28)
#define KERNEL_COLD_BASE ((uint64_t)1 << 29)
#define KERNEL_TASK_BASE ((uint64_t)3 << 28)
#define BLOCK_BASE ((uint64_t)1 << 30)
#define COLD_BLOCK_REGION ((uint64_t)1 << 38)  /* far from the hot blocks */
#define USER_CODE_BASE 0
#define KERNEL_CODE_BASE ((uint64_t)1 << 22)
#define RECENT_LINES 24

static inline uint64_t pick_line(gen_t *g, int which)
{
    return bisect(g->cdf[which], g->cdf_len[which], rand_u(&g->mt));
}

static inline uint64_t write_bit(gen_t *g, double prob)
{
    return rand_u(&g->mt) < prob ? 2 : 0;
}

/* A user data segment of `n` packed references
 * (address << 2) | write << 1 | shared: revisits of the transaction's
 * recent block lines, then the hot / warm / block / private mix. */
void gen_user_data(gen_t *g, uint64_t private_base, uint64_t *run,
                   size_t n)
{
    mt_t *mt = &g->mt;
    for (size_t k = 0; k < n; ++k) {
        double u;
        uint64_t address;
        if (g->recent_len && rand_u(mt) < g->revisit_prob) {
            run[k] = g->recent[rand_below(mt, g->recent_len)] << 2;
            continue;
        }
        u = rand_u(mt);
        if (u < g->p_hot) {
            address = HOT_BASE + pick_line(g, CDF_HOT) * LINE;
            run[k] = (address << 2) | write_bit(g, g->hot_write_prob) | 1;
        } else if (u < g->p_hot_warm) {
            address = WARM_BASE + pick_line(g, CDF_WARM) * LINE;
            run[k] = (address << 2) | write_bit(g, g->warm_write_prob) | 1;
        } else if (u < g->p_hot_warm_block) {
            uint64_t warehouse = rand_below(mt, g->warehouses);
            uint64_t block_id, region, line;
            if (rand_u(mt) < g->hot_block_prob) {
                block_id = warehouse * g->hot_blocks_per_wh
                           + pick_line(g, CDF_HOT_BLOCK);
                region = 0;
            } else {
                block_id = warehouse * g->cold_blocks_per_wh
                           + rand_below(mt, g->cold_blocks_per_wh);
                region = COLD_BLOCK_REGION;
            }
            line = rand_below(mt, g->lines_per_block);
            address = BLOCK_BASE + region
                      + (block_id * g->lines_per_block + line) * LINE;
            run[k] = (address << 2) | write_bit(g, g->block_write_prob);
            if (g->recent_len == RECENT_LINES) {
                for (uint32_t i = 1; i < RECENT_LINES; ++i)
                    g->recent[i - 1] = g->recent[i];
                g->recent_len--;
            }
            g->recent[g->recent_len++] = address;
        } else {
            address = private_base + pick_line(g, CDF_PRIVATE) * LINE;
            run[k] = (address << 2) | write_bit(g, g->private_write_prob);
        }
    }
}

/* `n` instruction-fetch byte addresses, user or kernel code. */
void gen_code(gen_t *g, int kernel, uint64_t *run, size_t n)
{
    int which = kernel ? CDF_KERNEL_CODE : CDF_USER_CODE;
    uint64_t base = kernel ? KERNEL_CODE_BASE : USER_CODE_BASE;
    for (size_t k = 0; k < n; ++k)
        run[k] = base + pick_line(g, which) * CODE_LINE;
}

/* `n` packed branches (site << 1) | taken over the user code sites,
 * each site with a stable taken bias: mostly strongly biased, with a
 * hard-to-predict minority, as in real integer code. */
void gen_branches(gen_t *g, uint64_t *run, size_t n)
{
    for (size_t k = 0; k < n; ++k) {
        uint64_t site = pick_line(g, CDF_USER_CODE);
        uint64_t bucket = (site * 2654435761U) % 20;
        double taken_prob = bucket < 12 ? 0.97
                            : bucket < 15 ? 0.03
                            : bucket < 19 ? 0.88 : 0.55;
        run[k] = (site << 1) | (rand_u(&g->mt) < taken_prob);
    }
}

/* A kernel burst's data references, packed as gen_user_data's: `refs`
 * to the kernel footprint, `slab_refs` to recycled per-request slab
 * lines, and, for task_client >= 0, the incoming process's task state.
 * Returns the run length. */
size_t gen_kernel_data(gen_t *g, size_t refs, size_t slab_refs,
                       int64_t task_client, uint64_t *run)
{
    size_t n = 0;
    for (size_t k = 0; k < refs; ++k) {
        uint64_t address = KERNEL_DATA_BASE + pick_line(g, CDF_KERNEL) * LINE;
        run[n++] = (address << 2) | write_bit(g, 0.3);
    }
    for (size_t k = 0; k < slab_refs; ++k) {
        uint64_t line = ++g->slab_seq % g->slab_pool_lines;
        run[n++] = ((KERNEL_COLD_BASE + line * LINE) << 2) | 2;
    }
    if (task_client >= 0) {
        uint64_t base = KERNEL_TASK_BASE
                        + (uint64_t)task_client * g->task_lines_per_client * LINE;
        for (uint32_t k = 0; k < g->task_refs_per_cs; ++k) {
            uint64_t offset = rand_below(&g->mt, g->task_lines_per_client);
            run[n++] = ((base + offset * LINE) << 2) | write_bit(g, 0.4);
        }
    }
    return n;
}
