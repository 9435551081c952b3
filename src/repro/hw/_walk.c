/* The cache-walk kernel: LRU cache, TLB and predictor state, the
 * coherence directory, and the three reference walks of
 * repro.hw.hierarchy (DESIGN.md §11, "Compiled walk kernel"); then
 * CPython's random stream and the samplers that draw from it: the
 * prewarm plans of repro.odb, and the trace segments and the
 * transaction loop of repro.hw.trace (DESIGN.md §11, "Compiled
 * sampling"); last, the SGA buffer cache of repro.db, which the DES and
 * the prewarm share (DESIGN.md §11, "Buffer-cache LRU").
 *
 * Every reference goes through a walk (walk_data, walk_fetch,
 * walk_branch), and every walk through one probe per kind: data_ref,
 * fetch_ref, branch_ref.  The probes carry the walk's hit streak, which
 * skips the set scan when a reference repeats the page or line of the
 * reference before it: that entry is already the most recent of its
 * set, so moving it there is a no-op.  A walk seeds the streak with
 * values its first reference cannot match, so a one-reference walk is a
 * plain probe.  All arithmetic is unsigned 64-bit; cffi rejects negative
 * and oversized values before they get here.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
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

/* Empty the cache; returns the lines it held. */
uint64_t cache_flush(cache_t *c)
{
    uint64_t resident = 0;
    for (uint64_t set = 0; set < c->num_sets; ++set) {
        resident += c->fill[set];
        c->fill[set] = 0;
    }
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

/* -- coherence directory --------------------------------------------- */

/* repro.hw.coherence: write-invalidate, with a miss by a CPU on a line
 * it lost to another CPU's write classified as a coherence miss.  A
 * line's entry is never removed (an emptied one reads as absent), so
 * the table only grows, doubling when it would pass half full. */

#define DIR_MIN_BITS 8

static inline uint64_t dir_home(uint64_t line, uint32_t bits)
{
    return (line * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
}

/* The table index holding `line`, or the empty entry ending its run. */
static inline uint64_t dir_probe(const dir_t *d, uint64_t line)
{
    uint64_t mask = ((uint64_t)1 << d->table_bits) - 1;
    uint64_t i = dir_home(line, d->table_bits);
    while (d->table[i].used && d->table[i].line != line)
        i = (i + 1) & mask;
    return i;
}

static int dir_grow(dir_t *d)
{
    uint32_t bits = d->table_bits + 1;
    uint64_t size = (uint64_t)1 << bits, mask = size - 1;
    dir_line_t *old = d->table, *table = calloc(size, sizeof *table);
    if (!table)
        return 0;
    for (uint64_t k = 0; k < size / 2; ++k) {
        uint64_t i;
        if (!old[k].used)
            continue;
        i = dir_home(old[k].line, bits);
        while (table[i].used)
            i = (i + 1) & mask;
        table[i] = old[k];
    }
    free(old);
    d->table = table;
    d->table_bits = bits;
    return 1;
}

/* The entry of `line`, taken empty if new; NULL when the table cannot
 * grow. */
static inline dir_line_t *dir_entry(dir_t *d, uint64_t line)
{
    dir_line_t *e = d->table + dir_probe(d, line);
    if (e->used)
        return e;
    if (2 * (d->lines + 1) > ((uint64_t)1 << d->table_bits)) {
        if (!dir_grow(d))
            return NULL;
        e = d->table + dir_probe(d, line);
    }
    e->used = 1;
    e->line = line;
    e->sharers = e->stolen = 0;
    e->owner = -1;
    d->lines++;
    return e;
}

dir_t *dir_new(uint32_t processors)
{
    dir_t *d = calloc(1, sizeof *d);
    if (!d)
        return NULL;
    d->processors = processors;
    d->table_bits = DIR_MIN_BITS;
    d->table = calloc((size_t)1 << DIR_MIN_BITS, sizeof *d->table);
    if (!d->table) {
        free(d);
        return NULL;
    }
    return d;
}

void dir_free(dir_t *d)
{
    if (!d)
        return;
    free(d->table);
    free(d);
}

/* A read by `cpu`: 1 for a coherence miss, else 0; -1 when the table
 * cannot grow.  A read miss on a line another CPU holds modified is an
 * intervention (cache-to-cache supply) and demotes the owner. */
int dir_read(dir_t *d, uint32_t cpu, uint64_t line, int was_miss)
{
    uint32_t bit = (uint32_t)1 << cpu;
    dir_line_t *e = dir_entry(d, line);
    int coherence = 0;
    if (!e)
        return -1;
    if (was_miss) {
        if (e->stolen & bit) {
            e->stolen &= ~bit;
            d->coherence_misses++;
            coherence = 1;
        }
        if (e->owner >= 0 && (uint32_t)e->owner != cpu) {
            d->interventions++;
            e->owner = -1;
        }
    }
    e->sharers |= bit;
    return coherence;
}

/* A write by `cpu`: the other sharers lose the line (their L2 and L3
 * copies too, when attached).  Returns the coherence-miss flag in bit 0
 * and the invalidated CPUs' mask above it; -1 when the table cannot
 * grow. */
int64_t dir_write(dir_t *d, uint32_t cpu, uint64_t line, int was_miss)
{
    uint32_t bit = (uint32_t)1 << cpu, remote;
    dir_line_t *e = dir_entry(d, line);
    int coherence = 0;
    if (!e)
        return -1;
    if (was_miss && (e->stolen & bit)) {
        e->stolen &= ~bit;
        d->coherence_misses++;
        coherence = 1;
    }
    remote = e->sharers & ~bit;
    if (remote) {
        e->stolen |= remote;
        for (uint32_t other = 0; other < d->processors; ++other) {
            if (!(remote >> other & 1))
                continue;
            d->invalidations++;
            if (d->l2[other]) {
                cache_invalidate(d->l2[other], line);
                cache_invalidate(d->l3[other], line);
            }
        }
    }
    if (e->owner >= 0 && (uint32_t)e->owner != cpu)
        d->interventions++;
    e->sharers = bit;
    e->owner = (int32_t)cpu;
    return (int64_t)remote << 1 | coherence;
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

/* One data reference.  `last_page`/`last_line` carry the walk's hit
 * streak. */
static inline int data_ref(hier_t *h, uint64_t address, int write,
                           int kernel, uint64_t *last_page,
                           uint64_t *last_line)
{
    uint64_t victim;
    cache_t *tlb = h->dtlb, *l2 = h->l2;
    uint64_t page = address >> tlb->line_shift;
    uint64_t line = address >> l2->line_shift;  /* L2 and L3 share it */
    COUNT(h, EV_DATA_REFS, kernel);
    if (page == *last_page) {
        tlb->accesses++;
        tlb->hits++;
    } else {
        *last_page = page;
        if (!(cache_access(tlb, page, 0, &victim) & ACCESS_HIT))
            COUNT(h, EV_TLB_MISSES, kernel);
    }
    if (line == *last_line) {
        l2->accesses++;
        l2->hits++;
        if (write) {
            uint64_t set = line % l2->num_sets;
            l2->dirty[set * l2->ways + l2->fill[set] - 1] = 1;
        }
        return 0;
    }
    *last_line = line;
    if (cache_access(l2, line, write, &victim) & ACCESS_HIT)
        return 0;
    COUNT(h, EV_L2_MISSES, kernel);
    return L2_MISSED | (l3_fill(h, line, write, kernel) ? L3_MISSED : 0);
}

/* A data reference that may be shared: after the probe, a shared one
 * on a CPU with a directory goes through it, and a coherence miss is
 * counted.  Returns the probe's bits, or -1 when the directory cannot
 * grow.  The directory changes only the other CPUs' caches, so it can
 * never change this CPU's walk, hit streak included. */
static inline int shared_ref(hier_t *h, uint64_t address, int write,
                             int kernel, int shared, uint64_t *last_page,
                             uint64_t *last_line)
{
    int missed = data_ref(h, address, write, kernel, last_page, last_line);
    if (shared && h->dir) {
        uint64_t line = address >> h->l2->line_shift;
        int l3_missed = (missed & L3_MISSED) != 0;
        int64_t result = write ? dir_write(h->dir, h->cpu, line, l3_missed)
                               : dir_read(h->dir, h->cpu, line, l3_missed);
        if (result < 0)
            return -1;
        if (result & 1)
            COUNT(h, EV_COHERENCE_MISSES, kernel);
    }
    return missed;
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
    if (tc_line == *last_tc) {
        tc->accesses++;
        tc->hits++;
        return 0;
    }
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

/* -- walks ----------------------------------------------------------- */

/* Walk packed data references (address << 2 | write << 1 | shared);
 * 0, or -1 when the directory cannot grow. */
int walk_data(hier_t *h, const uint64_t *run, size_t n, int kernel)
{
    uint64_t last_page, last_line;
    if (n == 0)
        return 0;
    /* Streak seeds the first reference cannot match. */
    last_page = ~((run[0] >> 2) >> h->dtlb->line_shift);
    last_line = ~((run[0] >> 2) >> h->l2->line_shift);
    kernel = kernel != 0;
    for (size_t k = 0; k < n; ++k) {
        uint64_t code = run[k];
        if (shared_ref(h, code >> 2, (code >> 1) & 1, kernel, code & 1,
                       &last_page, &last_line) < 0)
            return -1;
    }
    return 0;
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

/* Knuth's Poisson count against threshold = exp(-mean); a threshold
 * above 1 stands for a mean <= 0 and draws nothing. */
uint32_t mt_poisson(mt_t *mt, double threshold)
{
    uint32_t count = 0;
    double product;
    if (threshold > 1.0)
        return 0;
    product = rand_u(mt);
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
#define PRIVATE_BASE ((uint64_t)1 << 25)
#define KERNEL_SYNC_BASE ((uint64_t)7 << 26)
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

/* -- the trace transaction loop --------------------------------------- */

/* A kernel burst on `h` (gen_kernel_data's references, then the burst's
 * kernel code); 0, or -1 when the directory cannot grow. */
static int kernel_burst(gen_t *g, hier_t *h, size_t refs, size_t slab_refs,
                        int64_t task_client)
{
    size_t n = gen_kernel_data(g, refs, slab_refs, task_client, g->buffer);
    if (walk_data(h, g->buffer, n, 1) < 0)
        return -1;
    gen_code(g, 1, g->buffer, g->burst_code_refs);
    walk_fetch(h, g->buffer, g->burst_code_refs, 1);
    return 0;
}

/* An address-space switch: the DTLB is flushed. */
static inline void context_switch(hier_t *h)
{
    cache_flush(h->dtlb);
    h->counts[2 * EV_CONTEXT_SWITCHES]++;
}

/* One transaction's reference stream on `cpu` for `client`.  The user
 * work is split into segments separated by I/O waits; each I/O makes a
 * kernel burst and, while switches remain, a context switch.  The
 * switches left over are contention-driven (lock waits): scheduler
 * work, the incoming process's task state, and the contended wait-queue
 * lines, written from whichever CPU blocks.  Each segment is filled
 * into the buffer and walked in place.  0, or -1 when the directory
 * cannot grow. */
int trace_transaction(gen_t *g, uint32_t cpu, uint32_t client)
{
    mt_t *mt = &g->mt;
    hier_t *h = g->cpus[cpu];
    uint64_t *buffer = g->buffer;
    uint64_t private_base = PRIVATE_BASE
                            + (uint64_t)client * g->private_lines * 2 * LINE;
    uint32_t user_left = g->user_refs, code_left = g->code_refs;
    uint32_t branches_left = g->branches;
    uint32_t reads, switches, segments;
    g->recent_len = 0;
    reads = mt_poisson(mt, g->reads_threshold);
    switches = mt_poisson(mt, g->switches_threshold);
    segments = reads + 1;
    for (uint32_t segment = 0; segment < segments; ++segment) {
        uint32_t left = segments - segment;
        uint32_t share = user_left / left, code_share = code_left / left;
        uint32_t branch_share = branches_left / left;
        gen_user_data(g, private_base, buffer, share);
        if (walk_data(h, buffer, share, 0) < 0)
            return -1;
        gen_code(g, 0, buffer, code_share);
        walk_fetch(h, buffer, code_share, 0);
        gen_branches(g, buffer, branch_share);
        walk_branch(h, buffer, branch_share, 0);
        user_left -= share;
        code_left -= code_share;
        branches_left -= branch_share;
        if (segment < reads) {
            uint32_t next_client = rand_below(mt, g->clients);
            if (kernel_burst(g, h, g->io_refs, g->io_slab_refs,
                             switches ? (int64_t)next_client : -1) < 0)
                return -1;
            if (switches) {
                context_switch(h);
                switches--;
            }
        }
    }
    if (kernel_burst(g, h, g->base_refs, 0, -1) < 0)
        return -1;
    for (; switches; --switches) {
        if (kernel_burst(g, h, g->cs_refs, 0, rand_below(mt, g->clients)) < 0)
            return -1;
        for (uint32_t k = 0; k < g->sync_refs_per_cs; ++k) {
            uint64_t address = KERNEL_SYNC_BASE
                               + (uint64_t)rand_below(mt, g->sync_lines) * LINE;
            buffer[k] = (address << 2) | write_bit(g, 0.5) | 1;
        }
        if (walk_data(h, buffer, g->sync_refs_per_cs, 1) < 0)
            return -1;
        context_switch(h);
    }
    return 0;
}

/* `transactions` transactions round-robin over the clients, each client
 * on its home CPU (client % processors). */
int trace_run(gen_t *g, uint64_t transactions)
{
    for (uint64_t index = 0; index < transactions; ++index) {
        uint32_t client = (uint32_t)(index % g->clients);
        if (trace_transaction(g, client % g->processors, client) < 0)
            return -1;
    }
    return 0;
}

/* -- the SGA buffer cache ---------------------------------------------- */

/* repro.db.buffer_cache: one exact LRU over block units with dirty
 * bits.  Slots 1..used hold the resident blocks; slot 0 is the
 * sentinel of the circular recency list, so next[0] is the least
 * recently used slot and prev[0] the most.  `table` maps a block to
 * its slot by open addressing (linear probing, 0 = empty, at most half
 * full); a removal shifts the rest of its probe run back instead of
 * leaving a tombstone.  A miss at capacity reuses the victim's slot, so
 * slots never free up and the arrays grow with the resident units, not
 * with the capacity. */

#define LRU_MIN_SLOTS 64
#define LRU_MAX_SLOTS 0xFFFFFFFEU

static inline uint64_t lru_home(const lru_t *c, uint64_t id)
{
    return (id * 0x9E3779B97F4A7C15ULL) >> (64 - c->table_bits);
}

/* Table index holding `id`, or the empty entry ending its probe run. */
static inline uint64_t lru_probe(const lru_t *c, uint64_t id)
{
    uint64_t mask = ((uint64_t)1 << c->table_bits) - 1;
    uint64_t i = lru_home(c, id);
    while (c->table[i] && c->ids[c->table[i]] != id)
        i = (i + 1) & mask;
    return i;
}

static inline void lru_unlink(lru_t *c, uint32_t s)
{
    c->next[c->prev[s]] = c->next[s];
    c->prev[c->next[s]] = c->prev[s];
}

static inline void lru_push_mru(lru_t *c, uint32_t s)
{
    uint32_t last = c->prev[0];
    c->next[last] = s;
    c->prev[s] = last;
    c->next[s] = 0;
    c->prev[0] = s;
}

/* A reference to resident slot `s`: most recent now, dirty if written. */
static inline void lru_hit(lru_t *c, uint32_t s, int write)
{
    if (c->prev[0] != s) {
        lru_unlink(c, s);
        lru_push_mru(c, s);
    }
    c->dirty[s] |= write != 0;
}

/* Empty table entry `i`, moving back every later entry of its probe run
 * whose home does not lie cyclically in (i, j]. */
static void lru_table_remove(lru_t *c, uint64_t i)
{
    uint64_t mask = ((uint64_t)1 << c->table_bits) - 1;
    uint64_t j = i;
    for (;;) {
        uint64_t home;
        j = (j + 1) & mask;
        if (!c->table[j])
            break;
        home = lru_home(c, c->ids[c->table[j]]);
        if (i < j ? (home <= i || home > j) : (home <= i && home > j)) {
            c->table[i] = c->table[j];
            i = j;
        }
    }
    c->table[i] = 0;
}

static void lru_rehash(lru_t *c)
{
    memset(c->table, 0, ((size_t)1 << c->table_bits) * sizeof *c->table);
    for (uint32_t s = 1; s <= c->used; ++s)
        c->table[lru_probe(c, c->ids[s])] = s;
}

/* Grow to room for `slots` resident blocks, with a table at most half
 * full; 0 on allocation failure, with the contents intact. */
static int lru_reserve(lru_t *c, uint32_t slots)
{
    size_t n = (size_t)slots + 1;
    uint32_t bits = c->table_bits;
    void *grown;
    if (slots <= c->slots)
        return 1;
    if (!(grown = realloc(c->ids, n * sizeof *c->ids)))
        return 0;
    c->ids = grown;
    if (!(grown = realloc(c->prev, n * sizeof *c->prev)))
        return 0;
    c->prev = grown;
    if (!(grown = realloc(c->next, n * sizeof *c->next)))
        return 0;
    c->next = grown;
    if (!(grown = realloc(c->dirty, n)))
        return 0;
    c->dirty = grown;
    while (((uint64_t)1 << bits) < 2 * (uint64_t)n)
        bits++;
    if (bits != c->table_bits) {
        uint32_t *table = malloc(((size_t)1 << bits) * sizeof *table);
        if (!table)
            return 0;
        free(c->table);
        c->table = table;
        c->table_bits = bits;
        lru_rehash(c);
    }
    c->slots = slots;
    return 1;
}

lru_t *lru_new(uint64_t capacity)
{
    lru_t *c = calloc(1, sizeof *c);
    if (!c)
        return NULL;
    c->capacity = capacity;
    c->table_bits = 1;
    c->ids = calloc(1, sizeof *c->ids);
    c->prev = calloc(1, sizeof *c->prev);
    c->next = calloc(1, sizeof *c->next);
    c->dirty = calloc(1, 1);
    c->table = calloc(2, sizeof *c->table);
    if (!c->ids || !c->prev || !c->next || !c->dirty || !c->table) {
        lru_free(c);
        return NULL;
    }
    return c;
}

void lru_free(lru_t *c)
{
    if (!c)
        return;
    free(c->ids);
    free(c->prev);
    free(c->next);
    free(c->dirty);
    free(c->table);
    free(c);
}

_Bool lru_lookup(lru_t *c, uint64_t id, int write)
{
    uint32_t s = c->table[lru_probe(c, id)];
    if (!s) {
        c->misses++;
        return 0;
    }
    lru_hit(c, s, write);
    c->hits++;
    return 1;
}

int lru_install(lru_t *c, uint64_t id, int dirty, uint64_t *victim)
{
    uint64_t i = lru_probe(c, id);
    uint32_t s = c->table[i];
    int result = 0;
    if (s) {
        lru_hit(c, s, dirty);
        return 0;
    }
    if (c->used >= c->capacity) {
        s = c->next[0];
        *victim = c->ids[s];
        result = LRU_EVICTED;
        if (c->dirty[s]) {
            result |= LRU_DIRTY;
            c->dirty_evictions++;
        } else {
            c->clean_evictions++;
        }
        lru_table_remove(c, lru_probe(c, c->ids[s]));
        lru_unlink(c, s);
        i = lru_probe(c, id);
    } else {
        if (c->used == c->slots) {
            uint64_t slots = 2 * (uint64_t)c->slots;
            uint32_t bits = c->table_bits;
            if (slots < LRU_MIN_SLOTS)
                slots = LRU_MIN_SLOTS;
            if (slots > c->capacity)
                slots = c->capacity;
            if (slots > LRU_MAX_SLOTS)
                slots = LRU_MAX_SLOTS;
            if (slots <= c->slots || !lru_reserve(c, (uint32_t)slots))
                return -1;
            if (c->table_bits != bits)
                i = lru_probe(c, id);
        }
        s = ++c->used;
    }
    c->ids[s] = id;
    c->dirty[s] = dirty != 0;
    c->table[i] = s;
    lru_push_mru(c, s);
    return result;
}

int lru_replay(lru_t *c, const uint64_t *codes, size_t n)
{
    uint64_t victim;
    for (size_t k = 0; k < n; ++k) {
        uint64_t id = codes[k] >> 1;
        int write = (int)(codes[k] & 1);
        if (!lru_lookup(c, id, write) && lru_install(c, id, write, &victim) < 0)
            return -1;
    }
    return 0;
}

_Bool lru_contains(const lru_t *c, uint64_t id)
{
    return c->table[lru_probe(c, id)] != 0;
}

_Bool lru_clean(lru_t *c, uint64_t id)
{
    uint32_t s = c->table[lru_probe(c, id)];
    if (!s)
        return 0;
    c->dirty[s] = 0;
    return 1;
}

size_t lru_oldest_dirty(const lru_t *c, size_t limit, uint64_t *out)
{
    size_t n = 0;
    for (uint32_t s = c->next[0]; s && n < limit; s = c->next[s])
        if (c->dirty[s])
            out[n++] = c->ids[s];
    return n;
}

size_t lru_snapshot(const lru_t *c, uint64_t *ids, _Bool *dirty)
{
    size_t n = 0;
    for (uint32_t s = c->next[0]; s; s = c->next[s]) {
        ids[n] = c->ids[s];
        dirty[n++] = c->dirty[s];
    }
    return n;
}

int lru_load(lru_t *c, const uint64_t *ids, const _Bool *dirty, size_t n)
{
    if (n > c->capacity || n > LRU_MAX_SLOTS || !lru_reserve(c, (uint32_t)n))
        return -1;
    memset(c->table, 0, ((size_t)1 << c->table_bits) * sizeof *c->table);
    c->next[0] = c->prev[0] = 0;
    for (uint32_t s = 1; s <= n; ++s) {
        c->ids[s] = ids[s - 1];
        c->dirty[s] = dirty[s - 1];
        c->table[lru_probe(c, c->ids[s])] = s;
        lru_push_mru(c, s);
    }
    c->used = (uint32_t)n;
    c->hits = c->misses = c->dirty_evictions = c->clean_evictions = 0;
    return 0;
}

int lru_copy(lru_t *dst, const lru_t *src)
{
    size_t n = (size_t)src->used + 1;
    if (src->used > dst->capacity || !lru_reserve(dst, src->slots))
        return -1;
    memcpy(dst->ids, src->ids, n * sizeof *dst->ids);
    memcpy(dst->prev, src->prev, n * sizeof *dst->prev);
    memcpy(dst->next, src->next, n * sizeof *dst->next);
    memcpy(dst->dirty, src->dirty, n);
    dst->used = src->used;
    if (dst->table_bits == src->table_bits)
        memcpy(dst->table, src->table,
               ((size_t)1 << src->table_bits) * sizeof *dst->table);
    else
        lru_rehash(dst);
    dst->hits = dst->misses = dst->dirty_evictions = dst->clean_evictions = 0;
    return 0;
}

/* repro.odb.popularity.steady_state_fill into an empty cache: row r
 * installs copies[r] units stride apart from bases[r], in order, each
 * dirty when its draw from `mt` falls below dirty_probs[r].  The units
 * are distinct and fit, so every install is a miss that appends to the
 * recent end.  The counters end zeroed; -1 when the cache is not empty,
 * the units do not fit, or it cannot grow. */
int lru_fill(lru_t *c, mt_t *mt, const uint64_t *bases,
             const uint64_t *copies, const double *dirty_probs, size_t rows,
             uint64_t stride)
{
    uint64_t total = 0, victim;
    for (size_t r = 0; r < rows; ++r)
        total += copies[r];
    if (c->used || total > c->capacity || total > LRU_MAX_SLOTS
        || !lru_reserve(c, (uint32_t)total))
        return -1;
    for (size_t r = 0; r < rows; ++r)
        for (uint64_t k = 0; k < copies[r]; ++k)
            if (lru_install(c, bases[r] + k * stride,
                            rand_u(mt) < dirty_probs[r], &victim) < 0)
                return -1;
    c->hits = c->misses = c->dirty_evictions = c->clean_evictions = 0;
    return 0;
}
