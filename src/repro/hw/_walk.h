/* Declarations of the compiled kernel (_walk.c): the cache walk and
 * the exact samplers.
 *
 * This file is also the cffi cdef, so it holds only plain declarations:
 * no preprocessor lines, and array sizes written as literals.
 */

/* One set-associative LRU cache (a TLB is a cache of page numbers).
 * Set s owns slots [s * ways, s * ways + fill[s]); slot order is LRU
 * order, least recent first. */
typedef struct {
    uint64_t *tags;
    uint8_t *dirty;
    uint32_t *fill;
    uint64_t num_sets;
    uint32_t ways;
    uint32_t line_shift;
    uint64_t accesses, hits, misses, evictions, writebacks, invalidations;
} cache_t;

/* Bimodal predictor: 2-bit saturating counters indexed by pc % size. */
typedef struct {
    uint8_t *table;
    uint64_t size;
    uint64_t predictions, mispredictions;
} predictor_t;

/* Table 2 events, in HierarchyCounts field order. */
enum {
    EV_DATA_REFS, EV_CODE_REFS, EV_BRANCHES, EV_MISPREDICTS,
    EV_TLB_MISSES, EV_TC_MISSES, EV_L2_MISSES, EV_L3_MISSES,
    EV_L3_WRITEBACKS, EV_COHERENCE_MISSES, EV_CONTEXT_SWITCHES
};

/* One CPU's private stack.  counts[2 * event + kernel] holds the split
 * counts; counts[2 * EV_CONTEXT_SWITCHES] the context switches. */
typedef struct {
    cache_t *dtlb, *tc, *l2, *l3;
    predictor_t *predictor;
    uint64_t counts[21];
} hier_t;

/* cache_access result bits. */
enum { ACCESS_HIT = 1, ACCESS_EVICTED = 2, ACCESS_WRITEBACK = 4 };
/* hier_data result bits. */
enum { L2_MISSED = 1, L3_MISSED = 2 };

int cache_access(cache_t *c, uint64_t line, int write, uint64_t *victim);
int cache_contains(const cache_t *c, uint64_t line);
int cache_invalidate(cache_t *c, uint64_t line);
uint64_t cache_resident(const cache_t *c);
uint64_t cache_flush(cache_t *c);

int predict(predictor_t *p, uint64_t pc, int taken);
void predictor_flush(predictor_t *p);

int hier_data(hier_t *h, uint64_t address, int write, int kernel);
int hier_fetch(hier_t *h, uint64_t address, int kernel);
int hier_branch(hier_t *h, uint64_t pc, int taken, int kernel);

size_t walk_data(hier_t *h, uint64_t *run, size_t n, int kernel,
                 int record_shared);
void walk_fetch(hier_t *h, const uint64_t *run, size_t n, int kernel);
void walk_branch(hier_t *h, const uint64_t *run, size_t n, int kernel);

/* -- exact sampling ---------------------------------------------------- */

/* CPython's Mersenne Twister: the 624 state words and the read index,
 * exactly the 625 integers of random.Random.getstate()[1]. */
typedef struct {
    uint32_t state[624];
    uint32_t index;
} mt_t;

double mt_random(mt_t *mt);
uint32_t mt_getrandbits(mt_t *mt, int k);
uint32_t mt_randbelow(mt_t *mt, uint32_t n);
uint32_t mt_poisson(mt_t *mt, double threshold);

/* One touch spec of a transaction type, resolved against the block
 * space (repro.odb.transactions._SegmentSampler): the unit index is
 * bisect(cdf, u), taken mod `modulus` when that is nonzero, and the
 * block is offset + stride * warehouse + index. */
typedef struct {
    const double *cdf;
    uint32_t cdf_len;
    uint32_t count;
    uint64_t modulus, stride, offset;
    double write_prob;
} touch_t;

size_t sample_plans(mt_t *mt, const double *mix_cdf, uint32_t types,
                    const uint32_t *first, const touch_t *touches,
                    uint32_t warehouses, double remote_prob,
                    uint32_t plans, uint64_t *out);

/* Zipf CDFs of the trace stream, in gen_t.cdf order. */
enum {
    CDF_HOT, CDF_WARM, CDF_PRIVATE, CDF_KERNEL, CDF_USER_CODE,
    CDF_KERNEL_CODE, CDF_HOT_BLOCK
};

/* The synthetic reference stream's sampler (repro.hw.trace). */
typedef struct {
    mt_t mt;
    const double *cdf[7];
    uint32_t cdf_len[7];
    double p_hot, p_hot_warm, p_hot_warm_block;
    double hot_write_prob, warm_write_prob, block_write_prob;
    double private_write_prob, revisit_prob, hot_block_prob;
    uint32_t warehouses, hot_blocks_per_wh, cold_blocks_per_wh;
    uint32_t lines_per_block, slab_pool_lines, task_lines_per_client;
    uint32_t task_refs_per_cs;
    uint64_t slab_seq;
    uint64_t recent[24];
    uint32_t recent_len;
} gen_t;

void gen_user_data(gen_t *g, uint64_t private_base, uint64_t *run,
                   size_t n);
void gen_code(gen_t *g, int kernel, uint64_t *run, size_t n);
void gen_branches(gen_t *g, uint64_t *run, size_t n);
size_t gen_kernel_data(gen_t *g, size_t refs, size_t slab_refs,
                       int64_t task_client, uint64_t *run);
