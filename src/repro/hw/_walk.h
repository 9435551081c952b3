/* Declarations of the compiled kernel (_walk.c): the cache walk and the
 * coherence directory, the exact samplers and the trace transaction
 * loop, and the buffer-cache LRU.
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

/* One line of the coherence directory: the CPUs holding it, the CPUs
 * that lost it to a remote write since they last held it, and the CPU
 * holding it modified (-1 for none).  `used` marks a taken entry. */
typedef struct {
    uint64_t line;
    uint32_t sharers, stolen;
    int32_t owner;
    uint32_t used;
} dir_line_t;

/* The write-invalidate directory over at most 32 CPUs
 * (repro.hw.coherence): an open-addressing table of 2^table_bits lines,
 * at most half full.  l2[cpu]/l3[cpu], when set, are the caches a
 * remote write invalidates. */
typedef struct {
    dir_line_t *table;
    uint32_t table_bits, processors;
    uint64_t lines;
    cache_t *l2[32];
    cache_t *l3[32];
    uint64_t invalidations, interventions, coherence_misses;
} dir_t;

/* One CPU's private stack.  counts[2 * event + kernel] holds the split
 * counts; counts[2 * EV_CONTEXT_SWITCHES] the context switches.  With a
 * directory (dir), shared data references are this CPU's (cpu) traffic
 * on it. */
typedef struct {
    cache_t *dtlb, *tc, *l2, *l3;
    predictor_t *predictor;
    uint64_t counts[21];
    dir_t *dir;
    uint32_t cpu;
} hier_t;

/* cache_access result bits. */
enum { ACCESS_HIT = 1, ACCESS_EVICTED = 2, ACCESS_WRITEBACK = 4 };
/* data_ref result bits. */
enum { L2_MISSED = 1, L3_MISSED = 2 };

int cache_access(cache_t *c, uint64_t line, int write, uint64_t *victim);
int cache_invalidate(cache_t *c, uint64_t line);
uint64_t cache_flush(cache_t *c);

int predict(predictor_t *p, uint64_t pc, int taken);
void predictor_flush(predictor_t *p);

dir_t *dir_new(uint32_t processors);
void dir_free(dir_t *d);
int dir_read(dir_t *d, uint32_t cpu, uint64_t line, int was_miss);
int64_t dir_write(dir_t *d, uint32_t cpu, uint64_t line, int was_miss);

int walk_data(hier_t *h, const uint64_t *run, size_t n, int kernel);
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

/* The synthetic reference stream (repro.hw.trace): its sampler, and
 * the transaction loop that walks it through `cpus`, one run at a time
 * in `buffer`.  The thresholds are mt_poisson's. */
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
    hier_t **cpus;
    uint64_t *buffer;
    uint32_t processors, clients, private_lines;
    double reads_threshold, switches_threshold;
    uint32_t user_refs, code_refs, branches;
    uint32_t io_refs, io_slab_refs, base_refs, cs_refs, burst_code_refs;
    uint32_t sync_lines, sync_refs_per_cs;
} gen_t;

void gen_user_data(gen_t *g, uint64_t private_base, uint64_t *run,
                   size_t n);
void gen_code(gen_t *g, int kernel, uint64_t *run, size_t n);
void gen_branches(gen_t *g, uint64_t *run, size_t n);
size_t gen_kernel_data(gen_t *g, size_t refs, size_t slab_refs,
                       int64_t task_client, uint64_t *run);
int trace_transaction(gen_t *g, uint32_t cpu, uint32_t client);
int trace_run(gen_t *g, uint64_t transactions);

/* -- the SGA buffer cache ---------------------------------------------- */

/* One exact LRU of block units with dirty bits (repro.db.buffer_cache).
 * Slot 0 is the recency list's sentinel; slots 1..used hold blocks, in
 * arrays of slots + 1 entries; table has 2^table_bits entries. */
typedef struct {
    uint64_t *ids;
    uint32_t *prev, *next;
    uint8_t *dirty;
    uint32_t *table;
    uint64_t capacity;
    uint32_t used, slots, table_bits;
    uint64_t hits, misses, dirty_evictions, clean_evictions;
} lru_t;

/* lru_install result bits. */
enum { LRU_EVICTED = 1, LRU_DIRTY = 2 };

lru_t *lru_new(uint64_t capacity);
void lru_free(lru_t *c);
_Bool lru_lookup(lru_t *c, uint64_t id, int write);
int lru_install(lru_t *c, uint64_t id, int dirty, uint64_t *victim);
int lru_replay(lru_t *c, const uint64_t *codes, size_t n);
_Bool lru_contains(const lru_t *c, uint64_t id);
_Bool lru_clean(lru_t *c, uint64_t id);
size_t lru_oldest_dirty(const lru_t *c, size_t limit, uint64_t *out);
size_t lru_snapshot(const lru_t *c, uint64_t *ids, _Bool *dirty);
int lru_load(lru_t *c, const uint64_t *ids, const _Bool *dirty, size_t n);
int lru_copy(lru_t *dst, const lru_t *src);
int lru_fill(lru_t *c, mt_t *mt, const uint64_t *bases,
             const uint64_t *copies, const double *dirty_probs, size_t rows,
             uint64_t stride);
