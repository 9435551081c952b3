/* Declarations of the compiled cache-walk kernel (_walk.c).
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
