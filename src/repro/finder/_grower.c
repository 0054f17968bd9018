/*
 * Native Phase I grower: the C port of repro.finder.kernel.ArrayOrderingGrower.
 *
 * Built on first use by repro.finder.native and bound with ctypes.  The
 * static tables (cell/net CSR, net degrees, per-cell multi-pin degree and
 * the pin-update CSR) are int64 buffers owned by the caller; the grower
 * owns only its flat state and its heap.
 *
 * Bit-identical to the Python kernel by construction:
 *   - heap entries are (neg_weight, cut_delta, packed) compared
 *     lexicographically, where packed = counter << cell_bits | cell.  The
 *     push counter makes every key unique, so any correct min-heap pops
 *     in heapq's exact order;
 *   - pins are updated in CSR slice order with the same float expressions,
 *     so every weight is the same double.  Build with -ffp-contract=off and
 *     never with -ffast-math;
 *   - compaction keeps exactly the live entries and fires on the same
 *     trigger, so the push and compaction counts repeat too.
 */
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double neg_weight;
    int64_t cut_delta;
    uint64_t packed;
} entry_t;

typedef struct {
    /* Static tables, borrowed from the caller. */
    const int64_t *cell_ptr, *cell_nets, *net_degrees, *degree2;
    const int64_t *update_ptr, *update_flat;
    int64_t lambda_skip;
    unsigned cell_bits;
    uint64_t cell_mask;
    /* Private state. */
    double *weight;
    int64_t *cutstate;
    int64_t *inside_count; /* per net: pins inside the group */
    unsigned char *in_group;
    int64_t *ordering;
    int64_t length;
    int64_t frontier_count;
    uint64_t counter; /* pre-shifted by cell_bits */
    int64_t compactions;
    entry_t *heap;
    int64_t heap_len, heap_cap;
} grower_t;

static int entry_less(const entry_t *a, const entry_t *b) {
    if (a->neg_weight != b->neg_weight) return a->neg_weight < b->neg_weight;
    if (a->cut_delta != b->cut_delta) return a->cut_delta < b->cut_delta;
    return a->packed < b->packed;
}

static void sift_down(entry_t *heap, int64_t len, int64_t pos, entry_t item) {
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= len) break;
        if (child + 1 < len && entry_less(&heap[child + 1], &heap[child])) child++;
        if (!entry_less(&heap[child], &item)) break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

static int heap_push(grower_t *g, double neg_weight, int64_t cut_delta, uint64_t packed) {
    if (g->heap_len == g->heap_cap) {
        int64_t cap = g->heap_cap * 2;
        entry_t *grown = realloc(g->heap, (size_t)cap * sizeof(entry_t));
        if (grown == NULL) return -1;
        g->heap = grown;
        g->heap_cap = cap;
    }
    entry_t item = {neg_weight, cut_delta, packed};
    int64_t pos = g->heap_len++;
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (!entry_less(&item, &g->heap[parent])) break;
        g->heap[pos] = g->heap[parent];
        pos = parent;
    }
    g->heap[pos] = item;
    return 0;
}

static entry_t heap_pop(grower_t *g) {
    entry_t top = g->heap[0];
    g->heap_len--;
    if (g->heap_len > 0) sift_down(g->heap, g->heap_len, 0, g->heap[g->heap_len]);
    return top;
}

/* Live iff still outside the group and its recorded weight is current
 * (weights strictly increase, so stale entries record a smaller one). */
static int entry_live(const grower_t *g, const entry_t *e, int64_t cell) {
    return !g->in_group[cell] && -e->neg_weight == g->weight[cell];
}

static void compact(grower_t *g) {
    int64_t kept = 0;
    for (int64_t i = 0; i < g->heap_len; i++) {
        int64_t cell = (int64_t)(g->heap[i].packed & g->cell_mask);
        if (entry_live(g, &g->heap[i], cell)) g->heap[kept++] = g->heap[i];
    }
    g->heap_len = kept;
    for (int64_t pos = kept / 2 - 1; pos >= 0; pos--)
        sift_down(g->heap, kept, pos, g->heap[pos]);
    g->compactions++;
}

/* ArrayOrderingGrower._absorb: the same pin order and float expressions.
 * Its two re-touch loops are one here; a cut increment of 0 leaves the
 * cut state as the Python loop without the update does. */
static int absorb(grower_t *g, int64_t cell) {
    double *weight = g->weight;
    int64_t *cutstate = g->cutstate;
    const unsigned char *in_group = g->in_group;
    const uint64_t counter_step = (uint64_t)1 << g->cell_bits;

    g->in_group[cell] = 1;
    if (weight[cell] != 0.0) g->frontier_count--;
    g->ordering[g->length++] = cell;

    for (int64_t k = g->cell_ptr[cell]; k < g->cell_ptr[cell + 1]; k++) {
        int64_t net = g->cell_nets[k];
        int64_t old_inside = g->inside_count[net];
        int64_t new_inside = old_inside + 1;
        g->inside_count[net] = new_inside;
        int64_t degree = g->net_degrees[net];
        int64_t outside = degree - new_inside;
        if (outside == 0) continue;

        int first_touch = old_inside == 0;
        if (!first_touch && g->lambda_skip && outside >= g->lambda_skip) continue;

        const int64_t *pin = g->update_flat + g->update_ptr[net];
        const int64_t *end = g->update_flat + g->update_ptr[net + 1];
        if (first_touch) {
            double delta = 1.0 / (double)(outside + 1);
            int64_t cut_increment = outside == 1 ? 2 : 1;
            for (; pin < end; pin++) {
                int64_t other = *pin;
                if (in_group[other]) continue;
                double old_weight = weight[other];
                if (old_weight == 0.0) g->frontier_count++;
                double new_weight = old_weight + delta;
                weight[other] = new_weight;
                int64_t state = cutstate[other] + cut_increment;
                cutstate[other] = state;
                g->counter += counter_step;
                if (heap_push(g, -new_weight, g->degree2[other] - state,
                              g->counter | (uint64_t)other))
                    return -1;
            }
        } else {
            double delta = 1.0 / (double)(outside + 1)
                           - 1.0 / (double)(degree - old_inside + 1);
            int64_t cut_increment = outside == 1 ? 1 : 0;
            for (; pin < end; pin++) {
                int64_t other = *pin;
                if (in_group[other]) continue;
                double new_weight = weight[other] + delta;
                weight[other] = new_weight;
                int64_t state = cutstate[other] + cut_increment;
                cutstate[other] = state;
                g->counter += counter_step;
                if (heap_push(g, -new_weight, g->degree2[other] - state,
                              g->counter | (uint64_t)other))
                    return -1;
            }
        }
    }
    return 0;
}

void grower_free(grower_t *g) {
    if (g == NULL) return;
    free(g->weight);
    free(g->cutstate);
    free(g->inside_count);
    free(g->in_group);
    free(g->ordering);
    free(g->heap);
    free(g);
}

/* A grower with ``seed`` absorbed, or NULL when memory runs out. */
grower_t *grower_new(const int64_t *cell_ptr, const int64_t *cell_nets,
                     const int64_t *net_degrees, const int64_t *degree2,
                     const int64_t *update_ptr, const int64_t *update_flat,
                     int64_t num_cells, int64_t num_nets, int64_t lambda_skip,
                     int64_t cell_bits, int64_t seed) {
    grower_t *g = calloc(1, sizeof(grower_t));
    if (g == NULL) return NULL;
    g->cell_ptr = cell_ptr;
    g->cell_nets = cell_nets;
    g->net_degrees = net_degrees;
    g->degree2 = degree2;
    g->update_ptr = update_ptr;
    g->update_flat = update_flat;
    g->lambda_skip = lambda_skip;
    g->cell_bits = (unsigned)cell_bits;
    g->cell_mask = ((uint64_t)1 << cell_bits) - 1;
    g->weight = calloc((size_t)num_cells, sizeof(double));
    g->cutstate = calloc((size_t)num_cells, sizeof(int64_t));
    g->inside_count = calloc((size_t)(num_nets > 0 ? num_nets : 1), sizeof(int64_t));
    g->in_group = calloc((size_t)num_cells, 1);
    g->ordering = malloc((size_t)num_cells * sizeof(int64_t));
    g->heap_cap = 1024;
    g->heap = malloc((size_t)g->heap_cap * sizeof(entry_t));
    if (g->weight == NULL || g->cutstate == NULL || g->inside_count == NULL
        || g->in_group == NULL || g->ordering == NULL || g->heap == NULL
        || absorb(g, seed)) {
        grower_free(g);
        return NULL;
    }
    return g;
}

/* The absorbed cell; -1 when the frontier is empty; -2 when out of memory. */
int64_t grower_step(grower_t *g) {
    while (g->heap_len > 0) {
        entry_t top = heap_pop(g);
        int64_t cell = (int64_t)(top.packed & g->cell_mask);
        if (!entry_live(g, &top, cell)) continue;
        return absorb(g, cell) ? -2 : cell;
    }
    return -1;
}

/* Grow until ``max_length`` cells or an empty frontier; -2 when out of memory. */
int64_t grower_grow(grower_t *g, int64_t max_length) {
    while (g->length < max_length && g->heap_len > 0) {
        entry_t top = heap_pop(g);
        int64_t cell = (int64_t)(top.packed & g->cell_mask);
        if (!entry_live(g, &top, cell)) continue;
        if (absorb(g, cell)) return -2;
        if (g->heap_len > 8192 && g->heap_len > 4 * g->frontier_count) compact(g);
    }
    return 0;
}

const int64_t *grower_ordering(const grower_t *g) { return g->ordering; }
int64_t grower_length(const grower_t *g) { return g->length; }
int64_t grower_frontier_size(const grower_t *g) { return g->frontier_count; }
int64_t grower_heap_pushes(const grower_t *g) { return (int64_t)(g->counter >> g->cell_bits); }
int64_t grower_compactions(const grower_t *g) { return g->compactions; }

double grower_connection_weight(const grower_t *g, int64_t cell) {
    return g->in_group[cell] ? 0.0 : g->weight[cell];
}

int64_t grower_cut_delta(const grower_t *g, int64_t cell) {
    return g->degree2[cell] - (g->in_group[cell] ? 0 : g->cutstate[cell]);
}
