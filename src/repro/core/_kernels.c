/* Native kernels: the vectorized inner iteration and graph construction.
 *
 * repro.core.native compiles this file with the system C compiler on first
 * use and calls it through ctypes.  The numpy kernels are the reference and
 * every kernel here reproduces them bit for bit:
 *
 *   - label_ids numbers int64 keys in first-arrival order, the order a
 *     dict assigns them; sorting the distinct keys and label_remap give
 *     np.unique(keys, return_inverse=True);
 *   - neighbour_scan yields the internal-weight sums of
 *     repro.core.sweep_kernel.internal_weight and the per-row
 *     neighbour-community sums of aggregate_neighbor_communities;
 *   - pair_gains makes the decisions of NumpyLevelKernels.gains from
 *     those sums; it is the one gain pass of every Jacobi sweep in the
 *     package, the distributed vectorized sweep and the shared-memory
 *     baseline alike;
 *   - pair_sort, run_sums and symmetric_fill build CSRs in linear time:
 *     pair_sort is a stable argsort by (a, b) that also yields the indptr
 *     of a, run_sums merges equal pairs as np.add.at does, and
 *     symmetric_fill lays out both directions of deduplicated undirected
 *     edges.  repro.graph.csr.build_symmetric_csr,
 *     repro.partition.distgraph.build_local_graphs and
 *     repro.core.merging.merge_level run on them.
 *
 * The float kernels therefore
 *
 *   - sum every float in CSR entry order, starting from 0.0, as
 *     np.bincount does;
 *   - evaluate each expression with the operand order of the numpy code
 *     (a - b * c * d / e is ((b * c) * d) / e subtracted from a);
 *   - must be compiled with -ffp-contract=off and without fast-math, so
 *     that no multiply-add is fused and no operation is reordered.
 *
 * Every array is C-contiguous with the dtype its type names; the loader
 * checks them.  Nothing is allocated here: the caller passes the outputs
 * and the scratch arrays.
 */

#include <stdint.h>

enum { GREEDY = 0, MINLABEL = 1, ENHANCED = 2 };

/* murmur3's 64-bit finaliser: every key bit reaches the low bits, so keys
 * that are multiples of the table size spread like any others. */
static inline uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/* Open-addressing (linear probing) int64 label hash.
 *
 * slots holds cap (key, id) pairs, cap a power of two above n, so a probe
 * always meets an empty slot (id -1).  Each of the n keys gets the id of its
 * first occurrence in arrival order: ids[i] is keys[i]'s id and uniq[id]
 * the id's key.  Returns the number k of distinct keys. */
int64_t label_ids(
    int64_t n,
    const int64_t *keys,
    int64_t cap,
    int64_t *slots,
    int64_t *ids,
    int64_t *uniq)
{
    uint64_t mask = (uint64_t)cap - 1;
    for (int64_t s = 0; s < cap; s++)
        slots[2 * s + 1] = -1;
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t key = keys[i];
        uint64_t s = mix((uint64_t)key) & mask;
        for (;;) {
            int64_t id = slots[2 * s + 1];
            if (id < 0) {
                slots[2 * s] = key;
                slots[2 * s + 1] = k;
                uniq[k] = key;
                ids[i] = k++;
                break;
            }
            if (slots[2 * s] == key) {
                ids[i] = id;
                break;
            }
            s = (s + 1) & mask;
        }
    }
    return k;
}

/* The id of every query in a table that label_ids filled, -1 for a key it
 * does not hold.  Returns the position of the first missing query, or -1
 * if every query was found. */
int64_t label_find(
    int64_t n,
    const int64_t *queries,
    int64_t cap,
    const int64_t *slots,
    int64_t *pos)
{
    uint64_t mask = (uint64_t)cap - 1;
    int64_t first_missing = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t key = queries[i];
        uint64_t s = mix((uint64_t)key) & mask;
        int64_t id;
        for (;;) {
            id = slots[2 * s + 1];
            if (id < 0 || slots[2 * s] == key)
                break;
            s = (s + 1) & mask;
        }
        pos[i] = id;
        if (id < 0 && first_missing < 0)
            first_missing = i;
    }
    return first_missing;
}

/* The compact index, in label order, of the n keys that label_ids just
 * numbered into slots and ids: sorted_labels holds the k distinct keys in
 * ascending order, and cidx[i] becomes the position of keys[i] in it.  One
 * probe per distinct key finds its first-arrival id.  Scratch: rank (k
 * entries). */
void label_remap(
    int64_t n,
    const int64_t *ids,
    int64_t k,
    const int64_t *sorted_labels,
    int64_t cap,
    const int64_t *slots,
    int64_t *rank,
    int64_t *cidx)
{
    uint64_t mask = (uint64_t)cap - 1;
    for (int64_t j = 0; j < k; j++) {
        int64_t key = sorted_labels[j];
        uint64_t s = mix((uint64_t)key) & mask;
        while (slots[2 * s] != key || slots[2 * s + 1] < 0)
            s = (s + 1) & mask;
        rank[slots[2 * s + 1]] = j;
    }
    for (int64_t i = 0; i < n; i++)
        cidx[i] = rank[ids[i]];
}

/* One pass over the CSR rows [0, n_rows) under the compact index cidx
 * (every local vertex's id in [0, k)).
 *
 * Internal weight: every entry whose endpoints share an id adds its weight
 * (twice for a self entry) to s_in[cidx[row]] in CSR entry order and sets
 * has_in[cidx[row]]; both (k entries) are zeroed here.
 *
 * Neighbour-community sums: row u's pairs are pair_id/pair_w[pair_ptr[u]
 * : pair_ptr[u + 1]], one per distinct id among u's non-self neighbours,
 * in order of first appearance in the row, each weight summed in entry
 * order from 0.0.  pair_id and pair_w need room for every entry.  Scratch:
 * marks (2 k entries), a (row, pair) couple per id kept on one cache line:
 * marks[2 c] == u says marks[2 c + 1] is c's pair of row u.  Returns the
 * number of pairs. */
int64_t neighbour_scan(
    int64_t n_rows,
    const int64_t *indptr,
    const int64_t *indices,
    const double *weights,
    const int64_t *cidx,
    int64_t k,
    double *s_in,
    uint8_t *has_in,
    int64_t *marks,
    int64_t *pair_ptr,
    int64_t *pair_id,
    double *pair_w)
{
    for (int64_t c = 0; c < k; c++) {
        s_in[c] = 0.0;
        has_in[c] = 0;
        marks[2 * c] = -1;
    }
    int64_t n_pairs = 0;
    pair_ptr[0] = 0;
    for (int64_t u = 0; u < n_rows; u++) {
        int64_t cu = cidx[u];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int64_t v = indices[e];
            int64_t c = cidx[v];
            double w = weights[e];
            if (c == cu) {
                s_in[cu] += v == u ? 2.0 * w : w;
                has_in[cu] = 1;
            }
            if (v == u)
                continue;
            int64_t *m = marks + 2 * c;
            if (m[0] != u) {
                m[0] = u;
                m[1] = n_pairs;
                pair_id[n_pairs] = c;
                pair_w[n_pairs++] = 0.0;
            }
            pair_w[m[1]] += w;
        }
        pair_ptr[u + 1] = n_pairs;
    }
    return n_pairs;
}

/* Heuristic-gated best move of rows [0, n_rows) from their neighbour-
 * community sums (neighbour_scan's pairs, in any order within a row).
 *
 * labels, st, sz and loc are the labels and the synced community columns
 * of the k compact ids.  The selection follows NumpyLevelKernels.gains:
 * among candidates whose gain beats the stay gain by more than theta, those
 * within theta of the best are ranked by an injective integer key (the
 * compact id, prefixed by the category for the enhanced rule), and the
 * winner is vetoed as the heuristic demands.  Neither step depends on the
 * pair order.  The first pass keeps each candidate's Eq. 4 gain in the
 * scratch gain (gain_cap entries, at least the longest row) and finds the
 * stay pair and the best gain; the best beats the stay gain by more than
 * theta exactly when some candidate does.  chosen_id is the compact id of
 * chosen (cidx[u] for a row that stays).  Returns -1, or the first row with
 * more than gain_cap pairs, whose outputs and later rows' are unset. */
int64_t pair_gains(
    int64_t n_rows,
    const int64_t *pair_ptr,
    const int64_t *pair_id,
    const double *pair_w,
    const int64_t *cidx,
    const int64_t *comm_of,
    const double *row_wdeg,
    int64_t k,
    const int64_t *labels,
    const double *st,
    const int64_t *sz,
    const uint8_t *loc,
    double two_m,
    double resolution,
    double theta,
    int64_t heuristic,
    int64_t gain_cap,
    double *gain,
    int64_t *chosen,
    int64_t *chosen_id,
    double *chosen_gain,
    double *stay_gain)
{
    for (int64_t u = 0; u < n_rows; u++) {
        int64_t lo = pair_ptr[u], hi = pair_ptr[u + 1];
        if (hi - lo > gain_cap)
            return u;
        int64_t cu = cidx[u];
        double wu = row_wdeg[u];
        double stay_w = 0.0;
        double best = 0.0;
        int any = 0;
        for (int64_t p = lo; p < hi; p++) {
            int64_t c = pair_id[p];
            if (c == cu) {
                stay_w = pair_w[p];
                continue;
            }
            double g = pair_w[p] - resolution * st[c] * wu / two_m;
            gain[p - lo] = g;
            if (!any || g > best) {
                best = g;
                any = 1;
            }
        }
        double st_cu = st[cu] - wu;
        double stay = stay_w - resolution * st_cu * wu / two_m;
        chosen[u] = comm_of[u];
        chosen_id[u] = cu;
        chosen_gain[u] = stay;
        stay_gain[u] = stay;
        double bar = stay + theta;
        if (!any || !(best > bar))
            continue;

        double cut = best - theta;
        int64_t win = -1;
        int64_t win_key = INT64_MAX;
        double win_gain = 0.0;
        for (int64_t p = lo; p < hi; p++) {
            int64_t c = pair_id[p];
            if (c == cu)
                continue;
            double g = gain[p - lo];
            if (!(g > bar && g >= cut))
                continue;
            int64_t key = c;
            if (heuristic == ENHANCED)
                key = (loc[c] ? 0 : (sz[c] > 1 ? 1 : 2)) * k + c;
            if (key < win_key) {
                win_key = key;
                win = c;
                win_gain = g;
            }
        }

        int64_t lab = labels[win];
        int veto = 0;
        if (heuristic == MINLABEL)
            veto = !loc[win] && lab > comm_of[u];
        else if (heuristic == ENHANCED)
            veto = !loc[win] && sz[win] == 1 && lab > comm_of[u];
        if (!veto) {
            chosen[u] = lab;
            chosen_id[u] = win;
            chosen_gain[u] = win_gain;
        }
    }
    return -1;
}

/* Stable counting sort of n pairs (a[i], b[i]) with a in [0, na) and b in
 * [0, nb), in two passes: by b, then by a.  order receives the positions
 * in (a, b) order, equal pairs in input order: the order of a stable
 * argsort of a * nb + b, without forming that key.  Input already in that
 * order (a CSR's entries, say) skips both passes.  indptr (na + 1 entries)
 * receives the start of each a's run in order.  Scratch: count (max(na,
 * nb) entries), tmp (2 n entries, (position, a) couples, so that each
 * scattered write of the first pass touches one cache line).  Returns -1,
 * or the first position whose a or b is out of range, in which case
 * nothing is written to order. */
int64_t pair_sort(
    int64_t n,
    const int64_t *a,
    const int64_t *b,
    int64_t na,
    int64_t nb,
    int64_t *count,
    int64_t *tmp,
    int64_t *order,
    int64_t *indptr)
{
    for (int64_t j = 0; j < na; j++)
        count[j] = 0;
    int sorted = 1;
    for (int64_t i = 0; i < n; i++) {
        if ((uint64_t)b[i] >= (uint64_t)nb || (uint64_t)a[i] >= (uint64_t)na)
            return i;
        count[a[i]]++;
        if (i && (a[i] < a[i - 1] || (a[i] == a[i - 1] && b[i] < b[i - 1])))
            sorted = 0;
    }
    int64_t s = 0;
    for (int64_t j = 0; j < na; j++) {
        indptr[j] = s;
        s += count[j];
    }
    indptr[na] = s;
    if (sorted) {
        for (int64_t i = 0; i < n; i++)
            order[i] = i;
        return -1;
    }
    for (int64_t j = 0; j < nb; j++)
        count[j] = 0;
    for (int64_t i = 0; i < n; i++)
        count[b[i]]++;
    s = 0;
    for (int64_t j = 0; j < nb; j++) {
        int64_t c = count[j];
        count[j] = s;
        s += c;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t p = count[b[i]]++;
        tmp[2 * p] = i;
        tmp[2 * p + 1] = a[i];
    }
    for (int64_t j = 0; j < na; j++)
        count[j] = indptr[j];
    for (int64_t t = 0; t < n; t++)
        order[count[tmp[2 * t + 1]]++] = tmp[2 * t];
    return -1;
}

/* Walk the pairs in order (pair_sort's) and emit one run per maximal
 * stretch of equal (a, b): its a, its b, and its weights summed from 0.0
 * in order.  Within a run that is input order, the order in which
 * np.add.at over the run ids adds them.  Returns the number of runs. */
int64_t run_sums(
    int64_t n,
    const int64_t *order,
    const int64_t *a,
    const int64_t *b,
    const double *w,
    int64_t *run_a,
    int64_t *run_b,
    double *run_w)
{
    int64_t r = -1;
    for (int64_t t = 0; t < n; t++) {
        int64_t i = order[t];
        if (r < 0 || a[i] != run_a[r] || b[i] != run_b[r]) {
            r++;
            run_a[r] = a[i];
            run_b[r] = b[i];
            run_w[r] = 0.0;
        }
        run_w[r] += w[i];
    }
    return r + 1;
}

/* The symmetric CSR over n vertices of m distinct undirected edges
 * (lo[e], hi[e], w[e]), lo <= hi < n, listed in (lo, hi) order: each edge
 * appears in both rows, a self-loop once.  Visiting the edges in that
 * order fills every row in ascending neighbour order: a row u first gets
 * its neighbours below u (from edges whose lo is below u, all visited
 * before u's own), then, from its own edges, those from u up.  indptr
 * takes n + 1 entries, indices and weights room for 2 m.  Scratch: cursor
 * (n entries) and slots (2 m entries of 16 bytes): the fill scatters each
 * entry's (neighbour, weight) couple into one slot, one cache line per
 * write, and a sequential pass then splits the slots.  Returns the number
 * of entries. */
typedef struct {
    int64_t index;
    double weight;
} csr_slot;

int64_t symmetric_fill(
    int64_t m,
    const int64_t *lo,
    const int64_t *hi,
    const double *w,
    int64_t n,
    int64_t *indptr,
    int64_t *cursor,
    csr_slot *slots,
    int64_t *indices,
    double *weights)
{
    for (int64_t u = 0; u <= n; u++)
        indptr[u] = 0;
    for (int64_t e = 0; e < m; e++) {
        indptr[lo[e] + 1]++;
        if (hi[e] != lo[e])
            indptr[hi[e] + 1]++;
    }
    for (int64_t u = 0; u < n; u++) {
        indptr[u + 1] += indptr[u];
        cursor[u] = indptr[u];
    }
    for (int64_t e = 0; e < m; e++) {
        int64_t u = lo[e], v = hi[e];
        csr_slot *slot = slots + cursor[u]++;
        slot->index = v;
        slot->weight = w[e];
        if (v != u) {
            slot = slots + cursor[v]++;
            slot->index = u;
            slot->weight = w[e];
        }
    }
    int64_t nnz = indptr[n];
    for (int64_t p = 0; p < nnz; p++) {
        indices[p] = slots[p].index;
        weights[p] = slots[p].weight;
    }
    return nnz;
}
