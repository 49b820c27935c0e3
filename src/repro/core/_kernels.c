/* Native kernels: the vectorized inner iteration and graph construction.
 *
 * repro.core.native compiles this file with the system C compiler on first
 * use and calls it through ctypes; it is the only implementation of these
 * kernels, so the package needs a C compiler.  Numpy references of each
 * kernel live in tests/core/numpy_kernels.py as test oracles, and every
 * kernel here reproduces them bit for bit:
 *
 *   - label_ids numbers int64 keys in first-arrival order, the order a
 *     dict assigns them, and label_find looks keys up; label_index gives
 *     np.unique(keys, return_inverse=True), by counting over the keys'
 *     span or through the hash and a radix sort of the distinct keys;
 *   - neighbour_scan yields the internal-weight sums of internal_weight
 *     and the per-row neighbour-community sums of
 *     aggregate_neighbor_communities;
 *   - pair_gains makes the decisions of NumpyLevelKernels.gains from
 *     those sums; decide, its row step, is the one gain pass of every
 *     Jacobi sweep in the package, the distributed vectorized sweep and
 *     the shared-memory baseline alike;
 *   - sync_send, sync_owner, sync_place and sync_sweep are the phases of
 *     the distributed inner iteration, one call between two collectives
 *     each, on a level_state bound once per level: the contributions and
 *     requests of a sync, the owner table with its partial Q and answers,
 *     the replies on the compact index, and the Jacobi sweep with its
 *     dampers.  NumpyLevelKernels.send, .owner, .place and .sweep are
 *     their references;
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
 * and the scratch arrays, and never an output that a peer may still read.
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
 * slots holds cap (key, id) pairs, cap a power of two above the number of
 * keys, so a probe always meets an empty slot (id -1).  slot_of returns the
 * slot that holds key, or the empty slot where the probe for it stops. */
static inline uint64_t slot_of(const int64_t *slots, uint64_t mask, int64_t key)
{
    uint64_t s = mix((uint64_t)key) & mask;
    while (slots[2 * s + 1] >= 0 && slots[2 * s] != key)
        s = (s + 1) & mask;
    return s;
}

static void clear_slots(int64_t cap, int64_t *slots)
{
    for (int64_t s = 0; s < cap; s++)
        slots[2 * s + 1] = -1;
}

/* The id of key in the table, inserting it as id *k (and counting it) on
 * its first arrival. */
static inline int64_t insert_key(int64_t *slots, uint64_t mask, int64_t key, int64_t *k)
{
    uint64_t s = slot_of(slots, mask, key);
    if (slots[2 * s + 1] < 0) {
        slots[2 * s] = key;
        slots[2 * s + 1] = (*k)++;
    }
    return slots[2 * s + 1];
}

/* Each of the n keys gets the id of its first occurrence in arrival order:
 * ids[i] is keys[i]'s id and uniq[id] the id's key.  Returns the number k
 * of distinct keys. */
int64_t label_ids(
    int64_t n,
    const int64_t *keys,
    int64_t cap,
    int64_t *slots,
    int64_t *ids,
    int64_t *uniq)
{
    uint64_t mask = (uint64_t)cap - 1;
    clear_slots(cap, slots);
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t known = k;
        int64_t id = insert_key(slots, mask, keys[i], &k);
        if (k != known)
            uniq[id] = keys[i];
        ids[i] = id;
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
        int64_t id = slots[2 * slot_of(slots, mask, queries[i]) + 1];
        pos[i] = id;
        if (id < 0 && first_missing < 0)
            first_missing = i;
    }
    return first_missing;
}

/* The compact index, in label order, of the n keys that label_ids just
 * numbered into slots and ids: sorted_labels holds the k distinct keys in
 * ascending order, and cidx[i] becomes the position of keys[i] in it (cidx
 * may be ids itself).  One probe per distinct key finds its first-arrival
 * id.  Scratch: rank (k entries). */
static void label_remap(
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
    for (int64_t j = 0; j < k; j++)
        rank[slots[2 * slot_of(slots, mask, sorted_labels[j]) + 1]] = j;
    for (int64_t i = 0; i < n; i++)
        cidx[i] = rank[ids[i]];
}

/* Sort n int64 keys ascending: a least-significant-digit radix sort on
 * 11-bit digits of the keys with the sign bit flipped (so that signed order
 * is unsigned order), skipping every digit on which all keys agree: labels
 * below 2**22 take two passes.  Scratch: tmp (n entries) and count (2048
 * entries). */
static void sort_keys(int64_t n, int64_t *keys, int64_t *tmp, int64_t *count)
{
    const uint64_t sign = (uint64_t)1 << 63;
    if (n < 2)
        return;
    uint64_t first = (uint64_t)keys[0] ^ sign, differ = 0;
    for (int64_t i = 1; i < n; i++)
        differ |= ((uint64_t)keys[i] ^ sign) ^ first;
    int64_t *src = keys, *dst = tmp;
    for (int shift = 0; shift < 64; shift += 11) {
        if (!((differ >> shift) & 0x7ff))
            continue;
        for (int d = 0; d < 2048; d++)
            count[d] = 0;
        for (int64_t i = 0; i < n; i++)
            count[(((uint64_t)src[i] ^ sign) >> shift) & 0x7ff]++;
        int64_t s = 0;
        for (int d = 0; d < 2048; d++) {
            int64_t c = count[d];
            count[d] = s;
            s += c;
        }
        for (int64_t i = 0; i < n; i++)
            dst[count[(((uint64_t)src[i] ^ sign) >> shift) & 0x7ff]++] = src[i];
        int64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != keys)
        for (int64_t i = 0; i < n; i++)
            keys[i] = src[i];
}

/* np.unique(keys, return_inverse=True) of n int64 keys: the k distinct
 * keys ascending into labels (room for n) and every key's position in them
 * into cidx.  Keys whose span (largest minus smallest) is below 2 cap, at
 * least 4 n, are counted in a table over the span held in slots: one pass
 * marks the keys, one numbers the marked entries in ascending order, one
 * looks every key up.  Wider keys go through the hash: label_ids numbers
 * them, sort_keys sorts the distinct ones and label_remap gives every key
 * its position.  Scratch: slots (2 cap), ids (n; cidx may be ids), tmp (n:
 * the sort's buffer, then the ranks) and count (2048).  Returns k. */
int64_t label_index(
    int64_t n,
    const int64_t *keys,
    int64_t cap,
    int64_t *slots,
    int64_t *ids,
    int64_t *tmp,
    int64_t *count,
    int64_t *labels,
    int64_t *cidx)
{
    if (n == 0)
        return 0;
    int64_t lo = keys[0], hi = keys[0];
    for (int64_t i = 1; i < n; i++) {
        lo = keys[i] < lo ? keys[i] : lo;
        hi = keys[i] > hi ? keys[i] : hi;
    }
    /* unsigned: the span of any two int64 fits */
    uint64_t span = (uint64_t)hi - (uint64_t)lo;
    if (span < (uint64_t)(2 * cap)) {
        int64_t *table = slots;
        for (uint64_t j = 0; j <= span; j++)
            table[j] = -1;
        for (int64_t i = 0; i < n; i++)
            table[(uint64_t)keys[i] - (uint64_t)lo] = 0;
        int64_t k = 0;
        for (uint64_t j = 0; j <= span; j++) {
            if (table[j] == 0) {
                labels[k] = (int64_t)((uint64_t)lo + j);
                table[j] = k++;
            }
        }
        for (int64_t i = 0; i < n; i++)
            cidx[i] = table[(uint64_t)keys[i] - (uint64_t)lo];
        return k;
    }
    int64_t k = label_ids(n, keys, cap, slots, ids, labels);
    sort_keys(k, labels, tmp, count);
    label_remap(n, ids, k, labels, cap, slots, tmp, cidx);
    return k;
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
 * marks (k entries), the last pair of each id: a pair at or after the
 * row's first is the row's own.  Returns the number of pairs. */
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
        marks[c] = -1;
    }
    int64_t n_pairs = 0;
    pair_ptr[0] = 0;
    for (int64_t u = 0; u < n_rows; u++) {
        int64_t cu = cidx[u], first = n_pairs;
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
            int64_t p = marks[c];
            if (p < first) {
                p = marks[c] = n_pairs++;
                pair_id[p] = c;
                pair_w[p] = 0.0;
            }
            pair_w[p] += w;
        }
        pair_ptr[u + 1] = n_pairs;
    }
    return n_pairs;
}

/* The decision of one row under a heuristic.  See pair_gains. */
typedef struct {
    int64_t label, id;
    double gain, stay;
} decision;

/* Heuristic-gated best move of row u from its neighbour-community sums
 * pair_id/pair_w[lo : hi] (neighbour_scan's pairs, in any order).
 *
 * labels, st, sz and loc are the labels and the synced community columns
 * of the k compact ids.  The selection follows NumpyLevelKernels.gains:
 * among candidates whose gain beats the stay gain by more than theta, those
 * within theta of the best are ranked by an injective integer key (the
 * compact id, prefixed by the category for the enhanced rule), and the
 * winner is vetoed as the heuristic demands.  Neither step depends on the
 * pair order.  The first pass keeps each candidate's Eq. 4 gain in the
 * scratch gain (at least hi - lo entries) and finds the stay pair and the
 * best gain; the best beats the stay gain by more than theta exactly when
 * some candidate does.  d->id is the compact id of d->label (cu for a row
 * that stays). */
static inline void decide(
    int64_t lo,
    int64_t hi,
    const int64_t *pair_id,
    const double *pair_w,
    int64_t cu,
    int64_t comm_u,
    double wu,
    int64_t k,
    const int64_t *labels,
    const double *st,
    const int64_t *sz,
    const uint8_t *loc,
    double two_m,
    double resolution,
    double theta,
    int64_t heuristic,
    double *gain,
    decision *d)
{
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
    d->label = comm_u;
    d->id = cu;
    d->gain = stay;
    d->stay = stay;
    double bar = stay + theta;
    if (!any || !(best > bar))
        return;

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
        veto = !loc[win] && lab > comm_u;
    else if (heuristic == ENHANCED)
        veto = !loc[win] && sz[win] == 1 && lab > comm_u;
    if (!veto) {
        d->label = lab;
        d->id = win;
        d->gain = win_gain;
    }
}

/* decide() for every row [0, n_rows): chosen, chosen_id, chosen_gain and
 * stay_gain receive each row's decision.  Scratch: gain (gain_cap entries,
 * at least the longest row).  Returns -1, or the first row with more than
 * gain_cap pairs, whose outputs and later rows' are unset. */
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
        decision d;
        decide(lo, hi, pair_id, pair_w, cidx[u], comm_of[u], row_wdeg[u], k,
               labels, st, sz, loc, two_m, resolution, theta, heuristic, gain,
               &d);
        chosen[u] = d.label;
        chosen_id[u] = d.id;
        chosen_gain[u] = d.gain;
        stay_gain[u] = d.stay;
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* The distributed inner iteration: one call per phase between two      */
/* collectives (repro.core.local_clustering.LocalClustering).            */
/* ------------------------------------------------------------------ */

/* The rank-local state of one level, bound once per level by
 * repro.core.native.LevelKernels: the CSR, the member rows, the rank count,
 * the gain pass's parameters and the scratch.  Every pointer is to an array
 * that the binding object holds for the level; the fields mirror
 * native._LevelState one for one. */
typedef struct {
    int64_t n_local;   /* local vertices: entries of comm_of and cidx */
    int64_t n_rows;    /* CSR rows: owned rows, then hub rows */
    int64_t n_owned;
    int64_t n_members; /* member rows: owned rows, then designated hubs */
    int64_t size;      /* ranks: label c is owned by rank c mod size */
    int64_t heuristic;
    int64_t cap;       /* slots of the label hash */
    double two_m;
    double resolution;
    double theta;
    const int64_t *indptr;
    const int64_t *indices;
    const double *weights;
    const double *row_wdeg;
    const int64_t *members;
    /* scratch: slots (2 cap); ids, tmp, cnt, order (n_local); count
     * (2048 or size, the larger); marks (n_local); s_in, tot (n_local);
     * gain (the longest row); present, is_local (n_local) */
    int64_t *slots;
    int64_t *ids;
    int64_t *tmp;
    int64_t *count;
    int64_t *marks;
    int64_t *cnt;
    int64_t *order;
    double *s_in;
    double *tot;
    double *gain;
    uint8_t *present;
    uint8_t *is_local;
} level_state;

/* The owner of label c: c mod size, never negative, as numpy's %.  A
 * division costs tens of cycles; a power of two needs none. */
static inline int64_t owner_of(int64_t c, int64_t size)
{
    if (!(size & (size - 1)))
        return c & (size - 1); /* floor mod of a power of two */
    int64_t r = c % size;
    return r < 0 ? r + size : r;
}

/* The packed payloads of a sync.  A payload is one buffer of 8-byte
 * words per peer, holding the bytes of its columns one after the other:
 *
 *   - a contribution of m labels: the labels (int64), then sigma_tot,
 *     size and sigma_in (double), m words each;
 *   - a reply to m requests: the requested labels (int64), then one
 *     (sigma_tot, size) pair of doubles per request.
 *
 * The peers' buffers reach sync_owner and sync_place through io, an int64
 * array of counts and addresses (see each kernel). */
static inline const void *io_ptr(const int64_t *io, int64_t i)
{
    return (const void *)(intptr_t)io[i];
}

/* Send: everything a sync computes before its first collective.
 *
 * The compact index labels[0 : k], cidx of comm_of (label_index); the
 * fused scan under it (neighbour_scan: internal weights and every row's
 * pairs into pair_ptr, pair_id, pair_w); the member sums (each member
 * row's weighted degree and a count of one, added to its id in member
 * order from 0.0, as np.bincount over the member ids); and two stable
 * bucketings by owner of the ids in ascending order, which is label order:
 *
 *   - the contributions: labels, sigma_tot, size and sigma_in of every id
 *     that has a member or an internal entry; owner r's m = bounds[r + 1]
 *     - bounds[r] entries are packed at con[4 bounds[r]], 4 m words;
 *   - the requests: every label into r_lab, bucket r at bounds[size + 1
 *     + r] : bounds[size + 2 + r], with the id of each request in the
 *     scratch order, which sync_place reads.
 *
 * Every output has room for n_local entries (con for 4 n_local words,
 * pair_id and pair_w for every entry, bounds for 2 (size + 1) + 1: the
 * pair count goes last).  Returns k. */
int64_t sync_send(
    const level_state *L,
    const int64_t *comm_of,
    int64_t *labels,
    int64_t *cidx,
    int64_t *pair_ptr,
    int64_t *pair_id,
    double *pair_w,
    void *con,
    int64_t *r_lab,
    int64_t *bounds)
{
    int64_t k = label_index(L->n_local, comm_of, L->cap, L->slots, L->ids,
                            L->tmp, L->count, labels, cidx);
    uint8_t *present = L->present;
    double *tot = L->tot, *s_in = L->s_in;
    int64_t *cnt = L->cnt, *own = L->tmp;
    neighbour_scan(L->n_rows, L->indptr, L->indices, L->weights, cidx, k,
                   s_in, present, L->marks, pair_ptr, pair_id, pair_w);
    for (int64_t c = 0; c < k; c++) {
        tot[c] = 0.0;
        cnt[c] = 0;
    }
    for (int64_t i = 0; i < L->n_members; i++) {
        int64_t r = L->members[i], c = cidx[r];
        tot[c] += L->row_wdeg[r];
        cnt[c]++;
        present[c] = 1;
    }

    int64_t size = L->size;
    int64_t *cb = bounds, *rb = bounds + size + 1, *cursor = L->count;
    for (int64_t r = 0; r <= size; r++)
        cb[r] = rb[r] = 0;
    for (int64_t c = 0; c < k; c++) {
        int64_t o = own[c] = owner_of(labels[c], size);
        rb[o + 1]++;
        cb[o + 1] += present[c];
    }
    for (int64_t r = 0; r < size; r++) {
        cb[r + 1] += cb[r];
        rb[r + 1] += rb[r];
    }
    for (int64_t r = 0; r < size; r++)
        cursor[r] = cb[r];
    int64_t *con_lab = con;
    double *con_val = con;
    for (int64_t c = 0; c < k; c++) {
        if (!present[c])
            continue;
        int64_t o = own[c], m = cb[o + 1] - cb[o];
        int64_t j = 3 * cb[o] + cursor[o]++; /* 4 cb[o] + the bucket position */
        con_lab[j] = labels[c];
        con_val[j + m] = tot[c];
        con_val[j + 2 * m] = (double)cnt[c];
        con_val[j + 3 * m] = s_in[c];
    }
    for (int64_t r = 0; r < size; r++)
        cursor[r] = rb[r];
    for (int64_t c = 0; c < k; c++) {
        int64_t j = cursor[own[c]]++;
        r_lab[j] = labels[c];
        L->order[j] = c;
    }
    bounds[2 * (size + 1)] = pair_ptr[L->n_rows];
    return k;
}

/* Owner: the owner table of the received contributions, its partial Q and
 * the answers to the incoming requests.
 *
 * io holds 4 size entries: the contribution counts n_in[r], the request
 * counts n_req[r], the addresses of the packed contributions and the
 * addresses of the int64 requests, rank by rank.  The label hash numbers
 * the labels in order of first arrival over the peers in rank order, and
 * each id's three sums start from 0.0 and add in that order (scratch:
 * slots, 2 cap entries, and acc, three per contribution).  The partial Q
 * is the sum in id order of sigma_in / two_m - resolution * (sigma_tot /
 * two_m)**2, the first term taken as it is and every later one added, as
 * np.cumsum does; it goes to *q (0.0 without contributions).  Peer r's
 * requests are answered into rep, one packed reply per peer, peer after
 * peer (3 n_req[r] words each).  Returns -1, or the position in that order
 * of the first request for a label this owner holds no aggregate for. */
int64_t sync_owner(
    const level_state *L,
    const int64_t *io,
    int64_t cap,
    int64_t *slots,
    double *acc,
    void *rep,
    double *q)
{
    int64_t size = L->size;
    const int64_t *n_in = io, *n_req = io + size;
    uint64_t mask = (uint64_t)cap - 1;
    clear_slots(cap, slots);
    int64_t k = 0;
    for (int64_t r = 0; r < size; r++) {
        int64_t m = n_in[r];
        const int64_t *lab = io_ptr(io, 2 * size + r);
        const double *tot = io_ptr(io, 2 * size + r);
        tot += m;
        const double *cnt = tot + m, *s_in = tot + 2 * m;
        for (int64_t i = 0; i < m; i++) {
            int64_t known = k;
            double *a = acc + 3 * insert_key(slots, mask, lab[i], &k);
            if (k != known)
                a[0] = a[1] = a[2] = 0.0;
            a[0] += tot[i];
            a[1] += cnt[i];
            a[2] += s_in[i];
        }
    }
    double sum = 0.0;
    for (int64_t id = 0; id < k; id++) {
        const double *a = acc + 3 * id;
        double t = a[0] / L->two_m;
        double term = a[2] / L->two_m - L->resolution * (t * t);
        sum = id ? sum + term : term;
    }
    *q = sum;
    int64_t v = 0;
    int64_t *rep_lab = rep;
    double *rep_val = rep;
    for (int64_t r = 0; r < size; r++) {
        int64_t m = n_req[r];
        const int64_t *req = io_ptr(io, 3 * size + r);
        int64_t *echo = rep_lab + 3 * v;
        double *vals = rep_val + 3 * v + m;
        for (int64_t i = 0; i < m; i++, v++) {
            int64_t id = slots[2 * slot_of(slots, mask, req[i]) + 1];
            if (id < 0)
                return v;
            echo[i] = req[i];
            vals[2 * i] = acc[3 * id];
            vals[2 * i + 1] = acc[3 * id + 1];
        }
    }
    return -1;
}

/* x rounded to the nearest integer, ties to even: np.rint under the
 * default rounding mode, without libm.  From 2**52 up every double is an
 * integer already. */
static inline double round_even(double x)
{
    const double big = 4503599627370496.0; /* 2**52 */
    if (x >= 0.0 && x < big)
        return (x + big) - big;
    if (x < 0.0 && x > -big)
        return (x - big) + big;
    return x;
}

/* Place: the replies to sync_send's k requests on the compact index.
 *
 * io holds 2 size entries: the reply counts n_rep[r], then the addresses
 * of the packed replies, rank by rank.  In rank order the replies' labels
 * must repeat the requests r_lab[0 : k] (the caller checks that the
 * counts add up to k).  Each reply lands on the id of its request
 * (sync_send's order): sigma_tot as it came, size rounded (round_even).
 * local counts the owned vertices of each id, and the scratch is_local
 * marks the ids it counts, for sync_sweep.  Returns -1, or the position of
 * the first reply that does not repeat its request, in which case the
 * outputs are unset. */
int64_t sync_place(
    const level_state *L,
    int64_t k,
    const int64_t *r_lab,
    const int64_t *cidx,
    const int64_t *io,
    double *sigma_tot,
    int64_t *csize,
    int64_t *local)
{
    int64_t size = L->size, j = 0;
    for (int64_t r = 0; r < size; r++) {
        const int64_t *lab = io_ptr(io, size + r);
        for (int64_t i = 0; i < io[r]; i++, j++)
            if (lab[i] != r_lab[j])
                return j;
    }
    j = 0;
    for (int64_t r = 0; r < size; r++) {
        int64_t m = io[r];
        const double *vals = io_ptr(io, size + r);
        vals += m;
        for (int64_t i = 0; i < m; i++, j++) {
            int64_t c = L->order[j];
            sigma_tot[c] = vals[2 * i];
            csize[c] = (int64_t)round_even(vals[2 * i + 1]);
        }
    }
    for (int64_t c = 0; c < k; c++)
        local[c] = 0;
    for (int64_t u = 0; u < L->n_owned; u++)
        local[cidx[u]]++;
    for (int64_t c = 0; c < k; c++)
        L->is_local[c] = local[c] > 0;
    return -1;
}

/* Sweep: the Jacobi gain pass over the pairs of the last sync, with its
 * dampers, on the columns sync_place filled (labels, sigma_tot st and size
 * sz of the k ids, is_local in the scratch).
 *
 * Owned row u whose decision (decide()) leaves its label is a mover.  Lu
 * et al.'s singleton swap gate drops a move up from a singleton into a
 * singleton (both synced sizes 1); every other mover counts, and moves
 * unless down_only is set and the move is up, in which case it is only
 * counted (deferred to the next iteration).  A move writes comm_of[u];
 * no decision reads another row's comm_of, so writing as the pass goes
 * equals writing after it.  Hub row n_owned + j proposes its decision:
 * hub_gain[j] is the gain over staying and hub_target[j] the label, or
 * 0.0 and the current label when it stays.  Returns the owned movers
 * counted. */
int64_t sync_sweep(
    const level_state *L,
    int64_t k,
    const int64_t *labels,
    const int64_t *cidx,
    const double *st,
    const int64_t *sz,
    const int64_t *pair_ptr,
    const int64_t *pair_id,
    const double *pair_w,
    int64_t down_only,
    int64_t *comm_of,
    double *hub_gain,
    double *hub_target)
{
    int64_t moves = 0;
    for (int64_t u = 0; u < L->n_rows; u++) {
        decision d;
        decide(pair_ptr[u], pair_ptr[u + 1], pair_id, pair_w, cidx[u],
               comm_of[u], L->row_wdeg[u], k, labels, st, sz, L->is_local,
               L->two_m, L->resolution, L->theta, L->heuristic, L->gain, &d);
        if (u < L->n_owned) {
            int64_t old = comm_of[u];
            if (d.label == old)
                continue;
            int up = d.label > old;
            if (up && sz[cidx[u]] == 1 && sz[d.id] == 1)
                continue;
            moves++;
            if (!(up && down_only))
                comm_of[u] = d.label;
        } else {
            int64_t j = u - L->n_owned;
            int stays = d.label == comm_of[u];
            hub_gain[j] = stays ? 0.0 : d.gain - d.stay;
            hub_target[j] = (double)(stays ? comm_of[u] : d.label);
        }
    }
    return moves;
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
