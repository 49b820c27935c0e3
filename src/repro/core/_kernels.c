/* Native per-iteration kernels of the vectorized local sweep.
 *
 * repro.core.native compiles this file with the system C compiler on first
 * use and calls it through ctypes.  The numpy kernels are the reference:
 * best_moves reproduces repro.core.sweep_kernel._best_moves_numpy and
 * internal_weight the internal-weight pass of
 * LocalClustering._contributions, bit for bit.  Both therefore
 *
 *   - sum every float in CSR entry order, starting from 0.0, as
 *     np.bincount does;
 *   - evaluate each expression with the operand order of the numpy code
 *     (a - b * c * d / e is ((b * c) * d) / e subtracted from a);
 *   - must be compiled with -ffp-contract=off and without fast-math, so
 *     that no multiply-add is fused and no operation is reordered.
 *
 * Every array is C-contiguous; the loader checks dtypes and contiguity.
 * Nothing is allocated here: the caller passes the scratch arrays.
 */

#include <stdint.h>

enum { GREEDY = 0, MINLABEL = 1, ENHANCED = 2 };

/* Heuristic-gated best move for rows [0, n_rows).
 *
 * cidx maps every local vertex to its compact community id in [0, k);
 * labels, st, st_known, sz and loc are the labels and the synced
 * community columns of the k compact ids.  Scratch: mark (k entries, all < 0 on entry), acc (k) and
 * touched (k).  For each row, acc accumulates w(u -> c) per compact id in
 * one pass over the row; mark[c] == u says acc[c] belongs to this row.
 * The selection then follows bulk_best_moves: among candidates whose gain
 * beats the stay gain by more than theta, those within theta of the best
 * are ranked by an injective integer key (the compact id, prefixed by the
 * category for the enhanced rule), and the winner is vetoed as the
 * heuristic demands. */
void best_moves(
    int64_t n_rows,
    const int64_t *indptr,
    const int64_t *indices,
    const double *weights,
    const int64_t *cidx,
    const int64_t *comm_of,
    const double *row_wdeg,
    int64_t k,
    const int64_t *labels,
    const double *st,
    const uint8_t *st_known,
    const int64_t *sz,
    const uint8_t *loc,
    double two_m,
    double resolution,
    double theta,
    int64_t heuristic,
    int64_t *mark,
    double *acc,
    int64_t *touched,
    int64_t *chosen,
    double *chosen_gain,
    double *stay_gain)
{
    for (int64_t u = 0; u < n_rows; u++) {
        int64_t n_touched = 0;
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int64_t v = indices[e];
            if (v == u)
                continue;
            int64_t c = cidx[v];
            if (mark[c] != u) {
                mark[c] = u;
                acc[c] = 0.0;
                touched[n_touched++] = c;
            }
            acc[c] += weights[e];
        }

        int64_t cu = cidx[u];
        double wu = row_wdeg[u];
        double stay_w = mark[cu] == u ? acc[cu] : 0.0;
        double st_cu = (st_known[cu] ? st[cu] : wu) - wu;
        double stay = stay_w - resolution * st_cu * wu / two_m;
        chosen[u] = comm_of[u];
        chosen_gain[u] = stay;
        stay_gain[u] = stay;

        /* acc[c] becomes the Eq. 4 gain of candidate c */
        double bar = stay + theta;
        double best = 0.0;
        int any = 0;
        for (int64_t i = 0; i < n_touched; i++) {
            int64_t c = touched[i];
            if (c == cu)
                continue;
            double g = acc[c] - resolution * st[c] * wu / two_m;
            acc[c] = g;
            if (g > bar && (!any || g > best)) {
                best = g;
                any = 1;
            }
        }
        if (!any)
            continue;

        double cut = best - theta;
        int64_t win = -1;
        int64_t win_key = INT64_MAX;
        for (int64_t i = 0; i < n_touched; i++) {
            int64_t c = touched[i];
            if (c == cu)
                continue;
            double g = acc[c];
            if (!(g > bar && g >= cut))
                continue;
            int64_t key = c;
            if (heuristic == ENHANCED)
                key = (loc[c] ? 0 : (sz[c] > 1 ? 1 : 2)) * k + c;
            if (key < win_key) {
                win_key = key;
                win = c;
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
            chosen_gain[u] = acc[win];
        }
    }
}

/* Intra-community edge weight per compact id, in CSR entry order: every
 * entry of rows [0, n_rows) whose endpoints share a community adds its
 * weight (twice for a self entry) to s_in[cidx[row]] and sets
 * has_in[cidx[row]].  s_in and has_in (k entries) start zeroed. */
void internal_weight(
    int64_t n_rows,
    const int64_t *indptr,
    const int64_t *indices,
    const double *weights,
    const int64_t *cidx,
    double *s_in,
    uint8_t *has_in)
{
    for (int64_t u = 0; u < n_rows; u++) {
        int64_t cu = cidx[u];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int64_t v = indices[e];
            if (cidx[v] != cu)
                continue;
            double w = weights[e];
            s_in[cu] += v == u ? 2.0 * w : w;
            has_in[cu] = 1;
        }
    }
}
