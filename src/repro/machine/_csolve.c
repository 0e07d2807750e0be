/* Progressive-filling max-min solver — C twin of Interconnect._solve.
 *
 * This file is compiled lazily at runtime by repro.machine.csolve with
 * the system C compiler (no build-system dependency); when compilation
 * is impossible the pure-python solver in interconnect.py runs instead.
 *
 * BIT-IDENTITY CONTRACT: every floating-point operation below mirrors
 * the python implementation in interconnect.py `_solve` in the same
 * order on IEEE-754 doubles, so both produce byte-identical rates.  The
 * build deliberately uses -ffp-contract=off (no FMA contraction) and no
 * -ffast-math; keep it that way.  tests/test_machine_interconnect.py
 * replays random configurations through both and requires exact
 * equality.
 *
 * Inputs use canonical first-occurrence group labels 0..G-1, exactly as
 * produced by Interconnect.stream_rates_lists.  Returns 0 on success,
 * nonzero when a static capacity is exceeded (caller falls back to
 * python).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define CAP_STREAMS 4096
#define CAP_NODES 256

/* (socket, node) pair encoded so int64 order == python tuple order */
#define ENC(s, nd) (((int64_t)(s) << 20) | (int64_t)(nd))
#define ENC_S(p) ((int)((p) >> 20))
#define ENC_N(p) ((int)((p) & 0xfffff))

int repro_solve(
    int n,
    const int64_t *sockets,
    const int64_t *nodes,
    const int64_t *groups,
    int n_nodes,
    int n_sock,
    const double *bw,       /* [n_nodes] */
    const double *eff,      /* [n_sock][n_nodes] row-major */
    const double *link_bw,  /* [n_nodes] or NULL */
    double core_fraction,   /* < 0 means disabled */
    double *out)            /* [n] */
{
    if (n <= 0 || n > CAP_STREAMS || n_nodes > CAP_NODES ||
        n_sock > CAP_NODES || n_nodes > (1 << 20))
        return 1;

    int has_link = link_bw != NULL;
    int has_core = core_fraction >= 0.0;

    /* ---- group membership (canonical labels: 0..G-1) ---- */
    static _Thread_local int64_t mem_pool[CAP_STREAMS]; /* encoded pairs */
    static _Thread_local int grp_off[CAP_STREAMS + 1];
    static _Thread_local int grp_len[CAP_STREAMS];
    int G = 0;
    for (int i = 0; i < n; i++) {
        int g = (int)groups[i];
        if (g < 0 || g > G) return 1; /* not canonical */
        if (g == G) { grp_len[G] = 0; G++; }
        grp_len[g]++;
    }
    grp_off[0] = 0;
    for (int g = 0; g < G; g++) grp_off[g + 1] = grp_off[g] + grp_len[g];
    {
        static _Thread_local int fill[CAP_STREAMS];
        memset(fill, 0, (size_t)G * sizeof(int));
        for (int i = 0; i < n; i++) {
            int g = (int)groups[i];
            mem_pool[grp_off[g] + fill[g]++] = ENC(sockets[i], nodes[i]);
        }
    }
    /* sort each group's pairs (insertion sort; groups are tiny) */
    for (int g = 0; g < G; g++) {
        int64_t *a = mem_pool + grp_off[g];
        int len = grp_len[g];
        for (int i = 1; i < len; i++) {
            int64_t v = a[i];
            int j = i - 1;
            while (j >= 0 && a[j] > v) { a[j + 1] = a[j]; j--; }
            a[j + 1] = v;
        }
    }

    /* ---- signature dedup (first-occurrence order) ----
     * Open-addressing hash table keyed by each group's sorted pair array
     * (linear probing, load factor <= 1/2).  Groups are visited in order
     * and a new signature takes the next id, so ids keep the
     * first-occurrence order of the python dict in _solve. */
    static _Thread_local int sig_rep[CAP_STREAMS];   /* representative grp */
    static _Thread_local int64_t sig_weight[CAP_STREAMS];
    static _Thread_local uint64_t sig_hash[CAP_STREAMS];
    static _Thread_local int sig_of_group[CAP_STREAMS];
    static _Thread_local int sig_table[2 * CAP_STREAMS]; /* sid + 1; 0 empty */
    int tsize = 16;
    while (tsize < 2 * G) tsize <<= 1;
    memset(sig_table, 0, (size_t)tsize * sizeof(int));
    int S = 0;
    for (int g = 0; g < G; g++) {
        int len = grp_len[g];
        const int64_t *a = mem_pool + grp_off[g];
        uint64_t h = (uint64_t)len * 0x9e3779b97f4a7c15ULL;
        for (int k = 0; k < len; k++) {
            h ^= (uint64_t)a[k];
            h *= 0xff51afd7ed558ccdULL;
            h ^= h >> 32;
        }
        int slot = (int)(h & (uint64_t)(tsize - 1));
        int sid;
        for (;;) {
            int e = sig_table[slot];
            if (e == 0) {
                sid = S++;
                sig_table[slot] = sid + 1;
                sig_rep[sid] = g;
                sig_weight[sid] = 0;
                sig_hash[sid] = h;
                break;
            }
            int rg = sig_rep[e - 1];
            if (sig_hash[e - 1] == h && grp_len[rg] == len &&
                memcmp(mem_pool + grp_off[rg], a,
                       (size_t)len * sizeof(int64_t)) == 0) {
                sid = e - 1;
                break;
            }
            slot = (slot + 1) & (tsize - 1);
        }
        sig_weight[sid]++;
        sig_of_group[g] = sid;
    }

    /* ---- classes: one per (sig, socket, node) run ---- */
    static _Thread_local int cls_sid[CAP_STREAMS];
    static _Thread_local int cls_sock[CAP_STREAMS];
    static _Thread_local int cls_node[CAP_STREAMS];
    static _Thread_local int cls_rsock[CAP_STREAMS]; /* -1 = local/no link */
    static _Thread_local int64_t cls_w[CAP_STREAMS];
    static _Thread_local int64_t cls_pg[CAP_STREAMS];
    static _Thread_local double cls_cap[CAP_STREAMS];
    static _Thread_local double cls_rate[CAP_STREAMS];
    static _Thread_local int cls_off_sig[CAP_STREAMS + 1];
    static _Thread_local double core_budget0[CAP_STREAMS];
    int C = 0;
    for (int sid = 0; sid < S; sid++) {
        cls_off_sig[sid] = C;
        int rg = sig_rep[sid];
        const int64_t *a = mem_pool + grp_off[rg];
        int len = grp_len[rg];
        int64_t w = sig_weight[sid];
        int i = 0;
        while (i < len) {
            int64_t p = a[i];
            int c = 1;
            while (i + c < len && a[i + c] == p) c++;
            int s = ENC_S(p), nd = ENC_N(p);
            if (nd >= n_nodes || s >= n_sock) return 1;
            cls_sid[C] = sid;
            cls_sock[C] = s;
            cls_node[C] = nd;
            cls_rsock[C] = (has_link && s != nd) ? s : -1;
            cls_pg[C] = c;
            cls_w[C] = w * c;
            cls_cap[C] = eff[s * n_nodes + nd] * bw[nd];
            cls_rate[C] = 0.0;
            C++;
            i += c;
        }
        if (has_core) {
            double m = bw[ENC_S(a[0])];
            for (int k = 1; k < len; k++) {
                double b = bw[ENC_S(a[k])];
                if (b > m) m = b;
            }
            core_budget0[sid] = core_fraction * m;
        }
    }
    cls_off_sig[S] = C;

    /* ---- progressive filling ---- */
    static _Thread_local double rem_node[CAP_NODES];
    static _Thread_local double node_floor[CAP_NODES];
    static _Thread_local double rem_link[CAP_NODES];
    static _Thread_local double link_floor[CAP_NODES];
    static _Thread_local double rem_core[CAP_STREAMS];
    static _Thread_local double core_floor[CAP_STREAMS];
    static _Thread_local int64_t node_users[CAP_NODES];
    static _Thread_local int64_t link_users[CAP_NODES];
    static _Thread_local int64_t sig_users[CAP_STREAMS];
    static _Thread_local int active[CAP_STREAMS];

    const double eps = 1e-12;
    for (int nd = 0; nd < n_nodes; nd++) {
        rem_node[nd] = bw[nd];
        node_floor[nd] = eps * bw[nd];
    }
    /* Link budgets are consumed by *node* id (a remote class drains both
     * its reader socket's link and its target resource's link), so the
     * array must span all n_nodes resources — sizing it by n_sock reads
     * stale memory once clusters append NIC resources past the sockets. */
    int n_link = has_link ? n_nodes : 0;
    for (int s = 0; s < n_link; s++) {
        rem_link[s] = link_bw[s];
        link_floor[s] = eps * (link_bw[s] > 1.0 ? link_bw[s] : 1.0);
    }
    if (has_core)
        for (int sid = 0; sid < S; sid++) {
            rem_core[sid] = core_budget0[sid];
            core_floor[sid] =
                eps * (core_budget0[sid] > 1.0 ? core_budget0[sid] : 1.0);
        }

    int n_active = C;
    for (int ci = 0; ci < C; ci++) active[ci] = ci;

    int max_pass = 2 * C + 2 * n_sock + 2;
    for (int pass = 0; pass < max_pass; pass++) {
        if (n_active == 0) break;
        memset(node_users, 0, (size_t)n_nodes * sizeof(int64_t));
        if (has_link)
            memset(link_users, 0, (size_t)n_link * sizeof(int64_t));
        if (has_core) memset(sig_users, 0, (size_t)S * sizeof(int64_t));
        double delta = INFINITY;
        for (int k = 0; k < n_active; k++) {
            int ci = active[k];
            double head = cls_cap[ci] - cls_rate[ci];
            if (head < delta) delta = head;
            int nd = cls_node[ci];
            int64_t w = cls_w[ci];
            node_users[nd] += w;
            int rs = cls_rsock[ci];
            if (rs >= 0) {
                link_users[rs] += w;
                link_users[nd] += w;
            }
            if (has_core) sig_users[cls_sid[ci]] += cls_pg[ci];
        }
        for (int nd = 0; nd < n_nodes; nd++) {
            int64_t u = node_users[nd];
            if (u) {
                double d = rem_node[nd] / (double)u;
                if (d < delta) delta = d;
            }
        }
        for (int s = 0; s < n_link; s++) {
            int64_t u = link_users[s];
            if (u) {
                double d = rem_link[s] / (double)u;
                if (d < delta) delta = d;
            }
        }
        if (has_core)
            for (int sid = 0; sid < S; sid++) {
                int64_t u = sig_users[sid];
                if (u) {
                    double d = rem_core[sid] / (double)u;
                    if (d < delta) delta = d;
                }
            }
        if (delta < 0.0) delta = 0.0;
        for (int nd = 0; nd < n_nodes; nd++) {
            int64_t u = node_users[nd];
            if (u) rem_node[nd] -= delta * (double)u;
        }
        for (int s = 0; s < n_link; s++) {
            int64_t u = link_users[s];
            if (u) rem_link[s] -= delta * (double)u;
        }
        if (has_core)
            for (int sid = 0; sid < S; sid++) {
                int64_t u = sig_users[sid];
                if (u) rem_core[sid] -= delta * (double)u;
            }
        /* apply the growth and freeze in one sweep */
        int still = 0;
        for (int k = 0; k < n_active; k++) {
            int ci = active[k];
            double r = cls_rate[ci] + delta;
            cls_rate[ci] = r;
            if (r >= cls_cap[ci] - eps) continue;
            int nd = cls_node[ci];
            if (rem_node[nd] <= node_floor[nd]) continue;
            int rs = cls_rsock[ci];
            if (rs >= 0 && (rem_link[rs] <= link_floor[rs] ||
                            rem_link[nd] <= link_floor[nd]))
                continue;
            if (has_core) {
                int sid = cls_sid[ci];
                if (rem_core[sid] <= core_floor[sid]) continue;
            }
            active[still++] = ci;
        }
        if (still == n_active) break; /* numerical stall guard */
        n_active = still;
    }

    /* ---- expand class rates back onto streams ---- */
    for (int i = 0; i < n; i++) {
        int sid = sig_of_group[(int)groups[i]];
        int ss = (int)sockets[i];
        int nd = (int)nodes[i];
        double r = eps; /* every class run is matched by construction */
        for (int ci = cls_off_sig[sid]; ci < cls_off_sig[sid + 1]; ci++) {
            if (cls_sock[ci] == ss && cls_node[ci] == nd) {
                r = cls_rate[ci];
                break;
            }
        }
        out[i] = r > eps ? r : eps;
    }
    return 0;
}
