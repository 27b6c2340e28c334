/* The SMO loop of sdcil.smo, compiled.
 *
 * It makes the picks of smo._reference_smo, the loop as first merged, with
 * the same float64 operations in the same order, so every output is
 * byte-equal to that loop's: first index on ties and NaN first, as numpy's
 * argmax and argmin; Python's max and min for eta and t;
 * r[k] -= (K_i[k] - K_j[k]) * t. Build it with -ffp-contract=off, never
 * -ffast-math: a fused multiply-add rounds that update once, not twice.
 *
 * One pass over the n entries per iteration: the pass that updates r also
 * finds the next working pair, the first max of r + up and the first min
 * of r + low, from the penalties the step has just set. Only the first
 * pick has a pass of its own, fused with setting the penalties.
 */
#include <math.h>

/* I_up and I_low of index k as penalties added to r: -0.0 for a member */
static void set_penalties(double *up, double *low, long k, double yk, double ak, double hi, double margin)
{
    int inc = ak < hi, dec = ak > margin;
    up[k] = (yk > 0 ? inc : dec) ? -0.0 : -INFINITY;
    low[k] = (yk > 0 ? dec : inc) ? -0.0 : INFINITY;
}

/* The running first max of r + up and first min of r + low. x takes over
 * the max when !(x <= max), that is when x is greater or NaN, and only
 * while max is not NaN: a tie keeps the first index and the first NaN
 * stays, as in numpy's argmax. Likewise for the min. A scan starts from
 * NO_PICK, which index 0 takes over unless it equals it. */
struct pick {
    double max, min;
    long i, j;
};

static const struct pick NO_PICK = {-INFINITY, INFINITY, 0, 0};

static void pick_next(struct pick *p, long k, double rk, double upk, double lowk)
{
    double x = rk + upk, z = rk + lowk;
    if (p->max == p->max && !(x <= p->max)) { p->max = x; p->i = k; }
    if (p->min == p->min && !(z >= p->min)) { p->min = z; p->j = k; }
}

/* K is n x n, row-major and exactly symmetric; up and low are n doubles of
 * scratch. Updates a and r = -y * G in place, stores the final violation
 * and returns the iteration count. */
long sdcil_smo(const double *K, const double *y, double *a, double *r, double *up, double *low,
               long n, double C, long max_iter, double tol, double margin, double curvature_floor,
               double *violation)
{
    double hi = C - margin, v = INFINITY;
    long it = 0;
    struct pick p = NO_PICK;
    for (long k = 0; k < n; k++) {
        set_penalties(up, low, k, y[k], a[k], hi, margin);
        pick_next(&p, k, r[k], up[k], low[k]);
    }
    while (it < max_iter) {
        long i = p.i, j = p.j;
        v = p.max - p.min;
        if (v <= tol)
            break;
        double eta = K[i * n + i] + K[j * n + j] - 2.0 * K[i * n + j];
        if (curvature_floor > eta)
            eta = curvature_floor;
        /* move along u = y_i e_i - y_j e_j, which keeps y'a fixed */
        double yi = y[i], yj = y[j], ai = a[i], aj = a[j];
        double room_i = yi > 0 ? C - ai : ai;
        double room_j = yj > 0 ? aj : C - aj;
        double t = v / eta;
        if (room_i < t) t = room_i;
        if (room_j < t) t = room_j;
        ai += yi * t;
        aj -= yj * t;
        if (t == room_i) ai = yi > 0 ? C : 0.0;
        if (t == room_j) aj = yj > 0 ? 0.0 : C;
        a[i] = ai;
        a[j] = aj;
        set_penalties(up, low, i, yi, ai, hi, margin);
        set_penalties(up, low, j, yj, aj, hi, margin);
        /* the step and the next pick, in one pass */
        const double *Ki = K + i * n, *Kj = K + j * n;
        p = NO_PICK;
        for (long k = 0; k < n; k++) {
            double rk = r[k] - (Ki[k] - Kj[k]) * t;
            r[k] = rk;
            pick_next(&p, k, rk, up[k], low[k]);
        }
        it++;
    }
    *violation = v;
    return it;
}
