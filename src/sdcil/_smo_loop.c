/* The SMO loop of sdcil.smo, compiled.
 *
 * It makes the numpy loop's picks with the same float64 operations in the
 * same order, so every output is byte-equal to it: first index on ties and
 * NaN first, as numpy's argmax and argmin; Python's max and min for eta and
 * t; r[k] -= (K_i[k] - K_j[k]) * t. Build it with -ffp-contract=off, never
 * -ffast-math: a fused multiply-add rounds that update once, not twice.
 */
#include <math.h>

/* first index of the max of r + p, or of its first NaN */
static long argmax_sum(const double *r, const double *p, long n)
{
    long best = 0;
    double m = r[0] + p[0];
    for (long k = 1; k < n && m == m; k++) {
        double x = r[k] + p[k];
        if (!(x <= m)) { m = x; best = k; }
    }
    return best;
}

/* first index of the min of r + p, or of its first NaN */
static long argmin_sum(const double *r, const double *p, long n)
{
    long best = 0;
    double m = r[0] + p[0];
    for (long k = 1; k < n && m == m; k++) {
        double x = r[k] + p[k];
        if (!(x >= m)) { m = x; best = k; }
    }
    return best;
}

/* I_up and I_low of index k as penalties added to r: -0.0 for a member */
static void set_penalties(double *up, double *low, long k, double yk, double ak, double hi, double margin)
{
    int inc = ak < hi, dec = ak > margin;
    up[k] = (yk > 0 ? inc : dec) ? -0.0 : -INFINITY;
    low[k] = (yk > 0 ? dec : inc) ? -0.0 : INFINITY;
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
    for (long k = 0; k < n; k++)
        set_penalties(up, low, k, y[k], a[k], hi, margin);
    while (it < max_iter) {
        long i = argmax_sum(r, up, n), j = argmin_sum(r, low, n);
        v = (r[i] + up[i]) - (r[j] + low[j]);
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
        const double *Ki = K + i * n, *Kj = K + j * n;
        for (long k = 0; k < n; k++)
            r[k] -= (Ki[k] - Kj[k]) * t;
        it++;
    }
    *violation = v;
    return it;
}
