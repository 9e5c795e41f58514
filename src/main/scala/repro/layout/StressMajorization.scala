package repro.layout

import java.util.Random

/** Position-matrix embedding by stress majorization (Eq. 7, Appendix A.1).
  *
  * Minimizes `L(X|Δ) = Σ_{i<j} (1 − ||X[i]−X[j]|| / Δ[i,j])²`, i.e. weighted
  * stress with w_ij = 1/Δ[i,j]². We iterate the SMACOF majorization update
  * (the per-node closed form of Eq. 10's normal equations, which avoids the
  * O(k³) pseudo-inverse while converging to the same stationary points):
  *
  *   X[i] ← Σ_{j≠i} w_ij · (X[j] + Δ[i,j]·(X[i]−X[j])/||X[i]−X[j]||) / Σ_{j≠i} w_ij
  *
  * Each sweep monotonically decreases the majorizing bound of Eq. 9.
  */
object StressMajorization {

  val MaxIter = 300; val Tol = 1e-6 // sweeps; relative loss change that stops them

  /** Lay out a symmetric distance matrix; entries `d(i)(j) <= 0` (diagonal)
    * are skipped.
    */
  def layout(d: Array[Array[Double]], seed: Long = 0): Array[Array[Double]] = {
    val n   = d.length
    val rnd = new Random(seed)
    // Positions as two flat arrays, drawn x then y per node.
    val xs = new Array[Double](n)
    val ys = new Array[Double](n)
    var v = 0
    while (v < n) {
      xs(v) = rnd.nextDouble() * 10.0 - 5.0
      ys(v) = rnd.nextDouble() * 10.0 - 5.0
      v += 1
    }
    if (n <= 1) return rows(xs, ys)

    // Δ and w = 1/Δ² row-major, once; w is read only where Δ > 0.
    val dd = flat(d)
    val ww = new Array[Double](n * n)
    var e = 0
    while (e < dd.length) {
      if (dd(e) > 0.0) ww(e) = 1.0 / (dd(e) * dd(e))
      e += 1
    }

    var prev = stress(xs, ys, dd, n)
    var it   = 0
    var done = false
    while (it < MaxIter && !done) {
      var i = 0
      while (i < n) {
        var sx = 0.0; var sy = 0.0; var sw = 0.0
        val xi  = xs(i); val yi = ys(i)
        val row = i * n
        var j = 0
        while (j < n) {
          val dij = dd(row + j)
          if (j != i && dij > 0.0) {
            val w   = ww(row + j)
            var dx  = xi - xs(j)
            var dy  = yi - ys(j)
            var len = math.sqrt(dx * dx + dy * dy)
            if (len < 1e-12) { // coincident: nudge in a random direction
              dx = rnd.nextDouble() - 0.5; dy = rnd.nextDouble() - 0.5
              len = math.sqrt(dx * dx + dy * dy)
            }
            val s = dij / len
            sx += w * (xs(j) + dx * s)
            sy += w * (ys(j) + dy * s)
            sw += w
          }
          j += 1
        }
        if (sw > 0.0) { xs(i) = sx / sw; ys(i) = sy / sw }
        i += 1
      }
      val cur = stress(xs, ys, dd, n)
      if (prev > 0 && (prev - cur) / prev < Tol) done = true
      prev = cur
      it += 1
    }
    rows(xs, ys)
  }

  /** The Eq. 7 loss. */
  def stress(x: Array[Array[Double]], d: Array[Array[Double]]): Double =
    stress(x.map(_(0)), x.map(_(1)), flat(d), d.length)

  /** Eq. 7 over flat positions and a row-major n×n Δ. */
  private def stress(xs: Array[Double], ys: Array[Double], dd: Array[Double], n: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        val dij = dd(i * n + j)
        if (dij > 0.0) {
          val dx  = xs(i) - xs(j)
          val dy  = ys(i) - ys(j)
          val len = math.sqrt(dx * dx + dy * dy)
          val t   = 1.0 - len / dij
          s += t * t
        }
        j += 1
      }
      i += 1
    }
    s
  }

  /** The first d.length entries of each row of `d`, row-major. */
  private def flat(d: Array[Array[Double]]): Array[Double] = {
    val n   = d.length
    val out = new Array[Double](n * n)
    var i = 0
    while (i < n) { System.arraycopy(d(i), 0, out, i * n, n); i += 1 }
    out
  }

  private def rows(xs: Array[Double], ys: Array[Double]): Array[Array[Double]] =
    Array.tabulate(xs.length)(i => Array(xs(i), ys(i)))
}
