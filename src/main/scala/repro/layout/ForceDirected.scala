package repro.layout

import java.util.Random
import repro.graph.LocalGraph

/** Single-level force-directed baselines (§7.1 category (i)): FR [25],
  * LinLog [57] and ForceAtlas2 [38]. One O(n²)-per-iteration relaxation with
  * seeded random initialisation and a linear cooling schedule, run with each
  * algorithm's published force model — faithful at the scale of the 6 small
  * quality graphs.
  */
object ForceDirected {

  private sealed trait Model
  private case object Fr          extends Model
  private case object LinLog      extends Model
  private case object ForceAtlas2 extends Model

  val Iters = 300

  /** Fruchterman–Reingold: repulsion k²/d between all pairs, attraction d²/k
    * along edges, displacement capped by a cooling temperature.
    */
  def fr(g: LocalGraph, seed: Long = 0): Array[Array[Double]] = relax(g, seed, Fr)

  /** LinLog energy model: linear attraction along edges, logarithmic
    * repulsion (force magnitude 1/d) between all pairs.
    */
  def linLog(g: LocalGraph, seed: Long = 0): Array[Array[Double]] = relax(g, seed, LinLog)

  /** ForceAtlas2: degree-weighted repulsion k_r(d_i+1)(d_j+1)/d, linear
    * attraction, and gravity pulling every node toward the origin.
    */
  def forceAtlas(g: LocalGraph, seed: Long = 0): Array[Array[Double]] = relax(g, seed, ForceAtlas2)

  /** `Iters` rounds of all-pairs repulsion, edge attraction and (ForceAtlas2)
    * gravity; each node moves by its displacement capped at the cooling
    * step. The model's terms are chosen by branches on loop-invariant flags
    * and summed in locals, so the O(n²) loop makes no call and no store per
    * pair.
    */
  private def relax(g: LocalGraph, seed: Long, model: Model): Array[Array[Double]] = {
    val n     = g.n
    val nb    = ShortestPaths.undirectedAdj(g)
    val k     = math.sqrt(1.0 / n) // FR's ideal edge length
    val kr    = 0.01               // ForceAtlas2's repulsion and gravity
    val grav  = 0.05
    val isFr  = model == Fr
    val isLL  = model == LinLog
    val isFa  = model == ForceAtlas2
    val w     = nb.map(_.length + 1.0) // ForceAtlas2's degree weights d_i + 1
    val step0 = if (isFr) 0.1 else 0.05
    val rnd   = new Random(seed)
    val x     = Array.fill(n, 2)(rnd.nextDouble() * 2.0 - 1.0)
    val dispX = new Array[Double](n)
    val dispY = new Array[Double](n)
    var it    = 0
    while (it < Iters) {
      val step = step0 * (1.0 - it.toDouble / Iters) + 1e-4
      var i = 0
      while (i < n) {
        val xi0 = x(i)(0); val xi1 = x(i)(1)
        val ci  = kr * w(i)
        var ax = 0.0; var ay = 0.0
        var j = 0
        while (j < n) {
          if (j != i) {
            val dx = xi0 - x(j)(0); val dy = xi1 - x(j)(1)
            val d2 = dx * dx + dy * dy + 1e-9
            if (isLL) { ax += dx / d2; ay += dy / d2 } // (1/d)/d per component
            else {
              val f = if (isFr) k * k / d2 else ci * w(j) / d2 // FR: (k²/d)/d per component
              ax += dx * f; ay += dy * f
            }
          }
          j += 1
        }
        val nbi = nb(i)
        var e = 0
        while (e < nbi.length) {
          val dx = xi0 - x(nbi(e))(0); val dy = xi1 - x(nbi(e))(1)
          if (isFa) { ax -= dx; ay -= dy }
          else {
            val d = math.sqrt(dx * dx + dy * dy) + 1e-9
            if (isFr) { val f = d / k; ax -= dx * f; ay -= dy * f } // (d²/k)/d per component
            else { ax -= dx / d; ay -= dy / d }                      // unit attraction
          }
          e += 1
        }
        if (isFa) { ax -= grav * w(i) * xi0; ay -= grav * w(i) * xi1 }
        dispX(i) = ax; dispY(i) = ay
        i += 1
      }
      i = 0
      while (i < n) {
        val len = math.sqrt(dispX(i) * dispX(i) + dispY(i) * dispY(i)) + 1e-12
        val s   = math.min(len, step) / len
        x(i)(0) += dispX(i) * s; x(i)(1) += dispY(i) * s
        i += 1
      }
      it += 1
    }
    x
  }
}
