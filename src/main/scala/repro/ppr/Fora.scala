package repro.ppr

import java.util.Random
import repro.graph.LocalGraph

/** FORA-family baselines (Tables 8–10): two-phase single-source PPR
  * approximation — Forward-Push with early termination, then random-walk
  * sampling of the Eq. (3) error term.
  *
  * Parameterisation follows §7.1 and Appendix A.2: initial residue
  * `r(s,s) = d(s)`, walk count `W = (2+2ε/3)·ln(1/p_f)/(ε²·δ)`,
  * push/walk balance `r_max = sqrt(d(s)/(m·W))`, `ω = r_sum·W`.
  */
object Fora {

  def walkCountW(eps: Double, delta: Double, pf: Double): Double =
    (2.0 + 2.0 * eps / 3.0) * math.log(1.0 / pf) / (eps * eps * delta)

  /** Stand-in for ResAcc (Lin et al. [47]): FORA with fresh walks and r_max
    * scaled by this factor, not Lin et al.'s residue-accumulation algorithm.
    * Residue accumulation lets ResAcc push a little deeper for the same
    * budget; modelled as a 2x tighter threshold before the walk phase. Like
    * ResAcc it stores no index (the 5 MiB "no index" rows of Table 10); see
    * DESIGN.md §3.
    */
  val ResAccRmaxFactor = 0.5

  /** Single-source (ε,δ)-approximate DPPR: FORA with fresh walks
    * (`walkIndex = null`), FORA+ reading a walk index, or the ResAcc stand-in
    * (fresh walks, `rmaxFactor = ResAccRmaxFactor`).
    */
  def dppr(g: LocalGraph, src: Int, alpha: Double, eps: Double, delta: Double,
           pf: Double, rnd: Random, deadline: Deadline = Deadline.none,
           walkIndex: WalkIndex = null, rmaxFactor: Double = 1.0): Array[Double] = {
    val w    = walkCountW(eps, delta, pf)
    val d    = math.max(1, g.outDeg(src))
    val rmax = rmaxFactor * math.sqrt(d / (g.m.toDouble * w))
    val fp   = ForwardPush.dppr(g, src, alpha, rmax, deadline)
    val est  = fp.est
    if (fp.rsum > 0.0) {
      val omega = math.max(1L, math.ceil(fp.rsum * w).toLong)
      val add   = fp.rsum / omega
      RandomWalk.walks(g, fp, omega, alpha, walkIndex, rnd, deadline)(end => est(end) += add)
    }
    g.returnResidue(fp.residue)
    est
  }
}

/** Precomputed random-walk endpoint index — what FORA / FORA+ / GFRA store
  * between queries (the 51 / 30 MiB rows of Table 10, scaled to our graphs).
  * Stores `quota(v)` RWR endpoints per node; queries draw uniformly from the
  * stored endpoints instead of simulating.
  */
final class WalkIndex(val endpoints: Array[Array[Int]]) extends Serializable {
  def endpoint(v: Int, rnd: Random): Int = {
    val e = endpoints(v)
    e(rnd.nextInt(e.length))
  }
  /** Serialized size in bytes: 4 bytes per stored endpoint plus row headers. */
  def sizeBytes: Long = endpoints.map(e => 4L * e.length + 16L).sum
}

object WalkIndex {
  /** Build with `perNode` endpoints for every node (degree-weighted quota:
    * hubs receive proportionally more, mirroring FORA's r_sum ∝ degree).
    */
  def build(g: LocalGraph, alpha: Double, perNode: Int, seed: Long): WalkIndex = {
    val rnd = new Random(seed)
    val avgDeg = g.m.toDouble / g.n
    val eps = Array.tabulate(g.n) { v =>
      val quota = math.max(1, math.round(perNode * g.outDeg(v) / avgDeg).toInt)
      Array.fill(quota)(RandomWalk.walk(g, v, alpha, rnd))
    }
    new WalkIndex(eps)
  }
}
