package repro.core

import java.util.Random
import repro.graph.LocalGraph
import repro.ppr.{Deadline, Fora, Par, PushResult, RandomWalk, WalkIndex}

/** GFRA (Algorithm 4) — the ablation variant that keeps the grouped push
  * strategy (GFP) but refines with FORA-style random-walk sampling instead of
  * GBP: after GFP from V_i, ω = (r_sum/γ)·W walks are drawn from the residue
  * distribution (γ = min_i |F(V_i)|, W as in Theorem A.1); a walk ending at a
  * leaf of V_j adds r_sum/(ω·|F(V_j)|) to π̂_d(V_i, V_j).
  *
  * r_max balances the GFP and walk phases per Appendix A.2:
  * `r_max = sqrt(γ·Σ_i avgdeg(V_i) / (m·W))`.
  */
object Gfra {

  def run(g: LocalGraph, q: SuperQuery, alpha: Double, eps: Double,
          delta: Double, pf: Double, seed: Long,
          deadline: Deadline = Deadline.none,
          walkIndex: WalkIndex = null): Array[Array[Double]] = {
    val k = q.k
    val w = Fora.walkCountW(eps, delta, pf)
    val gamma = (0 until k).map(q.size).min.toDouble
    val sumAvgDeg = q.avgDegs.sum
    val rmax = math.sqrt(gamma * sumAvgDeg / (g.m.toDouble * w))
    val rnd  = new Random(seed)

    // GFP draws no random numbers: push every row as a pool task, then walk
    // row by row in i order with the one seeded generator.
    val fps = new Array[PushResult](k)
    Par.forEach(k)(i => fps(i) = Gfp.run(g, q, i, alpha, rmax, deadline))
    val dppr = fps.map(_.est)
    var i = 0
    while (i < k) {
      val fp  = fps(i)
      val row = dppr(i)
      if (fp.rsum > 0.0) {
        val omega = math.max(1L, math.ceil(fp.rsum / gamma * w).toLong)
        RandomWalk.walks(g, fp, omega, alpha, walkIndex, rnd, deadline) { end =>
          val cj = q.childOf(end)
          if (cj >= 0) row(cj) += fp.rsum / (omega.toDouble * q.size(cj))
        }
      }
      g.returnResidue(fp.residue)
      fps(i) = null
      i += 1
    }
    dppr
  }
}
