package repro.core

import repro.graph.LocalGraph
import repro.ppr.Deadline

/** Result of one GFP run from a source supernode: per-child DPPR estimates,
  * the full residue vector (consumed by GFRA's sampling phase), its sum, and
  * the push-operation count.
  */
final case class GfpResult(
    est: Array[Double],
    residue: Array[Double],
    rsum: Double,
    pushes: Long,
)

/** Group Forward-Push (Algorithm 2).
  *
  * Forward push started from *all* leaves of the source supernode V_i
  * simultaneously (residue `d(v)/|F(V_i)|` on each leaf, Line 2) — the
  * grouped strategy that reduces the number of leaf-level invocations from
  * O(k^{ℓ+1}) to O(k). While some node v_k has `r > d(v_k)·r_max`, α·r is
  * converted — credited to π̂_d(V_i, V_j)·|F(V_j)|⁻¹ when v_k lies inside a
  * child V_j of S (Lines 4–5) — and (1-α)·r is spread over out-neighbours.
  */
object Gfp {

  def run(g: LocalGraph, q: SuperQuery, srcChild: Int, alpha: Double,
          rmax: Double, deadline: Deadline = Deadline.none): GfpResult = {
    val n       = g.n
    val residue = new Array[Double](n)
    val est     = new Array[Double](q.k)
    val srcLeaves = q.children(srcChild)
    val srcSize   = srcLeaves.length.toDouble
    srcLeaves.foreach(v => residue(v) = g.outDeg(v) / srcSize)

    val inQueue = new Array[Boolean](n)
    val queue   = new java.util.ArrayDeque[Integer]()
    srcLeaves.foreach { v =>
      if (residue(v) > g.outDeg(v) * rmax) { queue.add(v); inQueue(v) = true }
    }
    var pushes = 0L
    while (!queue.isEmpty) {
      if ((pushes & 0x3ff) == 0) deadline.check()
      val vk = queue.poll().intValue(); inQueue(vk) = false
      val r  = residue(vk)
      val dv = g.outDeg(vk)
      if (r > dv * rmax) {
        val cj = q.members(vk)
        if (cj >= 0) est(cj) += alpha * r / q.size(cj)
        val share = (1.0 - alpha) * r / dv
        residue(vk) = 0.0
        g.foreachOut(vk) { u =>
          residue(u) += share
          if (!inQueue(u) && residue(u) > g.outDeg(u) * rmax) {
            queue.add(u); inQueue(u) = true
          }
        }
        pushes += dv
      }
    }
    var rsum = 0.0
    var i = 0
    while (i < n) { rsum += residue(i); i += 1 }
    GfpResult(est, residue, rsum, pushes)
  }
}

/** Group Backward-Push (Algorithm 3).
  *
  * Backward push started from all leaves of the target supernode V_j
  * (residue `1/|F(V_j)|` on each, Line 2), traversing in-edges. Whenever a
  * node v_k with `r > r^b_max` is processed, `α·d(v_k)·r` is accumulated as a
  * per-node credit; the per-source estimate is
  * `π̂_d(V_i, V_j) = Σ_{v ∈ F(V_i)} credit(v) / |F(V_i)|` (Lines 4–5).
  *
  * The per-node credit vector is *query independent* (propagation never reads
  * S), which is what makes the paper's GBP precomputation / indexing scheme
  * (§4.3) possible: [[run]] aggregates live against a query, while
  * [[credits]] returns the raw sparse credit vector for the index.
  */
object Gbp {

  /** Query-independent per-node credits `Σ α·d(v)·r(v, V_j)` for the target
    * leaf set, plus push count.
    */
  def credits(g: LocalGraph, targetLeaves: Array[Int], alpha: Double,
              rbmax: Double, deadline: Deadline = Deadline.none): (Array[Double], Long) = {
    val n       = g.n
    val residue = new Array[Double](n)
    val credit  = new Array[Double](n)
    val tSize   = targetLeaves.length.toDouble
    targetLeaves.foreach(v => residue(v) = 1.0 / tSize)

    val inQueue = new Array[Boolean](n)
    val queue   = new java.util.ArrayDeque[Integer]()
    targetLeaves.foreach { v =>
      if (residue(v) > rbmax) { queue.add(v); inQueue(v) = true }
    }
    var pushes = 0L
    while (!queue.isEmpty) {
      if ((pushes & 0x3ff) == 0) deadline.check()
      val vk = queue.poll().intValue(); inQueue(vk) = false
      val r  = residue(vk)
      if (r > rbmax) {
        credit(vk) += alpha * g.outDeg(vk) * r
        residue(vk) = 0.0
        g.foreachIn(vk) { u =>
          residue(u) += (1.0 - alpha) * r / g.outDeg(u)
          if (!inQueue(u) && residue(u) > rbmax) { queue.add(u); inQueue(u) = true }
        }
        pushes += g.inDeg(vk)
      }
    }
    (credit, pushes)
  }

  /** Aggregate a credit vector into per-source-child estimates for a query. */
  def aggregate(q: SuperQuery, credit: Array[Double]): Array[Double] = {
    val est = new Array[Double](q.k)
    var i = 0
    while (i < q.k) {
      var s = 0.0
      q.children(i).foreach(v => s += credit(v))
      est(i) = s / q.size(i)
      i += 1
    }
    est
  }

  /** Algorithm 3 end-to-end: estimates π̂_d(V_i, V_j) for every child V_i. */
  def run(g: LocalGraph, q: SuperQuery, tgtChild: Int, alpha: Double,
          rbmax: Double, deadline: Deadline = Deadline.none): Array[Double] = {
    val (credit, _) = credits(g, q.children(tgtChild), alpha, rbmax, deadline)
    aggregate(q, credit)
  }
}
