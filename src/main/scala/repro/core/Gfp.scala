package repro.core

import repro.graph.LocalGraph
import repro.ppr.{Deadline, Push, PushResult}

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

  /** Forward push from the leaves of child `srcChild`; `est` holds the k
    * per-child estimates, `residue` the full residue vector that GFRA's
    * sampling phase consumes.
    */
  def run(g: LocalGraph, q: SuperQuery, srcChild: Int, alpha: Double,
          rmax: Double, deadline: Deadline = Deadline.none): PushResult = {
    val srcLeaves   = q.children(srcChild)
    val srcSize     = srcLeaves.length.toDouble
    val seedResidue = new Array[Double](srcLeaves.length)
    var i = 0
    while (i < srcLeaves.length) { seedResidue(i) = g.outDeg(srcLeaves(i)) / srcSize; i += 1 }
    val est = new Array[Double](q.k)
    Push.forward(g, srcLeaves, seedResidue, alpha, rmax, deadline, est) { (v, r) =>
      val cj = q.childOf(v)
      if (cj >= 0) est(cj) += alpha * r / q.size(cj)
    }
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
  * (§4.3) possible: [[credits]] returns the raw credit vector, and
  * [[aggregate]] turns it into the estimates of one query. [[run]] does both,
  * live in Tau-Push or offline for the index.
  */
object Gbp {

  /** Backward push from the target leaf set; `est` holds the
    * query-independent per-node credits `Σ α·d(v)·r(v, V_j)`. Both length-n
    * vectors are borrowed from the graph.
    */
  def credits(g: LocalGraph, targetLeaves: Array[Int], alpha: Double,
              rbmax: Double, deadline: Deadline = Deadline.none): PushResult = {
    val seedResidue = new Array[Double](targetLeaves.length)
    java.util.Arrays.fill(seedResidue, 1.0 / targetLeaves.length)
    val credit = g.borrowResidue()
    Push.backward(g, targetLeaves, seedResidue, alpha, rbmax, deadline, credit) { (v, r) =>
      credit(v) += alpha * g.outDeg(v) * r
    }
  }

  /** Algorithm 3 end to end: the estimates π̂_d(V_i, V_j) of every source
    * child V_i for the target child `tgtChild`, and the push count. The
    * credit and residue vectors go back to the graph.
    */
  def run(g: LocalGraph, q: SuperQuery, tgtChild: Int, alpha: Double, rbmax: Double,
          deadline: Deadline = Deadline.none): (Array[Double], Long) = {
    val c   = credits(g, q.children(tgtChild), alpha, rbmax, deadline)
    val agg = aggregate(q, c.est)
    g.returnResidue(c.est)
    g.returnResidue(c.residue)
    (agg, c.pushes)
  }

  /** Aggregate a credit vector into per-source-child estimates for a query. */
  def aggregate(q: SuperQuery, credit: Array[Double]): Array[Double] = {
    val sums = q.childSums(credit)
    Array.tabulate(q.k)(i => sums(i) / q.size(i))
  }
}
