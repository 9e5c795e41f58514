package repro.ppr

import repro.graph.LocalGraph

/** Degree-normalized PageRank (DPR, Eq. 4) — the index that drives
  * Tau-Push's filter step.
  *
  * For a leaf node v_j, `τ_j = (1/m)·Σ_k π_d(v_k, v_j)
  * = Σ_k (d(v_k)/m)·π(v_k, v_j)`, i.e. a PPR vector whose source
  * distribution puts mass `d(v_k)/m` on node v_k — exactly the paper's
  * indexing scheme ("setting the k-th entry in the initial global PageRank to
  * d(v_k)/m", §4.3). For a supernode, τ is the mean of its leaves' DPR.
  */
object Dpr {

  /** Leaf-level DPR vector, computed locally by power iteration. */
  def vector(g: LocalGraph, alpha: Double): Array[Double] = {
    val m = g.m.toDouble
    val s = Array.tabulate(g.n)(v => g.outDeg(v) / m)
    PowerIteration.pprFromDistribution(g, s, alpha)
  }

  /** DPR of a supernode = mean leaf DPR (Eq. 4 restricted to F(V_j)). */
  def ofSupernode(leafDpr: Array[Double], leaves: Array[Int]): Double = {
    var s = 0.0
    var i = 0
    while (i < leaves.length) { s += leafDpr(leaves(i)); i += 1 }
    s / leaves.length
  }
}
