package repro.core

import repro.graph.LocalGraph
import repro.ppr.{Deadline, PowerIteration}

/** Level-ℓ DPPR (Definition 3.4 / Eq. 2) — exact reference implementations
  * used as the correctness oracle for GFP/GBP/Tau-Push/GFRA and as the `PI`
  * variant of Tables 8–10.
  */
object Dppr {

  /** Exact π_d(V_i, V_j) for one source child, every target child, via one
    * power iteration from the degree-weighted source distribution:
    *
    *   π_d(V_i, ·) = Σ_{s∈F(V_i)} d(s)·π(s, ·) / |F(V_i)|
    *
    * is a PPR vector by linearity, so a single PI run suffices per child.
    */
  def exactRow(g: LocalGraph, q: SuperQuery, srcChild: Int, alpha: Double,
               deadline: Deadline = Deadline.none): Array[Double] = {
    val leaves = q.children(srcChild)
    val degSum = leaves.map(g.outDeg(_).toDouble).sum
    val s      = new Array[Double](g.n)
    leaves.foreach(v => s(v) = g.outDeg(v) / degSum)
    val p     = PowerIteration.pprFromDistribution(g, s, alpha, deadline)
    val scale = degSum / leaves.length
    val sums  = q.childSums(p)
    Array.tabulate(q.k)(j => sums(j) * scale / q.size(j))
  }

  /** Exact k×k level-ℓ DPPR matrix. */
  def exactMatrix(g: LocalGraph, q: SuperQuery, alpha: Double,
                  deadline: Deadline = Deadline.none): Array[Array[Double]] =
    Array.tabulate(q.k)(i => exactRow(g, q, i, alpha, deadline))

  /** The paper's `PI` baseline as actually described in §3.3 / §7.4: invoke
    * power iteration *per leaf node* of the selected supernode and average
    * per Eq. 2 — O(k^{ℓ+1}) PI runs. Deliberately the expensive route (this
    * is what makes PI exceed the response deadline in Table 8).
    */
  def perLeafMatrix(g: LocalGraph, q: SuperQuery, alpha: Double,
                    deadline: Deadline = Deadline.none): Array[Array[Double]] =
    perLeafAverage(q, deadline)(PowerIteration.dppr(g, _, alpha))

  /** Eq. 2 from single-source DPPR vectors `row(s)`, one per leaf s of each
    * source child: π_d(V_i, V_j) = Σ_{s∈F(V_i)} Σ_{t∈F(V_j)} row(s)(t) /
    * (|F(V_i)|·|F(V_j)|). Rows are requested in leaf order; the deadline is
    * checked before each.
    */
  private[repro] def perLeafAverage(q: SuperQuery, deadline: Deadline)(
      row: Int => Array[Double]): Array[Array[Double]] = {
    val out = Array.ofDim[Double](q.k, q.k)
    var i = 0
    while (i < q.k) {
      val leaves = q.children(i)
      leaves.foreach { s =>
        deadline.check()
        val sums = q.childSums(row(s))
        var j = 0
        while (j < q.k) {
          out(i)(j) += sums(j) / (leaves.length.toDouble * q.size(j))
          j += 1
        }
      }
      i += 1
    }
    out
  }
}
