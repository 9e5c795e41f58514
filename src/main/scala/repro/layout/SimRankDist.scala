package repro.layout

import repro.core.PDist
import repro.graph.LocalGraph

/** The SimRank-based adaptation of §3.1: SimRank [39] similarity plugged
  * into Eq. 1 in place of the symmetric DPPR sum, then embedded with the
  * same stress majorization as PPRviz.
  */
object SimRankDist {

  val C = 0.6; val Iters = 8

  /** Dense SimRank by the standard fixed-point iteration over in-neighbour
    * pairs: `s(a,b) = C/(|I(a)||I(b)|)·Σ_{u∈I(a),v∈I(b)} s(u,v)`, s(a,a)=1.
    */
  def simrank(g: LocalGraph): Array[Array[Double]] = {
    val n  = g.n
    val in = Array.tabulate(n)(v => g.inNeighbors(v).toArray)
    var s  = Array.tabulate(n, n)((a, b) => if (a == b) 1.0 else 0.0)
    var it = 0
    while (it < Iters) {
      val next = Array.ofDim[Double](n, n)
      var a = 0
      while (a < n) {
        next(a)(a) = 1.0
        var b = a + 1
        while (b < n) {
          val ia = in(a); val ib = in(b)
          if (ia.nonEmpty && ib.nonEmpty) {
            var acc = 0.0
            var i = 0
            while (i < ia.length) {
              val su = s(ia(i))
              var j = 0
              while (j < ib.length) { acc += su(ib(j)); j += 1 }
              i += 1
            }
            val v = C * acc / (ia.length.toDouble * ib.length)
            next(a)(b) = v
            next(b)(a) = v
          }
          b += 1
        }
        a += 1
      }
      s = next
      it += 1
    }
    s
  }

  /** SimRank-distance matrix via Eq. 1 (SimRank is symmetric, so the
    * "π_d(i,j) + π_d(j,i)" slot receives 2·s(i,j)).
    */
  def distances(g: LocalGraph): Array[Array[Double]] = {
    val s = simrank(g)
    val n = g.n
    Array.tabulate(n, n) { (i, j) =>
      if (i == j) 0.0 else PDist.fromDpprSum(2.0 * s(i)(j), n)
    }
  }

  def layout(g: LocalGraph, seed: Long = 0): Array[Array[Double]] =
    StressMajorization.layout(distances(g), seed)
}
