package repro.ppr

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen

class DprSpec extends AnyFunSuite {

  private val alpha = 0.2
  private lazy val g = GraphGen.twEgo

  test("DPR equals its Eq. 4 definition computed from the exact DPPR matrix") {
    val dppr = PowerIteration.dpprMatrix(g, alpha)
    val dpr  = Dpr.vector(g, alpha)
    (0 until g.n).foreach { j =>
      val defn = (0 until g.n).map(k => dppr(k)(j)).sum / g.m
      assert(math.abs(dpr(j) - defn) < 1e-8, s"node $j")
    }
  }

  test("DPR sums to 1 (it is a PPR vector of a distribution)") {
    val dpr = Dpr.vector(g, alpha)
    assert(math.abs(dpr.sum - 1.0) < 1e-6)
  }

  test("supernode DPR is the mean of leaf DPRs") {
    val dpr = Dpr.vector(g, alpha)
    val leaves = Array(0, 3, 7)
    val expected = (dpr(0) + dpr(3) + dpr(7)) / 3
    assert(math.abs(Dpr.ofSupernode(dpr, leaves) - expected) < 1e-12)
  }

  test("DPR is power-law skewed on a preferential-attachment graph (Fig. 6)") {
    val pl  = GraphGen.powerLaw(2000, 3, seed = 1)
    val dpr = Dpr.vector(pl, alpha).sorted.reverse
    // Head value orders of magnitude above the median, as on Youtube.
    assert(dpr.head > 20 * dpr(1000))
  }
}
