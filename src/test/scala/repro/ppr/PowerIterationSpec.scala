package repro.ppr

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}

class PowerIterationSpec extends AnyFunSuite {

  private val alpha = 0.2
  private lazy val g = GraphGen.twEgo

  test("itersFor bounds the geometric tail") {
    val t = PowerIteration.itersFor(alpha)
    assert(math.pow(1 - alpha, t) < 1e-9)
  }

  test("PPR vector sums to 1") {
    (0 until g.n by 5).foreach { s =>
      val p = PowerIteration.ppr(g, s, alpha)
      assert(math.abs(p.sum - 1.0) < 1e-6, s"source $s sum=${p.sum}")
    }
  }

  test("PPR at the source is at least alpha") {
    (0 until g.n by 5).foreach { s =>
      val p = PowerIteration.ppr(g, s, alpha)
      assert(p(s) >= alpha - 1e-9)
    }
  }

  test("PPR of a one-hop neighbour is at least alpha(1-alpha)/d (Thm 3.3 proof bound)") {
    val s = 0
    val p = PowerIteration.ppr(g, s, alpha)
    g.outNeighbors(s).foreach { u =>
      if (u != s) assert(p(u) >= alpha * (1 - alpha) / g.outDeg(s) - 1e-9)
    }
  }

  test("PPR is linear in the source distribution") {
    val pa = PowerIteration.ppr(g, 0, alpha)
    val pb = PowerIteration.ppr(g, 1, alpha)
    val s  = new Array[Double](g.n)
    s(0) = 0.3; s(1) = 0.7
    val mix = PowerIteration.pprFromDistribution(g, s, alpha)
    (0 until g.n).foreach { v =>
      assert(math.abs(mix(v) - (0.3 * pa(v) + 0.7 * pb(v))) < 1e-8)
    }
  }

  test("unreachable nodes get zero PPR") {
    val g2 = LocalGraph.fromArcs(4, Seq((0, 1), (1, 0), (2, 3), (3, 2)))
    val p  = PowerIteration.ppr(g2, 0, alpha)
    assert(p(2) == 0.0 && p(3) == 0.0)
  }

  test("dppr scales ppr by the source out-degree") {
    val p = PowerIteration.ppr(g, 0, alpha)
    val d = PowerIteration.dppr(g, 0, alpha)
    (0 until g.n).foreach(v => assert(math.abs(d(v) - p(v) * g.outDeg(0)) < 1e-12))
  }

  test("average PPR over all pairs is 1/n (the paper's 2·log n rationale)") {
    val m   = PowerIteration.pprMatrix(g, alpha)
    val avg = m.map(_.sum).sum / (g.n.toDouble * g.n)
    assert(math.abs(avg - 1.0 / g.n) < 1e-6)
  }

  test("sum of DPPR over all pairs is m (Eq. 11 in the Thm 3.2 proof)") {
    val m = PowerIteration.dpprMatrix(g, alpha)
    assert(math.abs(m.map(_.sum).sum - g.m) < 1e-4)
  }

  test("two-node cycle has a closed-form PPR") {
    // π(0,0) on a 2-cycle: α·Σ (1-α)^{2i} = α/(1-(1-α)²)
    val g2 = LocalGraph.fromArcs(2, Seq((0, 1), (1, 0)))
    val p  = PowerIteration.ppr(g2, 0, alpha)
    val expected = alpha / (1 - (1 - alpha) * (1 - alpha))
    assert(math.abs(p(0) - expected) < 1e-8)
    assert(math.abs(p(1) - (1 - expected)) < 1e-8)
  }

  test("deadline aborts long runs") {
    val big = GraphGen.powerLaw(5000, 4, seed = 1)
    intercept[Deadline.Exceeded] {
      val expired = new Deadline(System.nanoTime() - 1)
      PowerIteration.pprFromDistribution(big, Array.fill(big.n)(1.0 / big.n), alpha, expired)
    }
  }

  test("a deadline span too long for Long nanoseconds never expires") {
    // (s·1e9).toLong + nanoTime overflowed to a past instant for these.
    for (s <- Seq(1e10, 1e300, Double.MaxValue, Double.PositiveInfinity)) {
      val d = Deadline.in(s)
      assert(d.nanos == Deadline.none.nanos, s"Deadline.in($s)")
      d.check()
    }
    Deadline.in(1e9).check() // 31 years: in range, not yet passed
    intercept[Deadline.Exceeded](Deadline.in(-1.0).check())
  }

  test("a NaN deadline span is refused with a message that names it") {
    val e = intercept[IllegalArgumentException](Deadline.in(Double.NaN))
    assert(e.getMessage.contains("NaN"), e.getMessage)
  }
}
