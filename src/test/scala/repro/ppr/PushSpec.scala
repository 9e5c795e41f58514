package repro.ppr

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}

/** Forward/Backward push correctness: the Eq. 3 invariant, the residue
  * threshold contract, and the error bound used by Lemma 4.1/4.2.
  */
class PushSpec extends AnyFunSuite {

  private val alpha = 0.2
  private lazy val g = GraphGen.fbEgo
  private lazy val exactPpr  = PowerIteration.pprMatrix(g, alpha)
  private lazy val exactDppr = PowerIteration.dpprMatrix(g, alpha)

  // Single-target backward push: crediting α·r(v) to v estimates π(v, t).
  private def toTarget(graph: LocalGraph, t: Int, rbmax: Double,
                       deadline: Deadline = Deadline.none): PushResult = {
    val est = new Array[Double](graph.n)
    Push.backward(graph, Array(t), Array(1.0), alpha, rbmax, deadline, est) { (v, r) =>
      est(v) += alpha * r
    }
  }

  test("forward push: all residues end below d(v)·rmax") {
    val rmax = 0.01
    val r = ForwardPush.dppr(g, 0, alpha, rmax)
    (0 until g.n).foreach(v => assert(r.residue(v) <= g.outDeg(v) * rmax + 1e-12))
  }

  test("forward push satisfies the Eq. 3 invariant exactly") {
    val r = ForwardPush.dppr(g, 3, alpha, 0.05)
    (0 until g.n).foreach { j =>
      val err = (0 until g.n).map(k => r.residue(k) / g.outDeg(k) * exactDppr(k)(j)).sum
      assert(math.abs(exactDppr(3)(j) - (r.est(j) + err)) < 1e-6,
        s"invariant broken at target $j")
    }
  }

  test("forward push estimates are under-estimates of DPPR") {
    val r = ForwardPush.dppr(g, 1, alpha, 0.01)
    (0 until g.n).foreach(j => assert(r.est(j) <= exactDppr(1)(j) + 1e-9))
  }

  test("forward push error shrinks with rmax") {
    def maxErr(rmax: Double): Double = {
      val r = ForwardPush.dppr(g, 0, alpha, rmax)
      (0 until g.n).map(j => exactDppr(0)(j) - r.est(j)).max
    }
    assert(maxErr(0.001) <= maxErr(0.1) + 1e-12)
  }

  test("tiny rmax recovers DPPR to high precision") {
    val r = ForwardPush.dppr(g, 2, alpha, 1e-7)
    (0 until g.n).foreach { j =>
      assert(math.abs(r.est(j) - exactDppr(2)(j)) < 1e-3)
    }
  }

  test("forward push conserves mass: est.sum + residue.sum = initial mass") {
    // A push of residue r adds α·r to est and changes total residue by
    // -r + (1-α)·r = -α·r, so est.sum + residue.sum is invariant.
    val r = ForwardPush.dppr(g, 0, alpha, 0.001)
    assert(math.abs((r.est.sum + r.rsum) - g.outDeg(0)) < 1e-9)
  }

  test("backward push: all residues end below rbmax") {
    val rbmax = 0.01
    val r = toTarget(g, 5, rbmax)
    (0 until g.n).foreach(v => assert(r.residue(v) <= rbmax + 1e-12))
  }

  test("backward push estimates π(·, t): invariant vs exact") {
    val t = 4
    val r = toTarget(g, t, 0.02)
    (0 until g.n).foreach { s =>
      val err = (0 until g.n).map(k => exactPpr(s)(k) * r.residue(k)).sum
      assert(math.abs(exactPpr(s)(t) - (r.est(s) + err)) < 1e-6,
        s"invariant broken at source $s")
    }
  }

  test("backward push error bounded by rbmax (since Σ_k π(s,k) = 1)") {
    val t = 7
    val rbmax = 0.005
    val r = toTarget(g, t, rbmax)
    (0 until g.n).foreach { s =>
      assert(exactPpr(s)(t) - r.est(s) <= rbmax + 1e-9)
      assert(exactPpr(s)(t) - r.est(s) >= -1e-9)
    }
  }

  test("push counters are positive when work happens") {
    val r = ForwardPush.dppr(g, 0, alpha, 0.001)
    assert(r.pushes > 0)
    val b = toTarget(g, 0, 0.001)
    assert(b.pushes > 0)
  }

  test("deadline aborts a push") {
    val big = GraphGen.powerLaw(20000, 5, seed = 2)
    intercept[Deadline.Exceeded] {
      ForwardPush.dppr(big, 0, alpha, 1e-9, new Deadline(System.nanoTime() - 1))
    }
  }

  test("a deadline that passes mid-push aborts both kernels") {
    // Checks fire every 1024 queue pops, so a deadline a few milliseconds
    // ahead stops pushes that would run far longer.
    val big = GraphGen.powerLaw(20000, 5, seed = 2)
    intercept[Deadline.Exceeded] {
      ForwardPush.dppr(big, 0, alpha, 1e-9, Deadline.in(0.005))
    }
    intercept[Deadline.Exceeded] {
      toTarget(big, 0, 1e-9, Deadline.in(0.005))
    }
  }

  test("Fig. 4 running example: first pushes from v0 spread 0.9 per neighbour") {
    // Graph of Fig. 4: v0 -> v1,v2,v3; v1 -> v4; v2 -> v5,v7; v3 -> v6;
    // (plus arcs making it deterministic). α = 0.1, initial r(v0)=d(v0)=3.
    val fig = LocalGraph.fromArcs(8, Seq(
      (0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (2, 7), (3, 6),
      (4, 0), (5, 0), (6, 0), (7, 0)))
    // Choose rmax = 0.9 so only v0 is processed (3.0 > 3·0.9) while each
    // neighbour ends holding exactly 0.9, not above its d(v)·rmax threshold.
    val r = ForwardPush.dppr(fig, 0, alpha = 0.1, rmax = 0.9)
    assert(math.abs(r.est(0) - 0.3) < 1e-12)           // α·3.0
    assert(math.abs(r.residue(1) - 0.9) < 1e-12)
    assert(math.abs(r.residue(2) - 0.9) < 1e-12)
    assert(math.abs(r.residue(3) - 0.9) < 1e-12)
  }
}
