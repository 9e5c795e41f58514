package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.ppr.{Dpr, ForwardPush, PowerIteration}

/** Lemma 4.1 / 4.2: GFP and GBP return (ε,δ)-approximate level-ℓ DPPR under
  * the paper's threshold settings, verified against the exact Eq. 2 values.
  */
class GfpGbpSpec extends AnyFunSuite {

  private val alpha = 0.2
  private val eps   = 1.0 - 1.0 / math.E
  private lazy val g = GraphGen.fbEgo
  // A 5-child partition of an arbitrary subset of nodes (supernode S).
  private lazy val q = SuperQuery(g,
    Array(Array(0, 1, 2), Array(3, 4), Array(10, 11, 12, 13), Array(20, 21), Array(30, 35)))
  private lazy val exact = Dppr.exactMatrix(g, q, alpha)
  private lazy val dpr   = Dpr.vector(g, alpha)
  private val delta = 1.0 / 50.0 // 1/(10k), k = 5

  private def envelopeOk(est: Double, ex: Double): Boolean = {
    val bound = if (ex < delta) eps * delta else eps * ex
    math.abs(est - ex) <= bound + 1e-9
  }

  test("GFP initial residues follow Line 2 of Algorithm 2") {
    // With rmax huge nothing is pushed; residues must be d(v)/|F(Vi)|.
    val r = Gfp.run(g, q, 0, alpha, rmax = 1e9)
    q.children(0).foreach { v =>
      assert(math.abs(r.residue(v) - g.outDeg(v) / 3.0) < 1e-12)
    }
    assert(r.pushes == 0)
  }

  test("GFP satisfies the grouped invariant of Lemma A.2") {
    val exactD = PowerIteration.dpprMatrix(g, alpha)
    val r = Gfp.run(g, q, 1, alpha, rmax = 0.05)
    (0 until q.k).foreach { j =>
      val err = q.children(j).map { t =>
        (0 until g.n).map(k => r.residue(k) / g.outDeg(k) * exactD(k)(t)).sum
      }.sum / q.size(j)
      assert(math.abs(exact(1)(j) - (r.est(j) + err)) < 1e-6, s"target child $j")
    }
  }

  test("GFP with the Lemma 4.1 rmax is (eps,delta)-approximate for low-DPR targets") {
    val tau  = (0 until q.k).map(j => Dpr.ofSupernode(dpr, q.children(j))).max
    val rmax = eps * delta / (g.m * tau)
    (0 until q.k).foreach { i =>
      val r = Gfp.run(g, q, i, alpha, rmax)
      (0 until q.k).foreach { j =>
        assert(envelopeOk(r.est(j), exact(i)(j)), s"pair ($i,$j)")
      }
    }
  }

  test("GFP estimates never exceed the exact value") {
    val r = Gfp.run(g, q, 2, alpha, rmax = 0.01)
    (0 until q.k).foreach(j => assert(r.est(j) <= exact(2)(j) + 1e-9))
  }

  test("GFP over singleton children equals single-source forward push exactly") {
    // Both run the one forward kernel; only the credit sink differs.
    val leaves = Fixtures.singletons(g, (0 until g.n).toArray)
    Seq(0, 7, 30).foreach { s =>
      val grouped = Gfp.run(g, leaves, s, alpha, rmax = 1e-4)
      val single  = ForwardPush.dppr(g, s, alpha, rmax = 1e-4)
      (0 until g.n).foreach { v =>
        assert(grouped.est(v) == single.est(v), s"source $s est($v)")
        assert(grouped.residue(v) == single.residue(v), s"source $s residue($v)")
      }
      assert(grouped.pushes == single.pushes && grouped.rsum == single.rsum)
    }
  }

  test("GBP with the Eq. 6 rbmax is (eps,delta)-approximate for every source") {
    val maxAvgDeg = q.avgDegs.max
    val rbmax = eps * delta / maxAvgDeg
    (0 until q.k).foreach { j =>
      val est = Fixtures.gbpRun(g, q, j, alpha, rbmax)
      (0 until q.k).foreach { i =>
        if (i != j) assert(envelopeOk(est(i), exact(i)(j)), s"pair ($i,$j)")
      }
    }
  }

  test("GBP error bound from Lemma 4.2: err <= avgdeg(Vi)·rbmax") {
    val rbmax = 0.001
    (0 until q.k).foreach { j =>
      val est = Fixtures.gbpRun(g, q, j, alpha, rbmax)
      (0 until q.k).foreach { i =>
        val err = exact(i)(j) - est(i)
        assert(err >= -1e-9)
        assert(err <= q.avgDegs(i) * rbmax + 1e-9, s"pair ($i,$j)")
      }
    }
  }

  test("GBP credits are query independent: aggregate(credits) == run") {
    val rbmax = 0.005
    val credit      = Gbp.credits(g, q.children(1), alpha, rbmax).est
    val viaCredits  = Gbp.aggregate(q, credit)
    val direct      = Fixtures.gbpRun(g, q, 1, alpha, rbmax)
    (0 until q.k).foreach(i => assert(math.abs(viaCredits(i) - direct(i)) < 1e-12))
  }

  test("exactRow equals the per-leaf Eq. 2 aggregation") {
    val perLeaf = Dppr.perLeafMatrix(g, q, alpha)
    (0 until q.k).foreach { i =>
      val row = Dppr.exactRow(g, q, i, alpha)
      (0 until q.k).foreach { j =>
        assert(math.abs(row(j) - perLeaf(i)(j)) < 1e-6, s"pair ($i,$j)")
      }
    }
  }

  test("level-ℓ DPPR Fig. 3 sanity: better-connected supernode pairs score higher") {
    // Two tight cliques A, B sharing two bridges, and a third clique C with
    // a single bridge to A: dppr(A,B) should exceed dppr(A,C).
    val edges = Seq(
      (0, 1), (1, 2), (0, 2),      // clique A = {0,1,2}
      (3, 4), (4, 5), (3, 5),      // clique B = {3,4,5}
      (6, 7), (7, 8), (6, 8),      // clique C = {6,7,8}
      (0, 3), (1, 4),              // two bridges A-B
      (2, 6),                      // one bridge A-C
    )
    val gg = repro.graph.LocalGraph.undirected(9, edges)
    val qq = SuperQuery(gg, Array(Array(0, 1, 2), Array(3, 4, 5), Array(6, 7, 8)))
    val ex = Dppr.exactMatrix(gg, qq, alpha)
    assert(ex(0)(1) > ex(0)(2))
  }
}
