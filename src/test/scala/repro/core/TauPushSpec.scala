package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.hierarchy.Hierarchy
import repro.ppr.{Deadline, Dpr}
import repro.viz.PPRviz

/** Theorem 4.3: Tau-Push returns (ε,δ)-approximate level-ℓ DPPR for every
  * pair of children of any selected supernode, under both modes.
  */
class TauPushSpec extends AnyFunSuite {

  private val alpha = 0.2
  private val eps   = 1.0 - 1.0 / math.E
  private lazy val g    = GraphGen.wikiII
  private lazy val hier = Hierarchy.build(g, 10)
  private lazy val dpr  = Dpr.vector(g, alpha)

  private def check(q: SuperQuery, mode: TauPush.Mode): Unit = {
    val delta = 1.0 / (10.0 * q.k)
    val res   = TauPush.run(g, q, dpr, alpha, eps, delta, mode)
    val exact = Dppr.exactMatrix(g, q, alpha)
    for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
      val ex = exact(i)(j)
      val bound = if (ex < delta) eps * delta else eps * ex
      assert(math.abs(res.dppr(i)(j) - ex) <= bound + 1e-9,
        s"pair ($i,$j) mode=$mode est=${res.dppr(i)(j)} exact=$ex")
    }
  }

  test("Tau-Push is (eps,delta)-approximate on the root query") {
    check(hier.rootQuery, TauPush.Standard)
  }

  test("GFP(tau_max) mode is (eps,delta)-approximate on the root query") {
    check(hier.rootQuery, TauPush.GfpTauMax)
  }

  test("Tau-Push is (eps,delta)-approximate on every level-1 supernode query") {
    (0 until math.min(4, hier.levelSize(1))).foreach { id =>
      check(PPRviz.queryWithIds(hier, 1, id)._1, TauPush.Standard)
    }
  }

  test("Tau-Push matches paper parameters: tau = 1/sqrt(k·n)") {
    val q     = hier.rootQuery
    val delta = 1.0 / (10.0 * q.k)
    val res   = TauPush.run(g, q, dpr, alpha, eps, delta, TauPush.Standard)
    val tau   = 1.0 / math.sqrt(q.k.toDouble * g.n)
    val expectedTargets = (0 until q.k).count { j =>
      Dpr.ofSupernode(dpr, q.children(j)) > tau
    }
    assert(res.gbpTargets == expectedTargets)
  }

  test("GFP(tau_max) mode never runs GBP") {
    val q     = hier.rootQuery
    val delta = 1.0 / (10.0 * q.k)
    val res   = TauPush.run(g, q, dpr, alpha, eps, delta, TauPush.GfpTauMax)
    assert(res.gbpTargets == 0)
  }

  test("precomputed GBP aggregates give the same refinement as live GBP") {
    val q     = hier.rootQuery
    val delta = 1.0 / (10.0 * q.k)
    val maxAvgDeg = (0 until q.k).map(q.avgDeg(_, g.outDeg)).max
    val rbmax = eps * delta / maxAvgDeg
    val agg = Array.tabulate(q.k)(j => Gbp.run(g, q, j, alpha, rbmax))
    val live   = TauPush.run(g, q, dpr, alpha, eps, delta, TauPush.Standard)
    val cached = TauPush.run(g, q, dpr, alpha, eps, delta, TauPush.Standard,
      Deadline.none, j => Some(agg(j)))
    for (i <- 0 until q.k; j <- 0 until q.k) {
      assert(math.abs(live.dppr(i)(j) - cached.dppr(i)(j)) < 1e-12, s"pair ($i,$j)")
    }
  }

  test("pdist matrix is the Eq. 1 transform of the dppr matrix") {
    val q     = hier.rootQuery
    val delta = 1.0 / (10.0 * q.k)
    val res   = TauPush.run(g, q, dpr, alpha, eps, delta)
    for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
      val expected = PDist.fromDpprSum(res.dppr(i)(j) + res.dppr(j)(i), g.n)
      assert(res.pdist(i)(j) == expected)
    }
  }

  test("Lemma 3.6: approximate PDist error is bounded by theta·sigma") {
    // With eps = 1 − (1/e²)^theta and delta = e^{1−sigma}/2, the PDist error
    // is ≤ theta·max(Δ, sigma). Our defaults imply theta = ln(1/(1−eps))/2.
    val q     = hier.rootQuery
    val delta = 1.0 / (10.0 * q.k)
    val theta = math.log(1.0 / (1.0 - eps)) / 2.0
    val sigma = 1.0 - math.log(2.0 * delta)
    val res   = TauPush.run(g, q, dpr, alpha, eps, delta)
    val exact = PDist.matrix(Dppr.exactMatrix(g, q, alpha), g.n)
    for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
      val err = math.abs(res.pdist(i)(j) - exact(i)(j))
      assert(err <= theta * math.max(exact(i)(j), sigma) + 1e-6,
        s"pair ($i,$j) err=$err")
    }
  }

  test("deadline aborts Tau-Push") {
    val q = hier.rootQuery
    intercept[Deadline.Exceeded] {
      TauPush.run(g, q, dpr, alpha, eps, 1e-7, TauPush.Standard,
        new Deadline(System.nanoTime() - 1))
    }
  }
}
