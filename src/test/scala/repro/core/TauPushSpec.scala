package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}
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
    val maxAvgDeg = q.avgDegs.max
    val rbmax = eps * delta / maxAvgDeg
    val agg = Array.tabulate(q.k)(j => Fixtures.gbpRun(g, q, j, alpha, rbmax))
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

  // A test-local sequential Tau-Push: GFP rows in i order, then each live
  // GBP result overwrites its target column in j order.
  private def sequential(g: LocalGraph, q: SuperQuery, dpr: Array[Double],
                         delta: Double): TauPushResult = {
    val k      = q.k
    val tauJ   = Array.tabulate(k)(j => Dpr.ofSupernode(dpr, q.children(j)))
    val target = tauJ.map(TauPush.isGbpTarget(_, k, g.n))
    val covered  = tauJ.filterNot(TauPush.isGbpTarget(_, k, g.n))
    val tauCover = if (covered.isEmpty || covered.max <= 0.0) TauPush.tau(k, g.n) else covered.max
    val rmax     = eps * delta / (g.m.toDouble * tauCover)
    var pushes = 0L
    val dppr = Array.tabulate(k) { i =>
      val r = Gfp.run(g, q, i, alpha, rmax)
      pushes += r.pushes
      r.est
    }
    val rb = TauPush.rbmax(q, eps, delta)
    (0 until k).filter(target(_)).foreach { j =>
      val c       = Gbp.credits(g, q.children(j), alpha, rb)
      val refined = Gbp.aggregate(q, c.est)
      pushes += c.pushes
      (0 until k).foreach(s => if (s != j) dppr(s)(j) = refined(s))
    }
    TauPushResult(dppr, PDist.matrix(dppr, g.n), target.count(identity), pushes)
  }

  test("parallel Tau-Push equals a sequential run exactly, with every GBP target live") {
    val hub   = GraphGen.hubHeavy(2000, 4, 20, 2, seed = 5)
    val hh    = Hierarchy.build(hub, 10)
    val hdpr  = Dpr.vector(hub, alpha)
    val delta = 1.0 / (10.0 * 10)
    val queries = (hh.nLevels + 1, -1) +:
      (1 to hh.nLevels).flatMap(l => (0 until hh.levelSize(l)).map((l, _)))
    var liveTargets = 0
    queries.foreach { case (level, id) =>
      val q   = PPRviz.queryWithIds(hh, level, id)._1
      val par = TauPush.run(hub, q, hdpr, alpha, eps, delta)
      val seq = sequential(hub, q, hdpr, delta)
      liveTargets += par.gbpTargets
      assert(par.gbpTargets == seq.gbpTargets, s"query ($level,$id)")
      assert(par.pushes == seq.pushes, s"query ($level,$id)")
      (0 until q.k).foreach { i =>
        assert(java.util.Arrays.equals(par.dppr(i), seq.dppr(i)), s"query ($level,$id) dppr row $i")
        assert(java.util.Arrays.equals(par.pdist(i), seq.pdist(i)), s"query ($level,$id) pdist row $i")
      }
    }
    assert(liveTargets > 0, "expected live GBP targets")
  }

  test("a deadline that passes mid-query aborts parallel Tau-Push") {
    // Ten 2000-leaf children and r_max near 1e-13 push far longer than the
    // 5 ms the rows share.
    val big = GraphGen.powerLaw(20000, 5, seed = 2)
    val q   = SuperQuery(big, Array.tabulate(10)(c => Array.range(2000 * c, 2000 * (c + 1))))
    intercept[Deadline.Exceeded] {
      TauPush.run(big, q, Array.fill(big.n)(1.0 / big.n), alpha, eps, 1e-9,
        TauPush.Standard, Deadline.in(0.005))
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
