package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.hierarchy.Hierarchy
import repro.ppr.WalkIndex
import repro.viz.PPRviz

/** Theorem A.1: GFRA's GFP + random-walk refinement meets the (ε,δ)
  * envelope with high probability (seeded runs).
  */
class GfraSpec extends AnyFunSuite {

  private val alpha = 0.2
  private val eps   = 1.0 - 1.0 / math.E
  private lazy val g    = GraphGen.wikiII
  private lazy val hier = Hierarchy.build(g, 10)

  private def check(dppr: Array[Array[Double]], q: SuperQuery, slack: Double): Unit = {
    val delta = 1.0 / (10.0 * q.k)
    val exact = Dppr.exactMatrix(g, q, alpha)
    for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
      val ex = exact(i)(j)
      val bound = if (ex < delta) eps * delta else eps * ex
      assert(math.abs(dppr(i)(j) - ex) <= bound * slack + 1e-9,
        s"pair ($i,$j) est=${dppr(i)(j)} exact=$ex")
    }
  }

  test("GFRA meets the (eps,delta) envelope on the root query (seeded)") {
    val q     = hier.rootQuery
    val delta = 1.0 / (10.0 * q.k)
    val dppr  = Gfra.run(g, q, alpha, eps, delta, pf = 0.01, seed = 5)
    check(dppr, q, slack = 1.0)
  }

  test("GFRA with a walk index stays in the envelope (seeded)") {
    val q     = hier.rootQuery
    val delta = 1.0 / (10.0 * q.k)
    val wi    = WalkIndex.build(g, alpha, perNode = 32, seed = 6)
    val dppr  = Gfra.run(g, q, alpha, eps, delta, pf = 0.01, seed = 7, walkIndex = wi)
    check(dppr, q, slack = 1.5)
  }

  test("GFRA estimates are unbiased-ish: averaged runs approach exact") {
    val q     = PPRviz.queryWithIds(hier, 1, 0)._1
    val delta = 1.0 / (10.0 * q.k)
    val runs  = (0 until 5).map(s => Gfra.run(g, q, alpha, eps, delta, 0.01, seed = 100 + s))
    val exact = Dppr.exactMatrix(g, q, alpha)
    for (i <- 0 until q.k; j <- 0 until q.k if i != j) {
      val avg = runs.map(_(i)(j)).sum / runs.length
      val ex  = exact(i)(j)
      val tol = math.max(eps * delta, 0.5 * ex) // loose: 5 runs only
      assert(math.abs(avg - ex) <= tol + 1e-9, s"pair ($i,$j) avg=$avg exact=$ex")
    }
  }
}
