package repro.hierarchy

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SuperQuery
import repro.graph.{GraphGen, LocalGraph}
import repro.ppr.Dpr
import repro.viz.PPRviz

/** Hierarchy queries read per-level slot arrays and per-supernode τ and
  * avgdeg tables instead of scanning leaves. They must give what the
  * leaf scans give, bit for bit.
  */
class QueryTablesSpec extends AnyFunSuite {

  private lazy val graphs: Seq[(String, LocalGraph)] = Seq(
    "hubHeavy" -> GraphGen.hubHeavy(400, 3, 6, 2, seed = 5),
    "powerLaw" -> GraphGen.powerLaw(3000, 3, seed = 7),
  )
  private lazy val built = graphs.map { case (name, g) => (name, g, Hierarchy.build(g, 10)) }

  /** Every supernode and the virtual root. */
  private def queries(h: Hierarchy): Seq[(Int, Int)] =
    (1 to h.nLevels + 1).flatMap(l => h.ids(l).map((l, _)))

  test("a hierarchy query finds every leaf in the child SuperQuery.apply puts it in") {
    for ((name, g, h) <- built; (level, id) <- queries(h)) {
      val (q, _)   = PPRviz.queryWithIds(h, level, id)
      val adhoc    = SuperQuery(g, q.children)
      val expected = Array.fill(g.n)(-1)
      q.children.indices.foreach(i => q.children(i).foreach(v => expected(v) = i))
      val wrong = (0 until g.n).filter(v => q.childOf(v) != expected(v) || adhoc.childOf(v) != expected(v))
      assert(wrong.isEmpty, s"$name query ($level,$id): leaves ${wrong.take(5).mkString(",")} misplaced")
    }
  }

  test("precomputed children's τ_j and avgdeg equal the leaf scans bit for bit") {
    def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)
    for ((name, g, h) <- built) {
      val dpr = Dpr.vector(g, PPRviz.DefaultAlpha)
      queries(h).foreach { case (level, id) =>
        val (q, _) = PPRviz.queryWithIds(h, level, id)
        val adhoc  = SuperQuery(g, q.children)
        val tau    = q.childDpr(dpr)
        val avg    = q.avgDegs
        q.children.indices.foreach { j =>
          val scanTau = Dpr.ofSupernode(dpr, q.children(j))
          val scanAvg = SuperQuery.avgDegree(q.children(j), g.outDeg)
          assert(bits(tau(j)) == bits(scanTau) && bits(adhoc.childDpr(dpr)(j)) == bits(scanTau),
            s"$name query ($level,$id) child $j: tau ${tau(j)} vs $scanTau")
          assert(bits(avg(j)) == bits(scanAvg) && bits(adhoc.avgDegs(j)) == bits(scanAvg),
            s"$name query ($level,$id) child $j: avgdeg ${avg(j)} vs $scanAvg")
        }
      }
    }
  }

  test("the τ table is built once per DPR vector") {
    val (_, g, h) = built.head
    val dpr = Dpr.vector(g, PPRviz.DefaultAlpha)
    assert(h.supernodeDpr(dpr) eq h.supernodeDpr(dpr))
    val copy = dpr.clone()
    assert(!(h.supernodeDpr(copy) eq h.supernodeDpr(dpr)))
    assert(h.supernodeDpr(copy).map(_.toSeq).toSeq == h.supernodeDpr(dpr).map(_.toSeq).toSeq)
  }
}
