package repro.viz

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.hierarchy.Hierarchy
import repro.ppr.Dpr

/** Building a click's query is O(k): no length-n array on the way. */
class QueryAllocationSpec extends AnyFunSuite {

  test("a warm query build, with its children's τ_j and avgdeg, allocates under 4·n bytes") {
    val g    = GraphGen.youtubeLite
    val hier = Hierarchy.build(g, 25)
    val dpr  = Dpr.vector(g, PPRviz.DefaultAlpha)
    val all  = (1 to hier.nLevels + 1).flatMap(l => hier.ids(l).map((l, _)))
    def click(level: Int, id: Int): Unit = {
      val (q, _) = PPRviz.queryWithIds(hier, level, id)
      q.childDpr(dpr)
    }
    // Warm: builds the per-level arrays and tables, and compiles the path.
    all.foreach { case (level, id) => click(level, id) }
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val self    = Thread.currentThread().getId
    var worst   = (0L, (0, 0))
    all.foreach { case (level, id) =>
      val a0 = threads.getThreadAllocatedBytes(self)
      click(level, id)
      val used = threads.getThreadAllocatedBytes(self) - a0
      if (used > worst._1) worst = (used, (level, id))
    }
    assert(g.n >= 30000)
    assert(worst._1 < 4L * g.n, s"query ${worst._2} allocated ${worst._1} bytes, n = ${g.n}")
  }
}
