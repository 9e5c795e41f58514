package repro.core

import repro.graph.LocalGraph
import repro.ppr.Deadline

/** Query shapes and GBP runs that only tests build. */
object Fixtures {

  /** Leaf-level query: each child is a singleton leaf (single-level
    * visualization sets k = n, §5 "Applications").
    */
  def singletons(g: LocalGraph, nodes: Array[Int]): SuperQuery =
    SuperQuery(g, nodes.map(Array(_)))

  /** Algorithm 3 end to end: estimates π̂_d(V_i, V_j) for every child V_i. */
  def gbpRun(g: LocalGraph, q: SuperQuery, tgtChild: Int, alpha: Double,
             rbmax: Double, deadline: Deadline = Deadline.none): Array[Double] =
    Gbp.aggregate(q, Gbp.credits(g, q.children(tgtChild), alpha, rbmax, deadline).est)
}
