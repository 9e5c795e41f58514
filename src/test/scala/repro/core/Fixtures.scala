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

  /** The estimates of [[Gbp.run]]. */
  def gbpRun(g: LocalGraph, q: SuperQuery, tgtChild: Int, alpha: Double,
             rbmax: Double, deadline: Deadline = Deadline.none): Array[Double] =
    Gbp.run(g, q, tgtChild, alpha, rbmax, deadline)._1
}
