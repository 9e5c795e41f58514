package repro.core

import repro.graph.LocalGraph
import repro.ppr.Dpr

/** A multi-level visualization query: the user selected a level-(ℓ+1)
  * supernode S and asks to lay out its k level-ℓ children V_0..V_{k-1}.
  *
  * Leaf v lies in child [[childOf]]`(v)`: `slot(v)` when `owner(v) ==
  * ownerId`, else outside S. A hierarchy query reads its hierarchy's
  * per-level arrays (owner = the leaves' level-(ℓ+1) ancestors, slot = their
  * level-ℓ ancestors' positions among siblings) and its children's Eq. 4 and
  * Eq. 6 statistics from per-supernode tables, so building it costs O(k). An
  * ad-hoc query ([[SuperQuery.apply]]) fills both arrays in O(n) once and
  * scans its children's leaves for the statistics.
  *
  * @param n        number of leaf nodes in the whole graph G
  * @param children leaf-node sets F(V_i), one array per child supernode
  */
final class SuperQuery private (
    val n: Int,
    val children: Array[Array[Int]],
    owner: Array[Int],
    ownerId: Int,
    slot: Array[Int],
    tableAvgDeg: Array[Double],
    tableDpr: Array[Double] => Array[Double],
) extends Serializable {

  /** Number of children k to be laid out. */
  def k: Int = children.length

  /** |F(V_i)|. */
  def size(i: Int): Int = children(i).length

  /** Index of the child whose leaf set holds leaf v, or -1 when v lies
    * outside S's subtree.
    */
  @inline def childOf(v: Int): Int = if (owner(v) == ownerId) slot(v) else -1

  /** Average out-degree of V_i's leaves (the Eq. 6 denominator term), by a
    * scan of F(V_i).
    */
  def avgDeg(i: Int, outDeg: Int => Int): Double = SuperQuery.avgDegree(children(i), outDeg)

  /** avgdeg(V_i) of every child on graph `g`: a hierarchy query reads its
    * hierarchy's table (built on the same graph), an ad-hoc one scans leaves.
    */
  private[repro] def avgDegs(g: LocalGraph): Array[Double] =
    if (tableAvgDeg != null) tableAvgDeg else Array.tabulate(k)(avgDeg(_, g.outDeg))

  /** τ_j (Eq. 4, [[Dpr.ofSupernode]]) of every child for a leaf DPR vector:
    * from the hierarchy's per-supernode table, or by a scan of the leaves.
    */
  private[repro] def childDpr(leafDpr: Array[Double]): Array[Double] =
    if (tableDpr != null) tableDpr(leafDpr)
    else Array.tabulate(k)(j => Dpr.ofSupernode(leafDpr, children(j)))

  /** Σ_{v∈F(V_j)} x(v) for every child V_j: the leaf sum Eq. 2 averages.
    * Callers apply their own scaling.
    */
  private[core] def childSums(x: Array[Double]): Array[Double] = {
    val out = new Array[Double](k)
    var i = 0
    while (i < k) {
      val leaves = children(i)
      var s = 0.0
      var j = 0
      while (j < leaves.length) { s += x(leaves(j)); j += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  /** The high-level graph actually drawn for this query (§2.2): one node per
    * child supernode, an arc (i, j) whenever G has a leaf arc from V_i's
    * subtree to V_j's subtree. Aesthetic metrics of supernode layouts are
    * computed against this graph's edges.
    */
  def displayGraph(g: LocalGraph): LocalGraph = {
    val arcs = g.arcs.flatMap { case (s, d) =>
      val ci = childOf(s); val cj = childOf(d)
      if (ci >= 0 && cj >= 0 && ci != cj) Iterator((ci, cj)) else Iterator.empty
    }
    LocalGraph.fromArcs(k, arcs)
  }
}

object SuperQuery {

  /** An ad-hoc query on arbitrary disjoint leaf sets: one O(n) pass builds
    * its leaf-to-child mapping, with owner 0 on every leaf inside S.
    */
  def apply(n: Int, children: Array[Array[Int]]): SuperQuery = {
    require(children.nonEmpty, "query needs at least one child supernode")
    val members = new Array[Int](n)
    val owner   = new Array[Int](n)
    java.util.Arrays.fill(members, -1)
    java.util.Arrays.fill(owner, -1)
    var i = 0
    while (i < children.length) {
      val leaves = children(i)
      require(leaves.nonEmpty, s"child supernode $i has no leaves")
      var j = 0
      while (j < leaves.length) {
        val v = leaves(j)
        require(v >= 0 && v < n, s"leaf $v of child supernode $i is outside [0, $n)")
        require(members(v) == -1, s"leaf $v assigned to two supernodes")
        members(v) = i
        owner(v) = 0
        j += 1
      }
      i += 1
    }
    new SuperQuery(n, children, owner, 0, members, null, null)
  }

  /** A query on a hierarchy's supernode: `children` are the leaf sets of
    * its children, leaf v lies in child `slot(v)` when `owner(v) == ownerId`,
    * `avgDeg` holds the children's avgdeg and `dpr` gives their τ_j for a
    * leaf DPR vector. The caller vouches for the arrays; nothing is checked.
    */
  private[repro] def inHierarchy(n: Int, children: Array[Array[Int]], owner: Array[Int],
                                 ownerId: Int, slot: Array[Int], avgDeg: Array[Double],
                                 dpr: Array[Double] => Array[Double]): SuperQuery =
    new SuperQuery(n, children, owner, ownerId, slot, avgDeg, dpr)

  /** Mean out-degree of a leaf set, summed in leaf order: the one avgdeg
    * formula, shared by queries and the hierarchy's per-supernode table.
    */
  private[repro] def avgDegree(leaves: Array[Int], outDeg: Int => Int): Double = {
    var s = 0.0
    var i = 0
    while (i < leaves.length) { s += outDeg(leaves(i)); i += 1 }
    s / leaves.length
  }
}
